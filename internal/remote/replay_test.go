package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosgi/internal/clock"
)

// reg builds a REGISTERED event for one replica.
func reg(service, node string) ServiceEvent {
	return ServiceEvent{Type: ServiceRegistered, Service: service, Node: node, Addr: eventAddrB}
}

// TestReplayHealsGapInsideWindow: a partition blip drops two Notify
// frames; the next live event exposes the gap, and the subscriber heals
// it with one Replay round-trip — no resubscribe, no resync.
func TestReplayHealsGapInsideWindow(t *testing.T) {
	r := newEventRig(t)
	alpha := ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA}
	r.setExport(alpha)

	var got []ServiceEvent
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA},
		Filter:     "svc.*",
		OnEvent:    func(ev ServiceEvent) { got = append(got, ev) },
		RenewEvery: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(50 * time.Millisecond)
	if len(got) != 1 || got[0].Service != "svc.alpha" {
		t.Fatalf("resync events = %+v", got)
	}

	// Two events published while the subscriber is cut off: their pushes
	// drop on the floor, but they stay in the broker's replay ring.
	r.net.Partition("nodeA", "nodeC")
	beta, gamma := reg("svc.beta", "n2"), reg("svc.gamma", "n3")
	r.setExport(beta)
	r.brkA.Publish(beta)
	r.setExport(gamma)
	r.brkA.Publish(gamma)
	r.eng.RunFor(20 * time.Millisecond)
	r.net.Heal("nodeA", "nodeC")

	// The next live event arrives with a sequence jump; the subscriber
	// stashes it, replays the missing range, and applies all in order.
	delta := reg("svc.delta", "n4")
	r.setExport(delta)
	r.brkA.Publish(delta)
	r.eng.RunFor(100 * time.Millisecond)

	want := []string{"svc.alpha", "svc.beta", "svc.gamma", "svc.delta"}
	if len(got) != len(want) {
		t.Fatalf("events = %+v, want services %v", got, want)
	}
	for i, svc := range want {
		if got[i].Service != svc {
			t.Fatalf("event %d = %+v, want %s", i, got[i], svc)
		}
	}
	st := sub.Stats()
	if st.Gaps != 1 || st.Replays != 1 || st.Replayed != 2 {
		t.Fatalf("stats = %+v (want 1 gap, 1 replay, 2 replayed)", st)
	}
	// The acceptance bar: the gap healed WITHOUT a Subscribe/resync
	// round-trip — the resync counter still shows only the initial one.
	if st.Resyncs != 1 {
		t.Fatalf("gap forced a resync: %+v", st)
	}
	if bst := r.brkA.Stats(); bst.ReplayHits != 1 || bst.ReplayMisses != 0 {
		t.Fatalf("broker stats = %+v", bst)
	}
	if sub.Known() != 4 {
		t.Fatalf("known = %d, want 4", sub.Known())
	}
}

// TestReplayMissFallsBackToResync: more events are lost than the replay
// ring retains, so the Replay request answers "window rolled" and the
// subscriber heals by a full resubscribe-and-resync instead.
func TestReplayMissFallsBackToResync(t *testing.T) {
	r := newEventRig(t, WithReplayWindow(2))
	alpha := ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA}
	r.setExport(alpha)

	var got []ServiceEvent
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA},
		Filter:     "svc.*",
		OnEvent:    func(ev ServiceEvent) { got = append(got, ev) },
		RenewEvery: time.Second,
		// Flow control off: with a credit window the 2-deep ring would
		// clamp it to 2 and the burst would suspend instead of pushing —
		// this test isolates the pure lost-frames replay-miss path.
		Window: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(50 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("resync events = %+v", got)
	}

	// Four lost events roll the 2-deep ring well past the gap's start.
	r.net.Partition("nodeA", "nodeC")
	for _, svc := range []string{"svc.b", "svc.c", "svc.d", "svc.e"} {
		ev := reg(svc, "n2")
		r.setExport(ev)
		r.brkA.Publish(ev)
	}
	r.eng.RunFor(20 * time.Millisecond)
	r.net.Heal("nodeA", "nodeC")
	final := reg("svc.f", "n3")
	r.setExport(final)
	r.brkA.Publish(final)
	r.eng.RunFor(300 * time.Millisecond)

	st := sub.Stats()
	if st.Replays != 1 || st.Replayed != 0 {
		t.Fatalf("stats = %+v (want one failed replay)", st)
	}
	if st.Resyncs != 2 {
		t.Fatalf("rolled window did not force a resync: %+v", st)
	}
	if bst := r.brkA.Stats(); bst.ReplayMisses != 1 {
		t.Fatalf("broker stats = %+v (want one replay miss)", bst)
	}
	// The resync converged the subscriber to the full table.
	if sub.Known() != 6 {
		t.Fatalf("known = %d, want 6", sub.Known())
	}
	// And the stream stayed consistent throughout: no duplicate
	// REGISTERED, no UNREGISTERING of unknown replicas.
	state := make(map[string]bool)
	for i, ev := range got {
		key := ev.Service + "@" + ev.Node
		switch ev.Type {
		case ServiceRegistered:
			if state[key] {
				t.Fatalf("event %d: duplicate REGISTERED %s: %+v", i, key, got)
			}
			state[key] = true
		case ServiceUnregistering:
			if !state[key] {
				t.Fatalf("event %d: UNREGISTERING unknown %s: %+v", i, key, got)
			}
			delete(state, key)
		}
	}
	if len(state) != 6 {
		t.Fatalf("converged state = %v", state)
	}
}

// TestReplayAfterBrokerFailover: losing the event server entirely heals
// by failover + resync (replay cannot cross brokers — sequence numbers
// are per subscription), and the replay path keeps working against the
// new broker afterwards.
func TestReplayAfterBrokerFailover(t *testing.T) {
	r := newEventRig(t)
	alpha := ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA}
	r.setExport(alpha)

	var got []ServiceEvent
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA, eventAddrB},
		Filter:     "svc.*",
		OnEvent:    func(ev ServiceEvent) { got = append(got, ev) },
		RenewEvery: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(50 * time.Millisecond)

	// Broker A dies mid-stream; a change happens during the blackout.
	r.srvA.Stop()
	beta := reg("svc.beta", "n2")
	r.setExport(beta)
	r.brkB.Publish(beta) // only the surviving broker observed it
	r.eng.RunFor(2 * time.Second)

	if sub.Connected() != eventAddrB {
		t.Fatalf("Connected = %q, want %q", sub.Connected(), eventAddrB)
	}
	st := sub.Stats()
	if st.Resyncs != 2 || st.Replays != 0 {
		t.Fatalf("failover stats = %+v (want resync-healed, no replay)", st)
	}
	if sub.Known() != 2 {
		t.Fatalf("known = %d, want 2", sub.Known())
	}

	// The replay path still works on the new broker: blip the link,
	// lose one event, heal it from B's ring without another resync.
	r.net.Partition("nodeB", "nodeC")
	gamma := reg("svc.gamma", "n3")
	r.setExport(gamma)
	r.brkB.Publish(gamma)
	r.eng.RunFor(20 * time.Millisecond)
	r.net.Heal("nodeB", "nodeC")
	delta := reg("svc.delta", "n4")
	r.setExport(delta)
	r.brkB.Publish(delta)
	r.eng.RunFor(100 * time.Millisecond)

	st = sub.Stats()
	if st.Replays != 1 || st.Replayed != 1 || st.Resyncs != 2 {
		t.Fatalf("post-failover replay stats = %+v", st)
	}
	if bst := r.brkB.Stats(); bst.ReplayHits != 1 {
		t.Fatalf("broker B stats = %+v", bst)
	}
	if sub.Known() != 4 {
		t.Fatalf("known = %d, want 4", sub.Known())
	}
}

// TestRetransmitHealsSilentTailLoss: a push lost with NO follow-up
// traffic gives the subscriber nothing to detect a gap from — the broker
// notices instead, via the stagnant renew ack behind its sent watermark,
// and retransmits the tail from the ring within a renew interval. No
// replay round-trip, no resync.
func TestRetransmitHealsSilentTailLoss(t *testing.T) {
	r := newEventRig(t)
	alpha := ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA}
	r.setExport(alpha)

	var got []ServiceEvent
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA},
		Filter:     "svc.*",
		OnEvent:    func(ev ServiceEvent) { got = append(got, ev) },
		RenewEvery: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(50 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("resync events = %+v", got)
	}

	// The tail event drops during a blip — and then the stream goes
	// quiet, so no later sequence number ever exposes the gap.
	r.net.Partition("nodeA", "nodeC")
	beta := reg("svc.beta", "n2")
	r.setExport(beta)
	r.brkA.Publish(beta)
	r.eng.RunFor(20 * time.Millisecond)
	r.net.Heal("nodeA", "nodeC")

	// Two renew intervals later the broker has seen the ack stagnate
	// behind its watermark and re-pushed the tail.
	r.eng.RunFor(time.Second)
	if len(got) != 2 || got[1].Service != "svc.beta" {
		t.Fatalf("tail never healed: %+v", got)
	}
	st := sub.Stats()
	if st.Gaps != 0 || st.Replays != 0 || st.Resyncs != 1 {
		t.Fatalf("stats = %+v (tail must heal without gap detection or resync)", st)
	}
	if bst := r.brkA.Stats(); bst.Retransmits != 1 {
		t.Fatalf("broker stats = %+v (want one retransmission)", bst)
	}
}

// TestBackpressureSuspendsAndResumes: a burst beyond the credit window
// suspends delivery at the broker; the subscriber's acknowledgements
// (eager half-window acks plus the renews) replenish the credit and the
// backlog resumes from the replay ring — in order, with no gap and no
// resync, and without waiting out the keepalive interval.
func TestBackpressureSuspendsAndResumes(t *testing.T) {
	r := newEventRig(t)

	var got []ServiceEvent
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA},
		Filter:     "svc.*",
		OnEvent:    func(ev ServiceEvent) { got = append(got, ev) },
		RenewEvery: 200 * time.Millisecond,
		Window:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(50 * time.Millisecond)

	// Ten events in one burst against a credit window of four: the burst
	// outruns the window before any ack can arrive, so the broker MUST
	// suspend — and then drain the whole backlog from the ring well
	// before the first keepalive renew (eager acks carry the credit).
	services := []string{"svc.a", "svc.b", "svc.c", "svc.d", "svc.e",
		"svc.f", "svc.g", "svc.h", "svc.i", "svc.j"}
	for _, svc := range services {
		r.brkA.Publish(reg(svc, "n2"))
	}
	bst := r.brkA.Stats()
	if bst.Suspends != 1 || bst.Lagging != 1 {
		t.Fatalf("broker stats mid-burst = %+v (want a suspended subscription)", bst)
	}
	r.eng.RunFor(100 * time.Millisecond) // half a renew interval

	if len(got) != len(services) {
		t.Fatalf("delivered %d events, want %d: %+v", len(got), len(services), got)
	}
	for i, svc := range services {
		if got[i].Service != svc || got[i].Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v, want %s seq %d", i, got[i], svc, i+1)
		}
	}
	st := sub.Stats()
	if st.Gaps != 0 || st.Replays != 0 || st.Resyncs != 1 {
		t.Fatalf("subscriber stats = %+v (suspension must not surface as loss)", st)
	}
	bst = r.brkA.Stats()
	if bst.Suspends != 1 || bst.Resumes != 1 || bst.Lagging != 0 || bst.Overflowed != 0 {
		t.Fatalf("broker stats after drain = %+v", bst)
	}
}

// TestSlowTCPSubscriberBounded is the regression test for the ROADMAP
// item "a slow TCP subscriber currently buffers unboundedly in the
// serialized push queue": with a credit window, the broker suspends at
// the limit (Stats shows the subscription lagging), the client-side push
// queue stays bounded by the window, and delivery resumes to completion
// once the subscriber drains.
func TestSlowTCPSubscriberBounded(t *testing.T) {
	sched := clock.NewReal()
	t.Cleanup(sched.Stop)

	broker := NewEventBroker(sched, WithEventSnapshot(func() []ServiceEvent { return nil }))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := ServeTCP(ln, NewEventDispatcher(NewDispatcher(emptySource{}), broker))
	t.Cleanup(server.Close)

	const window = 8
	const total = 200 // comfortably inside the broker's replay ring

	var delivered atomic.Int64
	var mu sync.Mutex
	var outOfOrder bool
	lastSeq := uint64(0)
	sub, err := NewSubscriber(SubscriberConfig{
		Transport: NewTCPTransport(sched, WithTCPCallTimeout(2*time.Second)),
		Sched:     sched,
		Addrs:     []string{ln.Addr().String()},
		OnEvent: func(ev ServiceEvent) {
			mu.Lock()
			if ev.Seq <= lastSeq {
				outOfOrder = true
			}
			lastSeq = ev.Seq
			mu.Unlock()
			time.Sleep(3 * time.Millisecond) // the slow consumer
			delivered.Add(1)
		},
		RenewEvery: 100 * time.Millisecond,
		Window:     window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)

	// Wait for the subscription to land.
	deadline := time.Now().Add(5 * time.Second)
	for sub.Connected() == "" {
		if time.Now().After(deadline) {
			t.Fatal("never subscribed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Publish the burst (each event a distinct replica, so the dedup
	// delivers every one) and watch the queue while the consumer crawls.
	for i := 0; i < total; i++ {
		broker.Publish(ServiceEvent{Type: ServiceRegistered,
			Service: "svc.burst", Node: fmt.Sprintf("n%03d", i), Addr: "x"})
	}
	sawLagging := false
	maxQueue := 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if q := sub.PendingPushes(); q > maxQueue {
			maxQueue = q
		}
		if broker.Stats().Lagging == 1 {
			sawLagging = true
		}
		if delivered.Load() == total {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := delivered.Load(); got != total {
		t.Fatalf("delivered %d of %d events", got, total)
	}
	mu.Lock()
	ooo := outOfOrder
	mu.Unlock()
	if ooo {
		t.Fatal("events delivered out of sequence order")
	}
	if !sawLagging {
		t.Fatal("broker never reported the slow subscription as lagging")
	}
	// The bound: the old behaviour queued the whole burst (~total) in the
	// serialized push queue; with credit the queue never exceeds the
	// window plus the few interleaved renew completions.
	if maxQueue > window+4 {
		t.Fatalf("push queue grew to %d (window %d): backpressure not bounding memory", maxQueue, window)
	}
	st := sub.Stats()
	if st.Resyncs != 1 || st.Gaps != 0 {
		t.Fatalf("subscriber stats = %+v (suspension must not surface as loss)", st)
	}
	bst := broker.Stats()
	if bst.Suspends == 0 || bst.Resumes == 0 || bst.Lagging != 0 || bst.Overflowed != 0 {
		t.Fatalf("broker stats after drain = %+v", bst)
	}
}

// TestReplayRingWindow pins the ring's window after it wraps: the
// newest capacity events stay retrievable by sequence number, older ones
// are gone, and each store past capacity reports the event it evicted.
func TestReplayRingWindow(t *testing.T) {
	r := newReplayRing(4)
	if r.oldest() != 0 {
		t.Fatalf("empty ring oldest = %d", r.oldest())
	}
	for q := uint64(1); q <= 10; q++ {
		evicted, had := r.store(ServiceEvent{Service: fmt.Sprintf("svc.%d", q), Seq: q})
		if wantHad := q > 4; had != wantHad || (had && evicted.Seq != q-4) {
			t.Fatalf("store %d evicted %d (had %v)", q, evicted.Seq, had)
		}
	}
	if r.oldest() != 7 {
		t.Fatalf("oldest = %d, want 7", r.oldest())
	}
	for q := uint64(0); q <= 11; q++ {
		ev, ok := r.get(q)
		if want := q >= 7 && q <= 10; ok != want || (ok && ev.Service != fmt.Sprintf("svc.%d", q)) {
			t.Fatalf("get(%d) = %+v, %v; want retained %v", q, ev, ok, want)
		}
	}
}
