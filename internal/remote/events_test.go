package remote

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

func TestNotifyRoundtrip(t *testing.T) {
	ev := ServiceEvent{
		Type: ServiceRegistered, Service: "svc.kv", Node: "n1",
		Addr: "10.0.0.1:7100", Instance: "tenant-a", Seq: 9,
	}
	frame, err := EncodeNotify(7, ev)
	if err != nil {
		t.Fatal(err)
	}
	req, _, kind, err := DecodeFrame(frame)
	if err != nil || kind != frameRequest {
		t.Fatalf("DecodeFrame: kind=%#x err=%v", kind, err)
	}
	subID, got, err := DecodeNotify(req)
	if err != nil || subID != 7 {
		t.Fatalf("DecodeNotify: sub=%d err=%v", subID, err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("event roundtrip:\n got %+v\nwant %+v", got, ev)
	}
	// A non-Notify request is rejected.
	if _, _, err := DecodeNotify(&Request{Service: "calc", Method: "Add"}); err == nil {
		t.Fatal("non-Notify request accepted")
	}
}

func TestServiceEventFilter(t *testing.T) {
	ev := ServiceEvent{Service: "svc.kv.store"}
	for filter, want := range map[string]bool{
		"":             true,
		"*":            true,
		"svc.*":        true,
		"svc.kv.store": true,
		"svc.kv":       false,
		"other.*":      false,
	} {
		if got := ev.MatchesFilter(filter); got != want {
			t.Errorf("MatchesFilter(%q) = %v, want %v", filter, got, want)
		}
	}
}

// emptySource exports nothing (event-only servers).
type emptySource struct{}

func (emptySource) Lookup(string) (any, bool) { return nil, false }

// TestExporterFollowsExportPropertyChanges: setting or clearing
// service.exported via SetProperties exports and withdraws dynamically,
// and an in-place property change fires a Modified export event.
func TestExporterFollowsExportPropertyChanges(t *testing.T) {
	fw := module.New(module.WithName("props"))
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := fw.SystemContext()
	reg, err := ctx.RegisterSingle("app.Dyn", &invocableEcho{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "dyn",
	})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExporter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var events []ExportEvent
	exp.OnChange(func(ev ExportEvent) { events = append(events, ev) })
	if _, ok := exp.Lookup("dyn"); !ok || len(events) != 1 {
		t.Fatalf("initial export missing: events=%+v", events)
	}

	// Clearing service.exported withdraws the export.
	if err := reg.SetProperties(module.Properties{
		module.PropServiceExportedName: "dyn",
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := exp.Lookup("dyn"); ok {
		t.Fatal("un-exported service still exported")
	}
	if len(events) != 2 || events[1].Exported {
		t.Fatalf("withdrawal events = %+v", events)
	}

	// Setting it again re-exports.
	if err := reg.SetProperties(module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "dyn",
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := exp.Lookup("dyn"); !ok {
		t.Fatal("re-exported service not exported")
	}
	// An in-place change fires Modified (re-announce).
	if err := reg.SetProperties(module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "dyn",
		"version":                      "2",
	}); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if !last.Modified || !last.Exported || last.Name != "dyn" {
		t.Fatalf("modified event = %+v (all: %+v)", last, events)
	}
}

// eventRig is a simulated two-server deployment for subscription tests:
// brokers on nodeA and nodeB share one mutable export table (standing in
// for the replicated directory), and a client node subscribes.
type eventRig struct {
	eng  *sim.Engine
	net  *netsim.Network
	mu   sync.Mutex
	tab  map[string]ServiceEvent // replica key → current record
	brkA *EventBroker
	brkB *EventBroker
	srvA *NetsimServer
	srvB *NetsimServer
	tr   *NetsimTransport
}

const (
	eventAddrA = "10.0.0.1:7100"
	eventAddrB = "10.0.0.2:7100"
)

func (r *eventRig) setExport(ev ServiceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tab[ev.key()] = ev
}

func (r *eventRig) clearExport(ev ServiceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.tab, ev.key())
}

func (r *eventRig) snapshot() []ServiceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.tab))
	for k := range r.tab {
		keys = append(keys, k)
	}
	// Deterministic replay order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]ServiceEvent, 0, len(keys))
	for _, k := range keys {
		out = append(out, r.tab[k])
	}
	return out
}

func newEventRig(t *testing.T, brokerOpts ...BrokerOption) *eventRig {
	t.Helper()
	r := &eventRig{eng: sim.New(11), tab: make(map[string]ServiceEvent)}
	r.net = netsim.NewNetwork(r.eng)

	nicA := r.net.AttachNode("nodeA")
	nicB := r.net.AttachNode("nodeB")
	nicC := r.net.AttachNode("nodeC")
	for ip, node := range map[netsim.IP]string{
		"10.0.0.1": "nodeA", "10.0.0.2": "nodeB", "10.0.0.9": "nodeC",
	} {
		if err := r.net.AssignIP(ip, node); err != nil {
			t.Fatal(err)
		}
	}

	optsA := append([]BrokerOption{WithEventSnapshot(r.snapshot)}, brokerOpts...)
	optsB := append([]BrokerOption{WithEventSnapshot(r.snapshot)}, brokerOpts...)
	r.brkA = NewEventBroker(r.eng, optsA...)
	r.brkB = NewEventBroker(r.eng, optsB...)
	addrA, _ := ParseAddr(eventAddrA)
	addrB, _ := ParseAddr(eventAddrB)
	r.srvA = NewNetsimServer(nicA, addrA, NewEventDispatcher(NewDispatcher(emptySource{}), r.brkA))
	r.srvB = NewNetsimServer(nicB, addrB, NewEventDispatcher(NewDispatcher(emptySource{}), r.brkB))
	if err := r.srvA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.srvB.Start(); err != nil {
		t.Fatal(err)
	}
	r.tr = NewNetsimTransport(r.eng, nicC, "10.0.0.9", WithNetsimCallTimeout(100*time.Millisecond))
	return r
}

func TestSubscriberReceivesResyncAndLiveEvents(t *testing.T) {
	r := newEventRig(t)
	alpha := ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA}
	beta := ServiceEvent{Service: "svc.beta", Node: "n2", Addr: eventAddrB, Instance: "tenant-b"}
	r.setExport(alpha)
	r.setExport(beta)

	var got []ServiceEvent
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA},
		Filter:     "svc.*",
		OnEvent:    func(ev ServiceEvent) { got = append(got, ev) },
		RenewEvery: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(100 * time.Millisecond)

	if sub.Connected() != eventAddrA {
		t.Fatalf("Connected = %q, want %q", sub.Connected(), eventAddrA)
	}
	if len(got) != 2 || got[0].Service != "svc.alpha" || got[1].Service != "svc.beta" {
		t.Fatalf("resync events = %+v", got)
	}
	if got[0].Type != ServiceRegistered || got[1].Instance != "tenant-b" {
		t.Fatalf("resync content = %+v", got)
	}

	// A live publish arrives; one outside the filter does not.
	gamma := ServiceEvent{Type: ServiceRegistered, Service: "svc.gamma", Node: "n3", Addr: eventAddrB}
	r.setExport(gamma)
	r.brkA.Publish(gamma)
	r.brkA.Publish(ServiceEvent{Type: ServiceRegistered, Service: "noise.metrics", Node: "n3"})
	r.eng.RunFor(50 * time.Millisecond)
	if len(got) != 3 || got[2].Service != "svc.gamma" {
		t.Fatalf("live events = %+v", got)
	}

	// Events carry contiguous per-subscription sequence numbers.
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
	}
	if st := sub.Stats(); st.Gaps != 0 || st.Dupes != 0 || st.Resyncs != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Unregistration flows through and known-state shrinks.
	r.clearExport(gamma)
	gone := gamma
	gone.Type = ServiceUnregistering
	r.brkA.Publish(gone)
	r.eng.RunFor(50 * time.Millisecond)
	if len(got) != 4 || got[3].Type != ServiceUnregistering || sub.Known() != 2 {
		t.Fatalf("after unregister: events=%+v known=%d", got, sub.Known())
	}
}

func TestSubscriberFailsOverAndDeduplicatesResync(t *testing.T) {
	r := newEventRig(t)
	alpha := ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA}
	beta := ServiceEvent{Service: "svc.beta", Node: "n2", Addr: eventAddrB}
	r.setExport(alpha)
	r.setExport(beta)

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
	r.eng.RunFor(100 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("initial resync = %+v", got)
	}

	// Server A dies; during the blackout svc.beta disappears. The
	// subscriber must fail over to B, replay the resync without
	// duplicating svc.alpha, and synthesize the missed UNREGISTERING.
	r.srvA.Stop()
	r.clearExport(beta)
	r.eng.RunFor(2 * time.Second)

	if sub.Connected() != eventAddrB {
		t.Fatalf("Connected = %q, want %q", sub.Connected(), eventAddrB)
	}
	if len(got) != 3 {
		t.Fatalf("events after failover = %+v", got)
	}
	if got[2].Type != ServiceUnregistering || got[2].Service != "svc.beta" {
		t.Fatalf("missed withdrawal not synthesized: %+v", got[2])
	}
	if st := sub.Stats(); st.Dupes == 0 || st.Resyncs != 2 {
		t.Fatalf("failover stats = %+v (want dupes > 0, resyncs == 2)", st)
	}
	if sub.Known() != 1 {
		t.Fatalf("known = %d, want 1", sub.Known())
	}
}

func TestEventBrokerLeaseExpiry(t *testing.T) {
	r := newEventRig(t)
	r.setExport(ServiceEvent{Service: "svc.alpha", Node: "n1", Addr: eventAddrA})

	var events int
	// Renew far beyond the lease: the broker must forget the subscriber.
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  r.tr,
		Sched:      r.eng,
		Addrs:      []string{eventAddrA},
		OnEvent:    func(ServiceEvent) { events++ },
		RenewEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	r.eng.RunFor(100 * time.Millisecond)
	if events != 1 || r.brkA.SubscriberCount() != 1 {
		t.Fatalf("events=%d subs=%d", events, r.brkA.SubscriberCount())
	}
	r.eng.RunFor(DefaultEventLease + time.Second)
	if n := r.brkA.SubscriberCount(); n != 0 {
		t.Fatalf("lease never expired: %d subscribers", n)
	}
	r.brkA.Publish(ServiceEvent{Type: ServiceRegistered, Service: "svc.late", Node: "n9"})
	r.eng.RunFor(100 * time.Millisecond)
	if events != 1 {
		t.Fatalf("expired subscription still delivered: %d", events)
	}
}

func TestEventBrokerRejectsSubscribeWithoutPush(t *testing.T) {
	b := NewEventBroker(sim.New(1))
	resp := b.Serve(&Request{Service: EventsServiceName, Method: MethodSubscribe, Args: []any{int64(1), ""}})
	if resp.Status != StatusAppError {
		t.Fatalf("Subscribe without push: %+v", resp)
	}
	resp = b.Serve(&Request{Service: EventsServiceName, Method: MethodRenew, Args: []any{int64(99)}})
	if resp.Status != StatusAppError {
		t.Fatalf("Renew of unknown sub: %+v", resp)
	}
	resp = b.Serve(&Request{Service: EventsServiceName, Method: "Bogus"})
	if resp.Status != StatusAppError {
		t.Fatalf("unknown method: %+v", resp)
	}
}

// TestTCPEventSubscription drives the dosgi.events verbs over real TCP:
// subscribe, resync, live push, unsubscribe.
func TestTCPEventSubscription(t *testing.T) {
	sched := clock.NewReal()
	t.Cleanup(sched.Stop)

	var mu sync.Mutex
	exports := []ServiceEvent{{Service: "svc.echo", Node: "self", Addr: "x"}}
	broker := NewEventBroker(sched, WithEventSnapshot(func() []ServiceEvent {
		mu.Lock()
		defer mu.Unlock()
		return append([]ServiceEvent(nil), exports...)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := ServeTCP(ln, NewEventDispatcher(NewDispatcher(emptySource{}), broker))
	t.Cleanup(server.Close)

	events := make(chan ServiceEvent, 16)
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  NewTCPTransport(sched, WithTCPCallTimeout(2*time.Second)),
		Sched:      sched,
		Addrs:      []string{ln.Addr().String()},
		OnEvent:    func(ev ServiceEvent) { events <- ev },
		RenewEvery: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)

	waitEvent := func(what string) ServiceEvent {
		select {
		case ev := <-events:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return ServiceEvent{}
		}
	}
	if ev := waitEvent("resync"); ev.Service != "svc.echo" || ev.Type != ServiceRegistered {
		t.Fatalf("resync event = %+v", ev)
	}
	broker.Publish(ServiceEvent{Type: ServiceRegistered, Service: "svc.live", Node: "n2", Addr: "y"})
	if ev := waitEvent("live push"); ev.Service != "svc.live" {
		t.Fatalf("live event = %+v", ev)
	}
	// The lease survives several renew cycles.
	time.Sleep(1200 * time.Millisecond)
	if n := broker.SubscriberCount(); n != 1 {
		t.Fatalf("SubscriberCount = %d, want 1", n)
	}
}
