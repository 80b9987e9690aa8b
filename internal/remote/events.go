package remote

import (
	"fmt"
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/manifest"
	"dosgi/internal/obs"
)

// The dosgi.events verb set: remote service events pushed server→client
// over the same framed, correlation-id-pipelined connections every other
// verb uses, so importers hear about service churn without polling a
// directory. Client→server verbs (ordinary requests on the reserved
// service name EventsServiceName):
//
//	Subscribe(subID int64, filter string[, window int64])
//	                         → [leaseMillis int64, replayWindow int64]
//	Renew(subID int64[, ackSeq int64]) → []  (unknown id → app error)
//	Replay(subID int64, fromSeq int64) → [count int64]  (rolled → app error)
//	Unsubscribe(subID int64)           → []
//
// Server→client push (an unsolicited Request frame on the subscriber's
// connection; no response travels back):
//
//	Notify(subID int64, type string, service, node, addr, instance string)
//
// A Notify's correlation id carries the per-subscription sequence number,
// so a subscriber can detect losses. The broker retains a bounded ring of
// recent deltas per subscription: a subscriber that detects a gap first
// asks for Replay(fromSeq) and only falls back to a full
// resubscribe-and-resync when the window has rolled past. The window
// argument of Subscribe is the subscriber's credit: the broker keeps at
// most that many Notify frames unacknowledged (acks ride Renew) and
// suspends delivery — marking the subscription lagging — instead of
// queueing unboundedly behind a slow consumer; suspended deltas resume
// from the ring once credit frees up.
const (
	// EventsServiceName is the reserved service name of the event verbs.
	EventsServiceName = "dosgi.events"

	// HealthServiceName is the reserved service name of the health alert
	// stream (PROTOCOL.md §6.4): the same verb set and frame shapes as
	// dosgi.events — Subscribe/Renew/Replay/Unsubscribe plus pushed
	// Notify frames — served by a second EventBroker whose events carry
	// health transitions instead of endpoint churn (Service = component,
	// Addr = status, Instance = cause). Everything durable about the
	// event machinery (replay window, credit backpressure, tail
	// retransmission, resync snapshots) applies unchanged.
	HealthServiceName = "dosgi.health"

	// MethodSubscribe opens a subscription chosen by the client.
	MethodSubscribe = "Subscribe"
	// MethodRenew extends a subscription's lease (the keepalive) and
	// carries the subscriber's delivery acknowledgement.
	MethodRenew = "Renew"
	// MethodReplay re-pushes recent deltas from the broker's replay
	// window, healing a sequence gap without a full resync.
	MethodReplay = "Replay"
	// MethodUnsubscribe closes a subscription.
	MethodUnsubscribe = "Unsubscribe"
	// MethodNotify is the push verb delivering one ServiceEvent.
	MethodNotify = "Notify"
)

// ServiceEventType enumerates remote service event kinds.
type ServiceEventType string

// Remote service events, mirroring OSGi ServiceEvent semantics across the
// wire.
const (
	// ServiceRegistered announces a new (service, node) replica.
	ServiceRegistered ServiceEventType = "REGISTERED"
	// ServiceModified announces a re-announcement of an existing replica
	// (properties or record content changed).
	ServiceModified ServiceEventType = "MODIFIED"
	// ServiceUnregistering announces a replica going away.
	ServiceUnregistering ServiceEventType = "UNREGISTERING"
)

// ServiceEvent is one remote service change: a replica of Service
// appeared on, changed on, or left Node (reachable at Addr). Instance
// names the virtual framework exporting the service ("" for host-level
// exports). Seq is the per-subscription sequence number assigned on push.
type ServiceEvent struct {
	Type     ServiceEventType
	Service  string
	Node     string
	Addr     string
	Instance string
	Seq      uint64
}

func (ev ServiceEvent) String() string {
	return fmt.Sprintf("%s %s node=%s addr=%s instance=%s seq=%d",
		ev.Type, ev.Service, ev.Node, ev.Addr, ev.Instance, ev.Seq)
}

// key identifies the replica a ServiceEvent describes.
func (ev ServiceEvent) key() string { return ev.Service + "\x00" + ev.Node }

// MatchesFilter reports whether the event's service name matches a
// subscription filter: exact name, "prefix.*" or "*" (empty = "*").
func (ev ServiceEvent) MatchesFilter(filter string) bool {
	if filter == "" {
		return true
	}
	return manifest.MatchesPattern(filter, ev.Service)
}

// EncodeNotifyAs builds the push frame of ev for subscription subID on any
// event-stream service name (dosgi.events, dosgi.health) — the frame shape
// is identical, the service name routes it to the right broker/subscriber.
// The event's Seq travels as the frame's correlation id.
func EncodeNotifyAs(service string, subID int64, ev ServiceEvent) ([]byte, error) {
	return EncodeRequest(&Request{
		Corr:    ev.Seq,
		Service: service,
		Method:  MethodNotify,
		Args:    []any{subID, string(ev.Type), ev.Service, ev.Node, ev.Addr, ev.Instance},
	})
}

// DecodeNotifyAs parses a pushed Notify request of the named event-stream
// service.
func DecodeNotifyAs(service string, req *Request) (subID int64, ev ServiceEvent, err error) {
	if req.Service != service || req.Method != MethodNotify {
		return 0, ServiceEvent{}, fmt.Errorf("remote: not a Notify request: %s.%s", req.Service, req.Method)
	}
	if len(req.Args) < 6 {
		return 0, ServiceEvent{}, fmt.Errorf("remote: Notify wants 6 args, got %d", len(req.Args))
	}
	id, ok := req.Args[0].(int64)
	if !ok {
		return 0, ServiceEvent{}, fmt.Errorf("remote: Notify subscription id %T", req.Args[0])
	}
	strs := make([]string, 5)
	for i := 0; i < 5; i++ {
		s, ok := req.Args[i+1].(string)
		if !ok {
			return 0, ServiceEvent{}, fmt.Errorf("remote: Notify arg %d is %T, want string", i+1, req.Args[i+1])
		}
		strs[i] = s
	}
	return id, ServiceEvent{
		Type: ServiceEventType(strs[0]), Service: strs[1],
		Node: strs[2], Addr: strs[3], Instance: strs[4],
		Seq: req.Corr,
	}, nil
}

// Pusher sends unsolicited frames back to one client over the connection
// that carried its requests. Implementations must be comparable, and two
// equal Pushers must denote the same client connection — the broker keys
// subscriptions by (Pusher, subID), so Renew and Unsubscribe find the
// subscription opened by an earlier request of the same connection.
type Pusher interface {
	Push(frame []byte) error
}

// PushHandler is a Handler that can also serve requests needing a
// push-back channel (the Subscribe verb). Servers pass the connection's
// Pusher; handlers that never push ignore the extra capability.
type PushHandler interface {
	Handler
	ServePush(req *Request, push Pusher) *Response
}

// DefaultEventLease is how long a subscription survives without a Renew.
// Subscribers renew at a fraction of it; a partitioned or dead subscriber
// is forgotten one lease after its last renewal.
const DefaultEventLease = 5 * time.Second

// DefaultReplayWindow is how many recent events the broker retains per
// subscription for Replay requests and suspended-delivery resume. Keep
// it at or above the subscribers' credit windows, so a suspension within
// credit never rolls undelivered events out of replay reach.
const DefaultReplayWindow = 256

// BrokerOption configures an EventBroker.
type BrokerOption func(*EventBroker)

// WithEventSnapshot installs the resync source: the current set of
// exports, replayed to every new subscription as synthetic REGISTERED
// events so a reconnecting subscriber converges without polling.
func WithEventSnapshot(fn func() []ServiceEvent) BrokerOption {
	return func(b *EventBroker) { b.snapshot = fn }
}

// WithReplayWindow sets the per-subscription replay ring depth (default
// DefaultReplayWindow; 0 disables replay — every gap forces a resync).
func WithReplayWindow(n int) BrokerOption {
	return func(b *EventBroker) {
		if n >= 0 {
			b.replayWindow = n
		}
	}
}

// brokerAckTrackMax bounds per-subscription push-timestamp tracking: a
// subscriber that never acks (no credit window, no ack rides its renews)
// must not grow the lag map without bound.
const brokerAckTrackMax = 4096

// WithBrokerAckHistogram records each event's push-to-ack lag — the Notify
// frame's wire write to the Renew acknowledging its sequence — into h.
func WithBrokerAckHistogram(h *obs.Histogram) BrokerOption {
	return func(b *EventBroker) { b.ackHist = h }
}

// WithBrokerService sets the reserved service name the broker speaks
// (default EventsServiceName). A node can run several brokers — service
// events on dosgi.events, health alerts on dosgi.health — each stamping
// its own service name into pushed Notify frames, with the
// EventDispatcher routing requests by that name.
func WithBrokerService(name string) BrokerOption {
	return func(b *EventBroker) {
		if name != "" {
			b.service = name
		}
	}
}

// EventBrokerStats are the broker's delivery counters.
type EventBrokerStats struct {
	// Published counts events offered to Publish.
	Published uint64
	// Pushed counts Notify frames written (live, resync, resume, replay).
	Pushed uint64
	// Lagging is the number of subscriptions currently suspended at
	// their credit limit.
	Lagging int
	// Suspends counts flowing→suspended transitions (credit exhausted).
	Suspends uint64
	// Resumes counts suspended→flowing transitions (credit freed and the
	// backlog fully drained from the ring).
	Resumes uint64
	// ReplayHits counts Replay requests served from the ring.
	ReplayHits uint64
	// ReplayMisses counts Replay requests the ring had rolled past (the
	// subscriber must fall back to a full resync).
	ReplayMisses uint64
	// Retransmits counts sender-driven tail retransmissions: a Renew
	// whose ack is stuck behind the sent watermark on an otherwise quiet
	// subscription re-pushes the unacknowledged tail from the ring, so a
	// push lost with no follow-up traffic still heals within one renew
	// interval.
	Retransmits uint64
	// Overflowed counts undelivered events that rolled out of a
	// suspended subscription's ring — deliveries only a resync can heal.
	Overflowed uint64
}

// EventBroker is the provider side of dosgi.events on one node: it tracks
// subscriptions (keyed by the client's connection and client-chosen id)
// and fans published ServiceEvents out to the matching ones. Expired
// subscriptions (no Renew within the lease) are pruned lazily, so a
// silently partitioned subscriber costs one map entry until its lease
// runs out. Each subscription keeps a bounded ring of its recent events
// (the replay window) and, when it advertised a credit window, is
// suspended rather than flooded once too many pushes are unacknowledged.
type EventBroker struct {
	sched        clock.Scheduler
	snapshot     func() []ServiceEvent
	replayWindow int
	ackHist      *obs.Histogram
	service      string

	mu    sync.Mutex
	subs  map[brokerSubKey]*brokerSub
	stats EventBrokerStats
}

type brokerSubKey struct {
	push Pusher
	id   int64
}

type brokerSub struct {
	filter   string
	window   uint64 // credit: max unacked pushes in flight (0 = unlimited)
	deadline time.Duration

	seq     uint64 // last sequence number assigned
	sent    uint64 // last sequence number pushed to the wire
	acked   uint64 // last sequence number acknowledged via Renew
	lagging bool   // suspended at the credit limit
	retried bool   // the current stagnant tail was already retransmitted
	// pushedSince records a push since the last stagnant ack: frames may
	// still be in flight (or queued at a slow consumer), so a repeated
	// ack alone does not yet prove the tail was lost.
	pushedSince bool

	// ring retains the subscription's recent events — the replay window.
	ring *replayRing

	// sentAt stamps each unacknowledged push's wire-write time for the
	// push-to-ack lag histogram (nil unless the broker has one). A re-push
	// (resume, replay, retransmit) restamps: lag measures the latest
	// transmission that the ack finally answered.
	sentAt map[uint64]time.Duration

	// pushMu serializes sequence assignment with the frame write, so
	// wire order always matches sequence order for one subscription.
	pushMu sync.Mutex
}

// stampSent records a push's wire-write time for the push-to-ack lag
// histogram. Callers hold b.mu.
func (b *EventBroker) stampSent(sub *brokerSub, seq uint64) {
	if b.ackHist == nil {
		return
	}
	if sub.sentAt == nil {
		sub.sentAt = make(map[uint64]time.Duration)
	}
	if _, have := sub.sentAt[seq]; have || len(sub.sentAt) < brokerAckTrackMax {
		sub.sentAt[seq] = b.sched.Now()
	}
}

// drainAcked records the push-to-ack lag of every stamped sequence the ack
// covers. Callers hold b.mu.
func (b *EventBroker) drainAcked(sub *brokerSub, ack uint64) {
	if b.ackHist == nil || len(sub.sentAt) == 0 {
		return
	}
	now := b.sched.Now()
	for s, at := range sub.sentAt {
		if s <= ack {
			b.ackHist.Record(now - at)
			delete(sub.sentAt, s)
		}
	}
}

// replayRing retains a subscription's most recent events for Replay
// requests and suspended-delivery resume. The subscription stores every
// event it sequences, so the ring holds a run of consecutive sequence
// numbers ending at the newest.
type replayRing struct {
	buf   []ServiceEvent
	count uint64 // events ever stored
}

func newReplayRing(capacity int) *replayRing {
	return &replayRing{buf: make([]ServiceEvent, capacity)}
}

// retained returns how many events the ring holds.
func (r *replayRing) retained() uint64 {
	return min(r.count, uint64(len(r.buf)))
}

// store retains ev, returning the entry it evicted (had=true once the
// ring has wrapped) so the caller can count overflowed (never-sent)
// deliveries.
func (r *replayRing) store(ev ServiceEvent) (evicted ServiceEvent, had bool) {
	slot := r.count % uint64(len(r.buf))
	if r.count >= uint64(len(r.buf)) {
		evicted, had = r.buf[slot], true
	}
	r.buf[slot] = ev
	r.count++
	return evicted, had
}

// oldest returns the smallest sequence number still retained (0 when
// nothing is retained).
func (r *replayRing) oldest() uint64 {
	if r.count == 0 {
		return 0
	}
	return r.buf[(r.count-r.retained())%uint64(len(r.buf))].Seq
}

// get returns the retained event with sequence number q.
func (r *replayRing) get(q uint64) (ServiceEvent, bool) {
	first := r.oldest()
	if first == 0 || q < first || q-first >= r.retained() {
		return ServiceEvent{}, false
	}
	ev := r.buf[(r.count-r.retained()+q-first)%uint64(len(r.buf))]
	return ev, ev.Seq == q
}

// firstAvail returns the oldest sequence number still in the ring
// (seq+1 when nothing is retained — the window is empty).
func (sub *brokerSub) firstAvail() uint64 {
	if sub.ring != nil {
		if o := sub.ring.oldest(); o != 0 {
			return o
		}
	}
	return sub.seq + 1
}

// at returns the ring entry for sequence number s.
func (sub *brokerSub) at(s uint64) (ServiceEvent, bool) {
	if sub.ring == nil {
		return ServiceEvent{}, false
	}
	return sub.ring.get(s)
}

// NewEventBroker builds a broker; sched drives lease expiry.
func NewEventBroker(sched clock.Scheduler, opts ...BrokerOption) *EventBroker {
	b := &EventBroker{
		sched:        sched,
		replayWindow: DefaultReplayWindow,
		service:      EventsServiceName,
		subs:         make(map[brokerSubKey]*brokerSub),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Service returns the reserved service name this broker answers on.
func (b *EventBroker) Service() string { return b.service }

// Stats returns a snapshot of the broker's delivery counters.
func (b *EventBroker) Stats() EventBrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	for _, sub := range b.subs {
		if sub.lagging {
			st.Lagging++
		}
	}
	return st
}

// Provider exposes the delivery counters and the live subscription count
// as a metrics attribute source.
func (b *EventBroker) Provider() func() map[string]any {
	return func() map[string]any {
		st := b.Stats()
		return map[string]any{
			"published":    int64(st.Published),
			"pushed":       int64(st.Pushed),
			"lagging":      int64(st.Lagging),
			"suspends":     int64(st.Suspends),
			"resumes":      int64(st.Resumes),
			"replayHits":   int64(st.ReplayHits),
			"replayMisses": int64(st.ReplayMisses),
			"retransmits":  int64(st.Retransmits),
			"overflowed":   int64(st.Overflowed),
			"subscribers":  int64(b.SubscriberCount()),
		}
	}
}

// SubscriberCount returns the live subscription count (tests, metrics).
func (b *EventBroker) SubscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.sched.Now()
	n := 0
	for _, sub := range b.subs {
		if sub.deadline > now {
			n++
		}
	}
	return n
}

// Publish fans ev out to every live subscription whose filter matches.
// A failed push drops the subscription (its connection is gone); a
// subscription out of credit is suspended, not pushed.
func (b *EventBroker) Publish(ev ServiceEvent) {
	b.mu.Lock()
	b.stats.Published++
	now := b.sched.Now()
	type target struct {
		key brokerSubKey
		sub *brokerSub
	}
	var targets []target
	for key, sub := range b.subs {
		if sub.deadline <= now {
			delete(b.subs, key)
			continue
		}
		if !ev.MatchesFilter(sub.filter) {
			continue
		}
		targets = append(targets, target{key: key, sub: sub})
	}
	b.mu.Unlock()
	for _, t := range targets {
		b.pushEvent(t.key, t.sub, ev)
	}
}

// pushEvent assigns the subscription's next sequence number and writes
// the Notify frame under the subscription's push lock: a concurrent
// Publish (or an in-flight resync) cannot put a higher sequence number
// on the wire before a lower one, which the subscriber's in-order
// delivery depends on. Returns false when the subscription is gone.
func (b *EventBroker) pushEvent(key brokerSubKey, sub *brokerSub, ev ServiceEvent) bool {
	sub.pushMu.Lock()
	defer sub.pushMu.Unlock()
	return b.pushEventLocked(key, sub, ev, false)
}

// pushEventLocked is pushEvent with sub.pushMu already held (the
// Subscribe resync holds it across the whole snapshot). The event enters
// the subscription's replay ring unconditionally; it reaches the wire
// only while the subscription has credit — otherwise delivery suspends
// and the ring carries the backlog until Renew frees credit.
//
// force bypasses the credit window: the Subscribe resync uses it, since
// a snapshot larger than ring+window could otherwise never finish (the
// suspended remainder rolls out of the ring before the subscriber's acks
// reach it, forcing a resync that hits the same wall). The resync burst
// is bounded by the state size; credit governs the live deltas after it.
func (b *EventBroker) pushEventLocked(key brokerSubKey, sub *brokerSub, ev ServiceEvent, force bool) bool {
	b.mu.Lock()
	if b.subs[key] != sub {
		b.mu.Unlock()
		return false // dropped or replaced meanwhile
	}
	sub.seq++
	ev.Seq = sub.seq
	suspend := !force && sub.window > 0 && sub.seq-sub.acked > sub.window
	if b.replayWindow > 0 {
		if sub.ring == nil {
			sub.ring = newReplayRing(b.replayWindow)
		}
		if evicted, had := sub.ring.store(ev); had && evicted.Seq > sub.sent {
			b.stats.Overflowed++ // a suspended delivery rolled out of reach
		}
	} else if suspend {
		b.stats.Overflowed++ // no ring: a suspended delivery is lost at once
	}
	if suspend {
		if !sub.lagging {
			sub.lagging = true
			b.stats.Suspends++
		}
		b.mu.Unlock()
		return true // suspended: the ring holds it until credit frees up
	}
	sub.sent = sub.seq
	sub.retried = false // live traffic: gap detection is back in play
	sub.pushedSince = true
	b.stats.Pushed++
	b.stampSent(sub, sub.seq)
	b.mu.Unlock()
	frame, err := EncodeNotifyAs(b.service, key.id, ev)
	if err != nil {
		return true // unencodable event: nothing a subscriber could do
	}
	if err := key.push.Push(frame); err != nil {
		b.drop(key)
		return false
	}
	return true
}

// advance records the subscriber's delivery acknowledgement and resumes
// suspended delivery from the replay ring, one event at a time, until the
// backlog drains or credit runs out again. If the ring rolled past the
// resume point while suspended, delivery jumps to the oldest retained
// event — the subscriber observes the gap and falls back to a resync.
//
// A stagnant ack behind the sent watermark with no traffic in between
// means the tail was lost on a quiet link (the subscriber has no later
// event from which to detect the gap): the sent watermark rewinds to the
// ack once per quiet spell, so the unacknowledged tail retransmits from
// the ring and the subscriber deduplicates any frames that did arrive.
func (b *EventBroker) advance(key brokerSubKey, sub *brokerSub, ack uint64) {
	sub.pushMu.Lock()
	defer sub.pushMu.Unlock()
	b.mu.Lock()
	if b.subs[key] != sub {
		b.mu.Unlock()
		return
	}
	if ack > sub.acked {
		sub.acked = ack
		sub.retried = false
		sub.pushedSince = false
		b.drainAcked(sub, ack)
	} else if sub.window > 0 && ack == sub.acked && ack < sub.sent && !sub.retried {
		// Flow-controlled subscriptions only: with no credit window a
		// stalled consumer never suspends, so live traffic would keep
		// re-arming the retransmission and every renew would re-push the
		// whole tail — amplifying the very queue growth credit bounds.
		// With a window the stall suspends delivery, the retried latch
		// stays set, and the retransmission fires once per quiet spell.
		if sub.pushedSince {
			// Frames moved since that ack (e.g. a keepalive repeating an
			// eager ack while a slow consumer chews): give them one more
			// renew interval before declaring the tail lost.
			sub.pushedSince = false
		} else {
			sub.retried = true
			sub.sent = ack
			b.stats.Retransmits++
		}
	}
	b.mu.Unlock()
	for {
		b.mu.Lock()
		if b.subs[key] != sub {
			b.mu.Unlock()
			return
		}
		if sub.sent >= sub.seq {
			if sub.lagging {
				sub.lagging = false
				b.stats.Resumes++
			}
			b.mu.Unlock()
			return
		}
		if sub.window > 0 && sub.sent-sub.acked >= sub.window {
			b.mu.Unlock()
			return // still out of credit
		}
		next := sub.sent + 1
		if first := sub.firstAvail(); next < first {
			if first > sub.seq { // replay disabled: the backlog is gone
				sub.sent = sub.seq
				b.mu.Unlock()
				continue
			}
			next = first // rolled past: skip to what the ring still holds
		}
		ev, _ := sub.at(next) // first ≤ next ≤ seq: the ring holds it
		sub.sent = next
		sub.pushedSince = true
		b.stats.Pushed++
		b.stampSent(sub, next)
		b.mu.Unlock()
		frame, err := EncodeNotifyAs(b.service, key.id, ev)
		if err != nil {
			continue
		}
		if err := key.push.Push(frame); err != nil {
			b.drop(key)
			return
		}
	}
}

// replay re-pushes the ring events [from, sent] ahead of the response,
// healing a subscriber-observed gap without a resync. A fromSeq the ring
// has rolled past answers an application error: only a full resync can
// heal that gap.
func (b *EventBroker) replay(key brokerSubKey, sub *brokerSub, from uint64, corr uint64) *Response {
	sub.pushMu.Lock()
	defer sub.pushMu.Unlock()
	b.mu.Lock()
	if b.subs[key] != sub {
		b.mu.Unlock()
		return &Response{Corr: corr, Status: StatusAppError, Err: fmt.Sprintf("unknown subscription %d", key.id)}
	}
	first := sub.firstAvail()
	if from == 0 || from < first {
		b.stats.ReplayMisses++
		b.mu.Unlock()
		return &Response{Corr: corr, Status: StatusAppError,
			Err: fmt.Sprintf("replay window rolled past %d (oldest retained %d)", from, first)}
	}
	var evs []ServiceEvent
	for s := from; s <= sub.sent; s++ {
		if ev, ok := sub.at(s); ok {
			evs = append(evs, ev)
			b.stampSent(sub, s)
		}
	}
	b.stats.ReplayHits++
	b.stats.Pushed += uint64(len(evs))
	if len(evs) > 0 {
		sub.pushedSince = true
	}
	b.mu.Unlock()
	for _, ev := range evs {
		frame, err := EncodeNotifyAs(b.service, key.id, ev)
		if err != nil {
			continue
		}
		if err := key.push.Push(frame); err != nil {
			b.drop(key)
			break
		}
	}
	return &Response{Corr: corr, Status: StatusOK, Results: []any{int64(len(evs))}}
}

func (b *EventBroker) drop(key brokerSubKey) {
	b.mu.Lock()
	delete(b.subs, key)
	b.mu.Unlock()
}

// Serve handles a dosgi.events request arriving without a push channel:
// only the connectionless verbs work.
func (b *EventBroker) Serve(req *Request) *Response {
	return b.ServePush(req, nil)
}

// ServePush handles one dosgi.events request. push is the connection's
// push-back channel (nil on transports that cannot push).
func (b *EventBroker) ServePush(req *Request, push Pusher) *Response {
	appErr := func(format string, args ...any) *Response {
		return &Response{Corr: req.Corr, Status: StatusAppError, Err: fmt.Sprintf(format, args...)}
	}
	subID := func() (int64, bool) {
		if len(req.Args) < 1 {
			return 0, false
		}
		id, ok := req.Args[0].(int64)
		return id, ok
	}
	switch req.Method {
	case MethodSubscribe:
		if push == nil {
			return appErr("subscriptions need a push-capable connection")
		}
		id, ok := subID()
		if !ok {
			return appErr("usage: Subscribe(subID, filter[, window])")
		}
		filter := ""
		if len(req.Args) > 1 {
			if s, isStr := req.Args[1].(string); isStr {
				filter = s
			}
		}
		// The credit window: how many unacknowledged pushes this
		// subscriber tolerates before the broker suspends delivery.
		// Absent or 0 keeps the legacy unbounded behaviour. Clamped to
		// the replay ring: credit beyond the ring would let a suspended
		// backlog roll out of replay reach by construction.
		var window uint64
		if len(req.Args) > 2 {
			if w, isInt := req.Args[2].(int64); isInt && w > 0 {
				window = uint64(w)
				if b.replayWindow > 0 && window > uint64(b.replayWindow) {
					window = uint64(b.replayWindow)
				}
			}
		}
		key := brokerSubKey{push: push, id: id}
		sub := &brokerSub{filter: filter, window: window, deadline: b.sched.Now() + DefaultEventLease}
		// Synthetic resync: the current exports replay as REGISTERED
		// events ahead of the Subscribe response, so a (re)connecting
		// subscriber converges to the live state before live deltas
		// resume. The Subscriber deduplicates replicas it already knows.
		//
		// The push lock is held from BEFORE the subscription becomes
		// visible until the snapshot is fully pushed: a concurrent
		// Publish either precedes the snapshot (its change is already in
		// it) or queues behind the resync — a live UNREGISTERING can
		// never overtake the stale snapshot REGISTERED of the same
		// replica and resurrect a dead service at the subscriber.
		sub.pushMu.Lock()
		b.mu.Lock()
		b.subs[key] = sub
		b.mu.Unlock()
		if b.snapshot != nil {
			for _, ev := range b.snapshot() {
				if !ev.MatchesFilter(filter) {
					continue
				}
				ev.Type = ServiceRegistered
				if !b.pushEventLocked(key, sub, ev, true) {
					sub.pushMu.Unlock()
					return appErr("subscription lost during resync")
				}
			}
		}
		sub.pushMu.Unlock()
		return &Response{Corr: req.Corr, Status: StatusOK,
			Results: []any{int64(DefaultEventLease / time.Millisecond), int64(b.replayWindow)}}
	case MethodRenew:
		id, ok := subID()
		if !ok {
			return appErr("usage: Renew(subID[, ackSeq])")
		}
		// The optional second argument acknowledges delivery up to a
		// sequence number, freeing credit for a suspended subscription.
		// A renew without it (a legacy subscriber) neither frees credit
		// nor triggers tail retransmission.
		var ack uint64
		hasAck := false
		if len(req.Args) > 1 {
			if a, isInt := req.Args[1].(int64); isInt && a >= 0 {
				ack = uint64(a)
				hasAck = true
			}
		}
		key := brokerSubKey{push: push, id: id}
		b.mu.Lock()
		sub, live := b.subs[key]
		if live && sub.deadline > b.sched.Now() {
			sub.deadline = b.sched.Now() + DefaultEventLease
			b.mu.Unlock()
			if hasAck {
				b.advance(key, sub, ack)
			}
			return &Response{Corr: req.Corr, Status: StatusOK}
		}
		delete(b.subs, key)
		b.mu.Unlock()
		// An expired or unknown subscription is an application error, NOT
		// StatusUnavailable: the subscriber must resubscribe (and receive
		// a resync), not retry the renew elsewhere.
		return appErr("unknown subscription %d", id)
	case MethodReplay:
		id, ok := subID()
		if !ok || len(req.Args) < 2 {
			return appErr("usage: Replay(subID, fromSeq)")
		}
		from, isInt := req.Args[1].(int64)
		if !isInt || from < 0 {
			return appErr("usage: Replay(subID, fromSeq)")
		}
		key := brokerSubKey{push: push, id: id}
		b.mu.Lock()
		sub, live := b.subs[key]
		if !live || sub.deadline <= b.sched.Now() {
			delete(b.subs, key)
			b.mu.Unlock()
			return appErr("unknown subscription %d", id)
		}
		b.mu.Unlock()
		return b.replay(key, sub, uint64(from), req.Corr)
	case MethodUnsubscribe:
		id, ok := subID()
		if !ok {
			return appErr("usage: Unsubscribe(subID)")
		}
		b.drop(brokerSubKey{push: push, id: id})
		return &Response{Corr: req.Corr, Status: StatusOK}
	default:
		return appErr("unknown %s method %q", b.service, req.Method)
	}
}

// EventDispatcher routes event-stream requests to their brokers — each
// broker claims the reserved service name it was built with — and
// everything else to the inner handler: the standard server handler of a
// node that serves invocations, service-event subscriptions and health
// alerts on one listener.
type EventDispatcher struct {
	inner   Handler
	brokers map[string]*EventBroker
}

// NewEventDispatcher wraps inner with one or more brokers, routed by
// each broker's service name (dosgi.events, dosgi.health, …).
func NewEventDispatcher(inner Handler, brokers ...*EventBroker) *EventDispatcher {
	byService := make(map[string]*EventBroker, len(brokers))
	for _, b := range brokers {
		byService[b.Service()] = b
	}
	return &EventDispatcher{inner: inner, brokers: byService}
}

var _ PushHandler = (*EventDispatcher)(nil)

// Serve implements Handler (no push channel: Subscribe fails cleanly).
func (d *EventDispatcher) Serve(req *Request) *Response {
	return d.ServePush(req, nil)
}

// ServePush implements PushHandler.
func (d *EventDispatcher) ServePush(req *Request, push Pusher) *Response {
	if b, ok := d.brokers[req.Service]; ok {
		return b.ServePush(req, push)
	}
	if ph, ok := d.inner.(PushHandler); ok {
		return ph.ServePush(req, push)
	}
	return d.inner.Serve(req)
}
