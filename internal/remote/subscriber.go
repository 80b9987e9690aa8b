package remote

import (
	"errors"
	"sync"
	"time"

	"dosgi/internal/clock"
)

// DefaultRenewEvery is the subscription keepalive interval. It doubles as
// the failure-detection bound: a partition is noticed one call timeout
// after the next renew.
const DefaultRenewEvery = time.Second

// DefaultEventWindow is the credit window a Subscriber advertises when
// the config leaves Window zero: the broker keeps at most this many
// Notify frames unacknowledged before suspending delivery. Kept under
// the broker's replay ring (DefaultReplayWindow) so a suspension within
// credit always resumes without a gap.
const DefaultEventWindow = 128

// maxPendingEvents bounds the out-of-order stash a gap may accumulate
// before the subscriber gives up on replay and resynchronizes.
const maxPendingEvents = 1024

// ErrSubscriberClosed is returned for operations on a closed Subscriber.
var ErrSubscriberClosed = errors.New("remote: subscriber closed")

// SubscriberConfig wires a Subscriber.
type SubscriberConfig struct {
	// Transport dials the event servers. Connections made for
	// subscriptions are dedicated — never shared with a Pool — so pushed
	// frames reach exactly one consumer.
	Transport Transport
	// Sched drives renew timers and reconnect backoff.
	Sched clock.Scheduler
	// Addrs are the candidate event servers, tried in order; on
	// connection loss the subscriber fails over to the next one.
	Addrs []string
	// Filter restricts events by service name (exact, "prefix.*" or ""
	// for everything).
	Filter string
	// OnEvent receives deduplicated events: synthetic resync REGISTERED
	// events for replicas already known are suppressed, as are
	// UNREGISTERING events for replicas never seen. UNREGISTERING events
	// missed during a blackout are synthesized when a resync completes.
	OnEvent func(ServiceEvent)
	// RenewEvery overrides the keepalive interval (default
	// DefaultRenewEvery). Keep it under the server's lease. It is also
	// the pause before re-walking the address list after every candidate
	// failed.
	RenewEvery time.Duration
	// Window is the credit window advertised to the broker: at most this
	// many pushed events may be unacknowledged (acks ride the renews)
	// before the broker suspends delivery instead of queueing behind a
	// slow consumer. 0 means DefaultEventWindow; negative disables flow
	// control (legacy unbounded delivery).
	Window int64
	// Service is the reserved event-stream service name to subscribe on
	// (default EventsServiceName). HealthServiceName consumes a node's
	// health alert stream over the identical verb set.
	Service string
}

// SubscriberStats counts the stream's anomalies and how they healed.
type SubscriberStats struct {
	// Gaps counts sequence-gap episodes detected (events lost or held
	// back upstream).
	Gaps uint64
	// Dupes counts suppressed events: resync replays of already-known
	// replicas, wire-level duplicates, and already-processed sequence
	// numbers.
	Dupes uint64
	// Replays counts Replay requests issued to heal a gap in place.
	Replays uint64
	// Replayed counts events recovered through the broker's replay
	// window (no resync round-trip).
	Replayed uint64
	// Resyncs counts completed Subscribe resyncs; 1 means the initial
	// subscribe only — every gap healed inside the replay window.
	Resyncs uint64
}

// Subscriber maintains one live dosgi.events subscription against the
// first reachable address of its candidate list: it dials a dedicated
// connection, subscribes with a client-chosen id, renews the lease on a
// timer, and on any failure tears down and resubscribes to the next
// candidate. Known-replica state survives reconnects, so the synthetic
// resync a new subscription receives produces no duplicate events — the
// importer-facing contract is "every event is a real change".
type Subscriber struct {
	cfg SubscriberConfig

	mu        sync.Mutex
	closed    bool
	conn      PushConn
	subID     int64
	nextSub   int64
	addrIdx   int
	connected string // addr of the live subscription ("" while down)
	renew     clock.Timer
	lastSeq   uint64                  // highest contiguous sequence processed
	ackedSeq  uint64                  // highest sequence acknowledged to the broker
	ackBusy   bool                    // an eager ack round-trip is outstanding
	window    int64                   // effective credit window of the live subscription
	pending   map[uint64]ServiceEvent // out-of-order stash while a gap heals
	replaying bool                    // a Replay round-trip is outstanding
	stats     SubscriberStats
	known     map[string]ServiceEvent // replica key → last event content
	resync    map[string]bool         // non-nil while a resync is in flight
}

// NewSubscriber builds a subscriber and starts connecting immediately.
func NewSubscriber(cfg SubscriberConfig) (*Subscriber, error) {
	if cfg.Transport == nil || cfg.Sched == nil || cfg.OnEvent == nil || len(cfg.Addrs) == 0 {
		return nil, errors.New("remote: subscriber needs transport, scheduler, addrs and an event sink")
	}
	if cfg.RenewEvery <= 0 {
		cfg.RenewEvery = DefaultRenewEvery
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultEventWindow
	} else if cfg.Window < 0 {
		cfg.Window = 0 // flow control off: legacy unbounded delivery
	}
	if cfg.Service == "" {
		cfg.Service = EventsServiceName
	}
	s := &Subscriber{cfg: cfg, known: make(map[string]ServiceEvent)}
	s.connect(0)
	return s, nil
}

// Connected returns the address currently holding the subscription
// ("" while disconnected).
func (s *Subscriber) Connected() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// Stats reports the stream's anomaly counters.
func (s *Subscriber) Stats() SubscriberStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PendingPushes reports how many pushed frames the live connection has
// queued but not yet handed to this subscriber (TCP's serialized push
// queue; always 0 on netsim, whose pushes deliver on the engine). With
// flow control on, it is bounded by the credit window.
func (s *Subscriber) PendingPushes() int {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn == nil {
		return 0
	}
	return conn.PendingPushes()
}

// Known returns the number of currently known replicas.
func (s *Subscriber) Known() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known)
}

// Close tears the subscription down.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn, subID := s.conn, s.subID
	s.conn = nil
	s.connected = ""
	if s.renew != nil {
		s.renew.Cancel()
		s.renew = nil
	}
	s.mu.Unlock()
	if conn != nil {
		// Best effort, written before the close: the broker forgets the
		// subscription now instead of holding it (and counting it) until
		// its lease runs out or a push fails.
		_ = conn.Call(&Request{Service: s.cfg.Service, Method: MethodUnsubscribe, Args: []any{subID}},
			func(*Response, error) {})
		_ = conn.Close()
	}
}

// connect tries the addrIdx'th candidate; exhaustion schedules a retry.
func (s *Subscriber) connect(attempt int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if attempt >= len(s.cfg.Addrs) {
		s.mu.Unlock()
		s.cfg.Sched.After(s.cfg.RenewEvery, func() { s.connect(0) })
		return
	}
	addr := s.cfg.Addrs[(s.addrIdx+attempt)%len(s.cfg.Addrs)]
	s.nextSub++
	subID := s.nextSub
	s.mu.Unlock()

	conn, err := s.cfg.Transport.Dial(addr)
	if err != nil {
		s.connect(attempt + 1)
		return
	}
	pc, ok := conn.(PushConn)
	if !ok {
		_ = conn.Close()
		s.connect(attempt + 1) // transport cannot push; hopeless but safe
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = pc.Close()
		return
	}
	s.conn = pc
	s.subID = subID
	s.lastSeq = 0
	s.ackedSeq = 0
	s.ackBusy = false
	s.pending = nil
	s.replaying = false
	s.resync = make(map[string]bool)
	s.mu.Unlock()

	pc.SetPushHandler(func(req *Request) { s.onPush(pc, req) })
	err = pc.Call(&Request{
		Service: s.cfg.Service,
		Method:  MethodSubscribe,
		Args:    []any{subID, s.cfg.Filter, s.cfg.Window},
	}, func(resp *Response, err error) {
		if err != nil || resp.Status != StatusOK {
			s.teardown(pc, attempt+1)
			return
		}
		s.mu.Lock()
		if s.closed || s.conn != pc {
			s.mu.Unlock()
			return
		}
		s.connected = addr
		s.stats.Resyncs++
		// The broker clamps the credit window to its replay ring and
		// announces the ring as the second result; adopt the smaller
		// value so the eager-ack threshold matches the credit actually
		// granted — acking at half of an unclamped window could
		// otherwise never fire and throttle delivery to renew cadence.
		s.window = s.cfg.Window
		if len(resp.Results) > 1 {
			if ring, isInt := resp.Results[1].(int64); isInt && ring > 0 && s.window > ring {
				s.window = ring
			}
		}
		s.addrIdx = (s.addrIdx + attempt) % len(s.cfg.Addrs)
		// Resync complete: every replica known before the subscribe that
		// the snapshot did not confirm disappeared during the blackout.
		var lost []ServiceEvent
		for key, last := range s.known {
			if !s.resync[key] {
				delete(s.known, key)
				gone := last
				gone.Type = ServiceUnregistering
				gone.Seq = 0 // synthesized locally, no wire sequence
				lost = append(lost, gone)
			}
		}
		s.resync = nil
		s.renew = s.cfg.Sched.Every(s.cfg.RenewEvery, func() { s.sendRenew(pc) })
		s.mu.Unlock()
		for _, ev := range lost {
			s.cfg.OnEvent(ev)
		}
	})
	if err != nil {
		s.teardown(pc, attempt+1)
	}
}

// sendRenew keeps the lease alive and acknowledges delivery up to the
// highest contiguously processed sequence number, freeing broker credit;
// any failure reconnects.
func (s *Subscriber) sendRenew(pc PushConn) {
	s.mu.Lock()
	if s.closed || s.conn != pc {
		s.mu.Unlock()
		return
	}
	subID := s.subID
	ack := int64(s.lastSeq)
	if uint64(ack) > s.ackedSeq {
		s.ackedSeq = uint64(ack)
	}
	s.mu.Unlock()
	err := pc.Call(&Request{
		Service: s.cfg.Service,
		Method:  MethodRenew,
		Args:    []any{subID, ack},
	}, func(resp *Response, err error) {
		if err != nil || resp.Status != StatusOK {
			// Timeout/conn loss or an expired lease ("unknown
			// subscription"): resubscribe from the top of the list.
			s.teardown(pc, 0)
		}
	})
	if err != nil {
		s.teardown(pc, 0)
	}
}

// teardown closes the connection (once) and moves on to the next
// candidate.
func (s *Subscriber) teardown(pc PushConn, nextAttempt int) {
	s.mu.Lock()
	if s.closed || s.conn != pc {
		s.mu.Unlock()
		return
	}
	s.conn = nil
	s.connected = ""
	s.resync = nil
	s.pending = nil
	s.replaying = false
	if s.renew != nil {
		s.renew.Cancel()
		s.renew = nil
	}
	s.mu.Unlock()
	_ = pc.Close()
	s.connect(nextAttempt)
}

// onPush handles one pushed Notify frame. Events apply strictly in
// sequence order: an out-of-order event opens a gap episode — the event
// is stashed and a Replay request asks the broker to re-push the missing
// range from its replay window. Only when replay cannot heal the gap
// (window rolled, broker error) does the subscriber fall back to a full
// resubscribe-and-resync.
func (s *Subscriber) onPush(pc PushConn, req *Request) {
	subID, ev, err := DecodeNotifyAs(s.cfg.Service, req)
	if err != nil {
		return
	}
	var deliver []ServiceEvent
	var replayFrom uint64
	overflowed := false
	s.mu.Lock()
	if s.closed || s.conn != pc || subID != s.subID {
		s.mu.Unlock()
		return // stale subscription's stragglers
	}
	switch {
	case ev.Seq <= s.lastSeq:
		s.stats.Dupes++ // replay overlap or wire duplicate: already applied
	case ev.Seq == s.lastSeq+1:
		if s.replaying {
			s.stats.Replayed++ // a gap event recovered from the window
		}
		s.lastSeq = ev.Seq
		if out, ok := s.applyLocked(ev); ok {
			deliver = append(deliver, out)
		}
		// The in-order refill may unblock stashed successors.
		for {
			next, held := s.pending[s.lastSeq+1]
			if !held {
				break
			}
			delete(s.pending, s.lastSeq+1)
			s.lastSeq++
			if out, ok := s.applyLocked(next); ok {
				deliver = append(deliver, out)
			}
		}
		if len(s.pending) == 0 {
			s.replaying = false // gap fully healed
		}
	default: // a gap: stash and ask for replay
		if s.pending == nil {
			s.pending = make(map[uint64]ServiceEvent)
		}
		if _, held := s.pending[ev.Seq]; held {
			s.stats.Dupes++
		} else {
			s.pending[ev.Seq] = ev
		}
		if len(s.pending) > maxPendingEvents {
			overflowed = true
		} else if !s.replaying {
			s.replaying = true
			s.stats.Gaps++
			s.stats.Replays++
			replayFrom = s.lastSeq + 1
		}
	}
	s.mu.Unlock()
	for _, out := range deliver {
		s.cfg.OnEvent(out)
	}
	if overflowed {
		s.teardown(pc, 0) // runaway gap: resync instead of stashing forever
		return
	}
	if replayFrom > 0 {
		s.requestReplay(pc, replayFrom)
	}
	s.maybeAck(pc)
}

// maybeAck sends an eager delivery acknowledgement (a Renew) once half
// the credit window has been consumed since the last ack, so a fast
// consumer's throughput rides the connection round-trip rather than the
// keepalive interval. The periodic renews still carry acks for slow and
// idle streams; at most one eager ack is in flight.
func (s *Subscriber) maybeAck(pc PushConn) {
	s.mu.Lock()
	if s.closed || s.conn != pc || s.window <= 0 || s.ackBusy ||
		s.lastSeq-s.ackedSeq < uint64(s.window)/2+1 {
		s.mu.Unlock()
		return
	}
	s.ackBusy = true
	subID := s.subID
	ack := s.lastSeq
	s.ackedSeq = ack
	s.mu.Unlock()
	err := pc.Call(&Request{
		Service: s.cfg.Service,
		Method:  MethodRenew,
		Args:    []any{subID, int64(ack)},
	}, func(resp *Response, err error) {
		s.mu.Lock()
		s.ackBusy = false
		s.mu.Unlock()
		if err != nil || resp.Status != StatusOK {
			s.teardown(pc, 0)
			return
		}
		// Deliveries that raced this round-trip may already warrant the
		// next ack — without this re-check the stream would idle until
		// the keepalive renew.
		s.maybeAck(pc)
	})
	if err != nil {
		s.mu.Lock()
		s.ackBusy = false
		s.mu.Unlock()
		s.teardown(pc, 0)
	}
}

// applyLocked folds one in-order event into the known-replica state,
// returning the event to deliver (suppressed duplicates return false).
// Callers hold s.mu.
func (s *Subscriber) applyLocked(ev ServiceEvent) (ServiceEvent, bool) {
	key := ev.key()
	if s.resync != nil {
		s.resync[key] = true
	}
	switch ev.Type {
	case ServiceRegistered:
		last, seen := s.known[key]
		if seen && sameReplica(last, ev) {
			s.stats.Dupes++ // resync replay of a replica we already know
			return ev, false
		}
		s.known[key] = ev
		return ev, true
	case ServiceModified:
		s.known[key] = ev
		return ev, true
	case ServiceUnregistering:
		if _, seen := s.known[key]; seen {
			delete(s.known, key)
			return ev, true
		}
		s.stats.Dupes++
		return ev, false
	default:
		return ev, false
	}
}

// requestReplay asks the broker to re-push the stream from the first
// missing sequence number. The replayed frames travel ahead of the
// response, so by the time the response arrives the gap is normally
// closed; a failed or ineffective replay falls back to a full resync.
func (s *Subscriber) requestReplay(pc PushConn, from uint64) {
	s.mu.Lock()
	if s.closed || s.conn != pc {
		s.mu.Unlock()
		return
	}
	subID := s.subID
	s.mu.Unlock()
	err := pc.Call(&Request{
		Service: s.cfg.Service,
		Method:  MethodReplay,
		Args:    []any{subID, int64(from)},
	}, func(resp *Response, err error) {
		if err != nil || resp.Status != StatusOK {
			// Window rolled (or the broker is gone): resync.
			s.teardown(pc, 0)
			return
		}
		s.mu.Lock()
		stillGapped := !s.closed && s.conn == pc && s.replaying && len(s.pending) > 0
		if stillGapped {
			s.mu.Unlock()
			s.teardown(pc, 0) // replayed frames lost again: stop looping
			return
		}
		s.mu.Unlock()
	})
	if err != nil {
		s.teardown(pc, 0)
	}
}

// sameReplica reports whether two events describe the same replica
// content (sequence numbers aside).
func sameReplica(a, b ServiceEvent) bool {
	return a.Service == b.Service && a.Node == b.Node &&
		a.Addr == b.Addr && a.Instance == b.Instance
}
