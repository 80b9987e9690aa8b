package protosim

import (
	"fmt"
	"sync"
	"time"

	"dosgi/internal/remote"
)

// faultInjector sits between the event brokers and the wire: every
// server-side Pusher is wrapped in a stable faultyPusher whose Push can
// silently discard frames on demand. A dropped push is counted as sent
// by the broker, so the subscriber observes a genuine sequence gap —
// exactly the wire condition Replay and resync exist to heal — without
// touching broker internals.
type faultInjector struct {
	mu       sync.Mutex
	wrapped  map[remote.Pusher]*faultyPusher
	dropNext int
	dropAll  bool
	dropped  uint64
}

func newFaultInjector() *faultInjector {
	return &faultInjector{wrapped: make(map[remote.Pusher]*faultyPusher)}
}

// wrap returns the stable wrapper of p. Stability matters: the broker
// keys subscriptions by Pusher identity, so the same underlying
// connection must always present the same wrapper.
func (f *faultInjector) wrap(p remote.Pusher) remote.Pusher {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.wrapped[p]
	if !ok {
		w = &faultyPusher{inner: p, faults: f}
		f.wrapped[p] = w
	}
	return w
}

// shouldDrop consumes one drop token if any are armed.
func (f *faultInjector) shouldDrop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropAll {
		f.dropped++
		return true
	}
	if f.dropNext > 0 {
		f.dropNext--
		f.dropped++
		return true
	}
	return false
}

func (f *faultInjector) droppedCount() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// faultyPusher is the comparable per-connection wrapper.
type faultyPusher struct {
	inner  remote.Pusher
	faults *faultInjector
}

// Push implements remote.Pusher, discarding the frame when a fault is
// armed. Returning nil keeps the broker's bookkeeping (sent watermark,
// ring) identical to a delivered push — the loss is invisible until the
// subscriber sees the sequence gap.
func (p *faultyPusher) Push(frame []byte) error {
	if p.faults.shouldDrop() {
		return nil
	}
	return p.inner.Push(frame)
}

// faultHandler injects the pusher wrapper into the server handler chain.
type faultHandler struct {
	inner  remote.PushHandler
	faults *faultInjector
}

// Serve implements remote.Handler.
func (h *faultHandler) Serve(req *remote.Request) *remote.Response {
	return h.inner.Serve(req)
}

// ServePush implements remote.PushHandler.
func (h *faultHandler) ServePush(req *remote.Request, push remote.Pusher) *remote.Response {
	return h.inner.ServePush(req, h.faults.wrap(push))
}

// DropPushes arms the injector to silently discard the next n event
// pushes (across all subscriptions and both brokers). Subscribers heal
// the resulting gaps via Replay — the directive behind FAULT DROP.
func (s *Sim) DropPushes(n int) {
	s.faults.mu.Lock()
	s.faults.dropNext += n
	s.faults.mu.Unlock()
}

// DroppedPushes reports how many pushes the injector has discarded.
func (s *Sim) DroppedPushes() uint64 { return s.faults.droppedCount() }

// RollWindows forces every subscription's replay window to roll past
// its gap: with all pushes suppressed, it publishes ring+2 MODIFIED
// events, so a later Replay from the pre-roll sequence misses the ring
// and subscribers must fall back to a full resync. Returns the number
// of events published — the directive behind FAULT ROLL.
func (s *Sim) RollWindows() int {
	n := s.cfg.ReplayWindow + 2
	s.faults.mu.Lock()
	s.faults.dropAll = true
	s.faults.mu.Unlock()
	for i := 0; i < n; i++ {
		s.mu.Lock()
		ev, ok := s.randomLiveEndpointLocked()
		s.mu.Unlock()
		if !ok {
			ev = remote.ServiceEvent{Service: "echo", Node: "sim", Addr: s.remoteAddr}
		}
		ev.Type = remote.ServiceModified
		s.broker.Publish(ev)
	}
	s.faults.mu.Lock()
	s.faults.dropAll = false
	s.faults.mu.Unlock()
	return n
}

// SetStormRate retunes the synthetic event storm to rate events/second
// (0 stops it). The storm publishes MODIFIED re-announcements of live
// replicas, so the directory a converged subscriber holds is unchanged
// by any storm volume — convergence stays assertable.
func (s *Sim) SetStormRate(rate float64) {
	const tick = 20 * time.Millisecond
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.stormRate = rate
	s.stormCarry = 0
	if s.stormTimer != nil {
		s.stormTimer.Cancel()
		s.stormTimer = nil
	}
	if rate <= 0 {
		return
	}
	s.stormTimer = s.sched.Every(tick, func() {
		s.mu.Lock()
		want := s.stormRate*tick.Seconds() + s.stormCarry
		n := int(want)
		s.stormCarry = want - float64(n)
		evs := make([]remote.ServiceEvent, 0, n)
		for i := 0; i < n; i++ {
			ev, ok := s.randomLiveEndpointLocked()
			if !ok {
				break
			}
			ev.Type = remote.ServiceModified
			evs = append(evs, ev)
		}
		s.mu.Unlock()
		for _, ev := range evs {
			s.broker.Publish(ev)
		}
	})
}

// StormRate returns the current storm rate in events/second.
func (s *Sim) StormRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stormRate
}

// KillNode takes a fake node down hard: its listener (if any) closes,
// every endpoint it held leaves the directory with an UNREGISTERING
// event, its artifact holdings become unreachable, and its health
// records are withdrawn — the directive behind FAULT KILL.
func (s *Sim) KillNode(name string) error {
	s.mu.Lock()
	n, ok := s.byName[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("protosim: unknown node %q", name)
	}
	if n.state == nodeDead {
		s.mu.Unlock()
		return fmt.Errorf("protosim: node %s already dead", name)
	}
	n.state = nodeDead
	srv := n.srv
	n.srv = nil
	evs := make([]remote.ServiceEvent, 0, len(n.services))
	for _, svc := range n.services {
		delete(s.endpoints[svc], name)
		evs = append(evs, remote.ServiceEvent{
			Type: remote.ServiceUnregistering, Service: svc, Node: name, Addr: n.addr,
		})
	}
	s.mu.Unlock()

	if srv != nil {
		srv.Close()
	}
	for _, ev := range evs {
		s.broker.Publish(ev)
	}
	for _, comp := range healthComponents {
		s.SetHealth(name, comp, "", "")
	}
	return nil
}

// ReviveNode brings a killed node back: endpoints re-register, health
// records return OK, and (for listener nodes) the original address is
// re-bound — the directive behind FAULT REVIVE.
func (s *Sim) ReviveNode(name string) error {
	s.mu.Lock()
	n, ok := s.byName[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("protosim: unknown node %q", name)
	}
	if n.state != nodeDead {
		s.mu.Unlock()
		return fmt.Errorf("protosim: node %s is not dead", name)
	}
	n.state = nodeLive
	addr := n.addr
	relisten := n.listener
	evs := make([]remote.ServiceEvent, 0, len(n.services))
	for _, svc := range n.services {
		if s.endpoints[svc] == nil {
			s.endpoints[svc] = make(map[string]struct{})
		}
		s.endpoints[svc][name] = struct{}{}
		evs = append(evs, remote.ServiceEvent{
			Type: remote.ServiceRegistered, Service: svc, Node: name, Addr: addr,
		})
	}
	s.mu.Unlock()

	if relisten {
		if err := s.listenNode(n, addr); err != nil {
			return err
		}
	}
	for _, ev := range evs {
		s.broker.Publish(ev)
	}
	for _, comp := range healthComponents {
		s.SetHealth(name, comp, "OK", "")
	}
	return nil
}

// PartitionNode cuts a fake node off the network without killing it:
// its listener closes so dials fail, but its directory records and
// health view stay — the asymmetry that distinguishes a partition from
// a crash. The directive behind FAULT PARTITION.
func (s *Sim) PartitionNode(name string) error {
	s.mu.Lock()
	n, ok := s.byName[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("protosim: unknown node %q", name)
	}
	if n.state != nodeLive {
		s.mu.Unlock()
		return fmt.Errorf("protosim: node %s is %s", name, n.state)
	}
	n.state = nodePartitioned
	srv := n.srv
	n.srv = nil
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	return nil
}

// HealNode reconnects a partitioned node — the directive behind
// FAULT HEAL.
func (s *Sim) HealNode(name string) error {
	s.mu.Lock()
	n, ok := s.byName[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("protosim: unknown node %q", name)
	}
	if n.state != nodePartitioned {
		s.mu.Unlock()
		return fmt.Errorf("protosim: node %s is %s", name, n.state)
	}
	n.state = nodeLive
	addr := n.addr
	relisten := n.listener
	s.mu.Unlock()
	if relisten {
		return s.listenNode(n, addr)
	}
	return nil
}
