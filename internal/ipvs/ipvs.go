// Package ipvs reconstructs the fault-tolerant IP virtual server of the
// paper's Figure 6: a director owns a virtual IP, schedules inbound
// requests across real servers (round-robin, weighted round-robin,
// least-connections or source-hash), health-checks the backends, and an
// active/backup director pair performs VIP takeover on failure. "The ipvs
// will be responsible to ensure the availability of the IP address to the
// Internet and redirect the service requests to the node currently running
// the service … this setting allows also to scale-up the services" (§3.2).
//
// Forwarding uses direct-routing semantics: the director re-sends the
// request to the chosen backend preserving the client source address, so
// the backend replies straight to the client and needs no ipvs awareness.
package ipvs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/netsim"
)

// SchedulerKind selects the backend scheduling discipline.
type SchedulerKind int

// Scheduling disciplines.
const (
	RoundRobin SchedulerKind = iota + 1
	WeightedRoundRobin
	LeastConnections
	SourceHash
)

func (k SchedulerKind) String() string {
	switch k {
	case RoundRobin:
		return "rr"
	case WeightedRoundRobin:
		return "wrr"
	case LeastConnections:
		return "lc"
	case SourceHash:
		return "sh"
	}
	return "unknown"
}

// Probe is the health-check request the director sends to backends; any
// cooperating service answers with ProbeReply to Probe.ReplyTo.
type Probe struct {
	ReplyTo netsim.Addr
	Seq     int64
}

// ProbeReply answers a Probe.
type ProbeReply struct {
	Seq int64
}

// ErrNoBackends is recorded when a request arrives with no healthy server.
var ErrNoBackends = errors.New("ipvs: no healthy backends")

// Stats counts director activity.
type Stats struct {
	Forwarded int64
	NoBackend int64
	PerServer map[string]int64
}

// ServerInfo describes one real server.
type ServerInfo struct {
	Addr        netsim.Addr
	Weight      int
	Healthy     bool
	ActiveConns int
	Served      int64
}

type realServer struct {
	addr      netsim.Addr
	weight    int
	healthy   bool
	active    int
	served    int64
	current   int // smooth-WRR accumulator
	fails     int
	oks       int
	probeSeq  int64
	lastOKSeq int64
}

// Health checking: every healthEvery the director probes each backend;
// a probe unanswered after healthTimeout is a failure, failAfter
// consecutive failures mark the backend down and riseAfter consecutive
// answers mark it up again.
const (
	healthEvery   = 100 * time.Millisecond
	healthTimeout = healthEvery / 2
	failAfter     = 2
	riseAfter     = 2
)

// Option configures a VirtualServer.
type Option func(*VirtualServer)

// WithConnTTL sets how long a forwarded request counts as an active
// connection for least-connections scheduling (default 100ms).
func WithConnTTL(d time.Duration) Option {
	return func(v *VirtualServer) { v.connTTL = d }
}

// VirtualServer is an ipvs director instance on one node.
type VirtualServer struct {
	sched  clock.Scheduler
	net    *netsim.Network
	nodeID string
	vip    netsim.Addr
	admin  netsim.Addr // health-probe reply endpoint
	kind   SchedulerKind

	mu          sync.Mutex
	servers     []*realServer
	rrIndex     int
	running     bool
	connTTL     time.Duration
	healthTimer clock.Timer
	stats       Stats
}

// New builds a director for vip on nodeID. The node must already own the
// VIP (or acquire it via takeover) before Start can bind.
func New(sched clock.Scheduler, net *netsim.Network, nodeID string, vip netsim.Addr, kind SchedulerKind, opts ...Option) *VirtualServer {
	v := &VirtualServer{
		sched:   sched,
		net:     net,
		nodeID:  nodeID,
		vip:     vip,
		admin:   netsim.Addr{IP: netsim.IPAny, Port: vip.Port + 10000},
		kind:    kind,
		connTTL: 100 * time.Millisecond,
	}
	v.stats.PerServer = make(map[string]int64)
	for _, opt := range opts {
		opt(v)
	}
	return v
}

// VIP returns the virtual address.
func (v *VirtualServer) VIP() netsim.Addr { return v.vip }

// NodeID returns the hosting node.
func (v *VirtualServer) NodeID() string { return v.nodeID }

// AddServer registers a real server with the given weight (>=1).
func (v *VirtualServer) AddServer(addr netsim.Addr, weight int) {
	if weight < 1 {
		weight = 1
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.servers {
		if s.addr == addr {
			s.weight = weight
			return
		}
	}
	v.servers = append(v.servers, &realServer{addr: addr, weight: weight, healthy: true})
}

// Servers lists backend states sorted by address.
func (v *VirtualServer) Servers() []ServerInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]ServerInfo, 0, len(v.servers))
	for _, s := range v.servers {
		out = append(out, ServerInfo{
			Addr: s.addr, Weight: s.weight, Healthy: s.healthy,
			ActiveConns: s.active, Served: s.served,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.String() < out[j].Addr.String() })
	return out
}

// Start binds the VIP and begins forwarding and health checking.
func (v *VirtualServer) Start() error {
	nic, ok := v.net.NIC(v.nodeID)
	if !ok {
		return fmt.Errorf("ipvs: node %q not attached", v.nodeID)
	}
	if err := nic.Listen(v.vip, v.handleRequest); err != nil {
		return err
	}
	if err := nic.Listen(v.admin, v.handleAdmin); err != nil {
		nic.Close(v.vip)
		return err
	}
	v.mu.Lock()
	v.running = true
	v.healthTimer = v.sched.Every(healthEvery, v.probeAll)
	v.mu.Unlock()
	return nil
}

// Stop unbinds and halts health checking.
func (v *VirtualServer) Stop() {
	v.mu.Lock()
	v.running = false
	if v.healthTimer != nil {
		v.healthTimer.Cancel()
		v.healthTimer = nil
	}
	v.mu.Unlock()
	if nic, ok := v.net.NIC(v.nodeID); ok {
		nic.Close(v.vip)
		nic.Close(v.admin)
	}
}

// Stats returns a copy of the counters.
func (v *VirtualServer) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := Stats{Forwarded: v.stats.Forwarded, NoBackend: v.stats.NoBackend, PerServer: make(map[string]int64)}
	for k, n := range v.stats.PerServer {
		out.PerServer[k] = n
	}
	return out
}

// handleRequest schedules and forwards one inbound request.
func (v *VirtualServer) handleRequest(msg netsim.Message) {
	v.mu.Lock()
	if !v.running {
		v.mu.Unlock()
		return
	}
	s := v.pick(msg.From)
	if s == nil {
		v.stats.NoBackend++
		v.mu.Unlock()
		return
	}
	s.active++
	s.served++
	v.stats.Forwarded++
	v.stats.PerServer[s.addr.String()]++
	target := s.addr
	ttl := v.connTTL
	v.mu.Unlock()

	// Direct routing: preserve the client's source address so the backend
	// replies straight to the client.
	if nic, ok := v.net.NIC(v.nodeID); ok {
		_ = nic.Send(msg.From, target, msg.Payload, 256)
	}
	v.sched.After(ttl, func() {
		v.mu.Lock()
		if s.active > 0 {
			s.active--
		}
		v.mu.Unlock()
	})
}

// pick selects a healthy backend per the configured discipline. Callers
// hold v.mu.
func (v *VirtualServer) pick(client netsim.Addr) *realServer {
	var healthy []*realServer
	for _, s := range v.servers {
		if s.healthy {
			healthy = append(healthy, s)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	switch v.kind {
	case WeightedRoundRobin:
		// Smooth weighted round-robin (nginx algorithm).
		total := 0
		var best *realServer
		for _, s := range healthy {
			s.current += s.weight
			total += s.weight
			if best == nil || s.current > best.current {
				best = s
			}
		}
		best.current -= total
		return best
	case LeastConnections:
		best := healthy[0]
		for _, s := range healthy[1:] {
			if s.active < best.active {
				best = s
			}
		}
		return best
	case SourceHash:
		h := fnv.New32a()
		_, _ = h.Write([]byte(client.IP))
		return healthy[int(h.Sum32())%len(healthy)]
	default: // RoundRobin
		v.rrIndex++
		return healthy[v.rrIndex%len(healthy)]
	}
}

// probeAll sends a health probe to every backend and arms per-probe
// timeouts.
func (v *VirtualServer) probeAll() {
	v.mu.Lock()
	if !v.running {
		v.mu.Unlock()
		return
	}
	nic, ok := v.net.NIC(v.nodeID)
	if !ok {
		v.mu.Unlock()
		return
	}
	type probeTarget struct {
		s   *realServer
		seq int64
	}
	var targets []probeTarget
	replyTo := v.admin
	if ips := nic.OwnedIPs(); len(ips) > 0 {
		replyTo = netsim.Addr{IP: ips[0], Port: v.admin.Port}
	}
	for _, s := range v.servers {
		s.probeSeq++
		targets = append(targets, probeTarget{s: s, seq: s.probeSeq})
	}
	v.mu.Unlock()

	for _, tg := range targets {
		s, seq := tg.s, tg.seq
		_ = nic.Send(replyTo, s.addr, Probe{ReplyTo: replyTo, Seq: seq}, 64)
		v.sched.After(healthTimeout, func() {
			v.mu.Lock()
			defer v.mu.Unlock()
			// If probeSeq advanced past seq with an OK, the reply landed.
			if s.lastOKSeq >= seq {
				return
			}
			s.fails++
			s.oks = 0
			if s.healthy && s.fails >= failAfter {
				s.healthy = false
			}
		})
	}
}

// handleAdmin consumes probe replies from backends and answers liveness
// probes from a backup director.
func (v *VirtualServer) handleAdmin(msg netsim.Message) {
	if probe, isProbe := msg.Payload.(Probe); isProbe {
		v.mu.Lock()
		running := v.running
		v.mu.Unlock()
		if !running {
			return
		}
		if nic, ok := v.net.NIC(v.nodeID); ok {
			_ = nic.Send(netsim.Addr{IP: v.vip.IP, Port: v.admin.Port}, probe.ReplyTo, ProbeReply{Seq: probe.Seq}, 64)
		}
		return
	}
	reply, ok := msg.Payload.(ProbeReply)
	if !ok {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.servers {
		if s.addr.IP == msg.From.IP && s.addr.Port == msg.From.Port {
			if reply.Seq > s.lastOKSeq {
				s.lastOKSeq = reply.Seq
			}
			s.fails = 0
			s.oks++
			if !s.healthy && s.oks >= riseAfter {
				s.healthy = true
			}
			return
		}
	}
}
