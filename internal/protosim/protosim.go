// Package protosim is the protocol-faithful cluster simulator behind
// cmd/dosgi-sim: one process that speaks the complete documented wire
// protocol (docs/PROTOCOL.md) — dosgi.remote invocations, the
// dosgi.events verbs with replay windows and credit backpressure,
// dosgi.provision chunk transfer over synthetic content-addressed blobs,
// dosgi.metrics and dosgi.health — while faking an N-hundred-node
// cluster: a deterministic, seeded population of endpoint, artifact and
// health records, a configurable event storm, and scripted fault
// directives (kill or partition a fake node, drop pushes, roll the
// replay windows) so client failover paths are reachable on demand.
//
// Fidelity comes from reuse, not reimplementation: the simulator serves
// through the SAME remote.TCPServer, remote.Dispatcher, two
// remote.EventBrokers (dosgi.events + dosgi.health) and a real
// provision.Store that a dosgid daemon uses — only the populations
// behind them are synthetic. The admin line protocol dosgictl speaks is
// served beside the binary listener by the same internal/admin server
// and shared verb handlers, so every dosgictl verb that reads state
// (EXPORTS, CALL, SUBSCRIBE, REPO LIST, METRICS, HEALTH, ALERTS) works
// against a simulator unchanged.
//
// The same move vcsim made for vSphere: clients are developed and
// soak-tested against production-scale cluster state on a laptop, and
// the conformance suite (internal/conformance) runs against BOTH this
// simulator and a real dosgid to prove the two backends implement one
// spec.
package protosim

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"

	"dosgi/internal/admin"
	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/services"
)

// Config sizes and seeds the synthetic cluster. The zero value of every
// field selects a sensible default; the zero Config is a 200-node
// cluster.
type Config struct {
	// Seed drives every synthetic population: two simulators built from
	// the same Config are bit-for-bit identical (service names, artifact
	// digests, health records).
	Seed int64
	// Nodes is the fake cluster size (default 200).
	Nodes int
	// ServicesPerNode scales the endpoint population (default 4): the
	// simulator fabricates Nodes*ServicesPerNode/Replication distinct
	// services, each replicated on Replication consecutive nodes.
	ServicesPerNode int
	// Replication is the replica count per synthetic service (default 3).
	Replication int
	// Artifacts is the synthetic artifact count (default 12; negative
	// disables the provisioning population).
	Artifacts int
	// ArtifactChunk is the chunk size of synthetic artifacts (default
	// 4096 — small, so fetch tests exercise multi-chunk transfers).
	ArtifactChunk int64
	// ArtifactHolders is how many fake nodes hold each artifact
	// (default 3): artifact k lives on nodes k..k+H-1 (mod Nodes).
	ArtifactHolders int
	// NodeListeners gives the first N fake nodes a real TCP listener of
	// their own (default 0): those nodes answer dosgi.provision from
	// their own holdings only — a replica a fetcher can actually dial,
	// fail over from, and lose mid-transfer to a KILL directive.
	NodeListeners int
	// StormRate starts the event storm at this many events/second
	// (default off; adjustable live via SetStormRate or FAULT STORM).
	StormRate float64
	// ReplayWindow is the brokers' per-subscription replay ring depth
	// (default remote.DefaultReplayWindow).
	ReplayWindow int
	// AdminAddr/RemoteAddr are the listen addresses (default ephemeral
	// loopback ports).
	AdminAddr  string
	RemoteAddr string
}

// fill applies defaults in place.
func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 200
	}
	if c.ServicesPerNode <= 0 {
		c.ServicesPerNode = 4
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.Replication > c.Nodes {
		c.Replication = c.Nodes
	}
	if c.Artifacts == 0 {
		c.Artifacts = 12
	}
	if c.Artifacts < 0 {
		c.Artifacts = 0
	}
	if c.ArtifactChunk <= 0 {
		c.ArtifactChunk = 4096
	}
	if c.ArtifactHolders <= 0 {
		c.ArtifactHolders = 3
	}
	if c.ArtifactHolders > c.Nodes {
		c.ArtifactHolders = c.Nodes
	}
	if c.NodeListeners < 0 {
		c.NodeListeners = 0
	}
	if c.NodeListeners > c.Nodes {
		c.NodeListeners = c.Nodes
	}
	if c.ReplayWindow <= 0 {
		c.ReplayWindow = remote.DefaultReplayWindow
	}
	if c.AdminAddr == "" {
		c.AdminAddr = "127.0.0.1:0"
	}
	if c.RemoteAddr == "" {
		c.RemoteAddr = "127.0.0.1:0"
	}
}

// nodeState is a fake node's lifecycle state.
type nodeState int

const (
	nodeLive nodeState = iota
	nodeDead
	nodePartitioned
)

func (st nodeState) String() string {
	switch st {
	case nodeDead:
		return "dead"
	case nodePartitioned:
		return "partitioned"
	default:
		return "live"
	}
}

// simNode is one fake cluster member. Nodes with a real listener carry
// their listener's address; the rest carry a synthetic TEST-NET address
// that deliberately does not answer — like most of a real 200-node
// cluster seen from one client, they exist only as directory records.
type simNode struct {
	name     string
	addr     string
	state    nodeState
	listener bool
	srv      *remote.TCPServer
	services []string // sorted synthetic service names exported here
	digests  []string // artifact digests held here
}

// Sim is one running simulator: a binary remote-protocol listener, an
// admin line-protocol listener, and the synthetic populations behind
// them. Safe for concurrent use; Close is idempotent.
type Sim struct {
	cfg   Config
	sched *clock.Real

	plane     *obs.Plane
	metrics   *services.MetricsService
	metricsRd *services.MetricsRemote

	broker *remote.EventBroker
	health *admin.HealthView // the synthetic fleet's records + the dosgi.health broker
	faults *faultInjector
	store  *provision.Store

	remoteSrv  *remote.TCPServer
	remoteAddr string
	adminLn    net.Listener
	admin      *admin.Server

	transport *remote.TCPTransport
	pool      *remote.Pool
	invoker   *remote.Invoker

	mu           sync.Mutex
	closed       bool
	nodes        []*simNode
	byName       map[string]*simNode
	serviceNames []string                       // sorted
	endpoints    map[string]map[string]struct{} // service → live holder node names
	arts         []provision.Artifact
	rng          *rand.Rand
	stormRate    float64
	stormCarry   float64
	stormTimer   clock.Timer
	chunkGate    func(node, digest string, index int64) bool
}

// New builds the populations, starts every listener and returns the
// running simulator.
func New(cfg Config) (*Sim, error) {
	cfg.fill()
	s := &Sim{
		cfg:       cfg,
		sched:     clock.NewReal(),
		store:     provision.NewStore(),
		byName:    make(map[string]*simNode),
		endpoints: make(map[string]map[string]struct{}),
		faults:    newFaultInjector(),
	}
	s.plane = obs.NewPlane("sim", s.sched.Now)
	s.metrics = services.NewMetricsService()
	s.metricsRd = services.NewMetricsRemote(s.metrics, s.plane.Tracer.Store())

	// Both brokers share the replay window; the health one exists before
	// the population is built because the population's health records
	// are folded into its view.
	s.health = admin.NewHealthView(s.sched, remote.WithReplayWindow(cfg.ReplayWindow))
	s.broker = remote.NewEventBroker(s.sched,
		remote.WithReplayWindow(cfg.ReplayWindow),
		remote.WithEventSnapshot(s.endpointSnapshot),
		remote.WithBrokerAckHistogram(s.plane.EventAckLag))
	if err := s.buildPopulation(); err != nil {
		s.sched.Stop()
		return nil, err
	}

	remoteLn, err := net.Listen("tcp", cfg.RemoteAddr)
	if err != nil {
		s.sched.Stop()
		return nil, err
	}
	s.remoteAddr = remoteLn.Addr().String()
	s.remoteSrv = remote.ServeTCP(remoteLn, s.handlerFor(nil),
		remote.WithTCPServerClock(s.sched.Now))

	// Per-node listeners: the first NodeListeners fake nodes become
	// individually dialable replicas with their own provisioning view.
	for i := 0; i < cfg.NodeListeners; i++ {
		n := s.nodes[i]
		n.listener = true
		if err := s.listenNode(n, "127.0.0.1:0"); err != nil {
			s.Close()
			return nil, err
		}
	}

	s.registerProviders()

	s.transport = remote.NewTCPTransport(s.sched, remote.WithTCPFrameHistogram(s.plane.FrameRTT))
	s.pool = remote.NewPool(s.transport, remote.WithPoolObserver(s.sched.Now, s.plane.PoolWait))
	s.invoker = remote.NewInvoker(s.pool, &simResolver{s: s},
		remote.WithOrderedResolution(),
		remote.WithInvokerObservability(s.plane.Tracer, s.plane.InvokerCall))

	adminLn, err := net.Listen("tcp", cfg.AdminAddr)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.adminLn = adminLn
	shared := &admin.Backend{
		Invoker: s.invoker, Transport: s.transport, Sched: s.sched, Self: s.remoteAddr,
		Exports: s.exportNames,
		Metrics: s.metricsRd, Tracer: s.plane.Tracer,
		Health: s.health,
	}
	s.admin = admin.NewServer(s.verbs(), shared.Verbs())
	go func() { _ = s.admin.Serve(adminLn) }() // returns when Close closes the listener

	if cfg.StormRate > 0 {
		s.SetStormRate(cfg.StormRate)
	}
	return s, nil
}

// handlerFor builds a node's full server handler chain: fault-injecting
// pusher wrapper over the event dispatcher over the invocation
// dispatcher. node nil means the cluster-wide primary listener.
func (s *Sim) handlerFor(node *simNode) remote.Handler {
	nodeName := ""
	if node != nil {
		nodeName = node.name
	}
	disp := remote.NewDispatcher(&simSource{s: s, node: nodeName},
		remote.WithDispatcherTracer(s.plane.Tracer))
	return &faultHandler{
		inner:  remote.NewEventDispatcher(disp, s.broker, s.health.Broker()),
		faults: s.faults,
	}
}

// listenNode (re)opens a fake node's own listener on addr and records
// the bound address as the node's directory address.
func (s *Sim) listenNode(n *simNode, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("protosim: node %s listener: %w", n.name, err)
	}
	s.mu.Lock()
	n.addr = ln.Addr().String()
	n.srv = remote.ServeTCP(ln, s.handlerFor(n), remote.WithTCPServerClock(s.sched.Now))
	s.mu.Unlock()
	return nil
}

// liveCountsLocked counts the live nodes and the live endpoint records —
// what STATUS and sim:cluster both report. Callers hold s.mu.
func (s *Sim) liveCountsLocked() (live, endpoints int) {
	for _, n := range s.nodes {
		if n.state == nodeLive {
			live++
		}
	}
	for _, holders := range s.endpoints {
		endpoints += len(holders)
	}
	return live, endpoints
}

// registerProviders wires the simulator's metrics providers.
func (s *Sim) registerProviders() {
	s.metrics.RegisterProvider("obs:self", s.plane.Provider())
	s.metrics.RegisterProvider("sim:cluster", func() map[string]any {
		s.mu.Lock()
		defer s.mu.Unlock()
		live, eps := s.liveCountsLocked()
		return map[string]any{
			"nodes": len(s.nodes), "live": live,
			"services": len(s.serviceNames), "endpoints": eps,
			"artifacts":     len(s.arts),
			"stormRate":     s.stormRate,
			"droppedPushes": s.faults.droppedCount(),
		}
	})
	s.metrics.RegisterProvider("events:sim", s.broker.Provider())
	s.metrics.RegisterProvider("health:sim", s.health.Broker().Provider())
}

// AdminAddr returns the admin line-protocol address (what dosgictl
// -addr takes).
func (s *Sim) AdminAddr() string { return s.adminLn.Addr().String() }

// RemoteAddr returns the binary remote-protocol address of the primary
// (cluster-wide) listener.
func (s *Sim) RemoteAddr() string { return s.remoteAddr }

// Sched exposes the simulator's scheduler (tests share it with client
// transports).
func (s *Sim) Sched() clock.Scheduler { return s.sched }

// NodeAddr returns a fake node's directory address — a real listener
// address for the first Config.NodeListeners nodes, a synthetic
// TEST-NET address for the rest.
func (s *Sim) NodeAddr(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byName[name]
	if !ok {
		return "", false
	}
	return n.addr, true
}

// NodeNames lists every fake node name in order.
func (s *Sim) NodeNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.name
	}
	return out
}

// ServiceNames lists the synthetic service population, sorted.
func (s *Sim) ServiceNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.serviceNames...)
}

// Artifacts lists the synthetic artifact metadata in creation order.
func (s *Sim) Artifacts() []provision.Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]provision.Artifact(nil), s.arts...)
}

// ArtifactHolders names the fake nodes holding digest, sorted.
func (s *Sim) ArtifactHolders(digest string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, n := range s.nodes {
		if n.state == nodeDead {
			continue
		}
		for _, d := range n.digests {
			if d == digest {
				out = append(out, n.name)
				break
			}
		}
	}
	return out
}

// EndpointCount returns the size of the current event-resync snapshot:
// the simulator's own exports plus every live synthetic endpoint — the
// replica count a converged subscriber knows.
func (s *Sim) EndpointCount() int {
	return len(s.endpointSnapshot())
}

// BrokerStats returns the dosgi.events broker's delivery counters.
func (s *Sim) BrokerStats() remote.EventBrokerStats { return s.broker.Stats() }

// SetChunkGate installs a hook consulted before every dosgi.provision
// Chunk the simulator serves (any listener). Returning false makes that
// node answer an application error — the scripted mid-transfer fault
// that forces a fetcher failover at an exact chunk index. nil removes
// the gate.
func (s *Sim) SetChunkGate(fn func(node, digest string, index int64) bool) {
	s.mu.Lock()
	s.chunkGate = fn
	s.mu.Unlock()
}

// Close stops every listener, the storm and the scheduler.
func (s *Sim) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.stormTimer != nil {
		s.stormTimer.Cancel()
		s.stormTimer = nil
	}
	var srvs []*remote.TCPServer
	for _, n := range s.nodes {
		if n.srv != nil {
			srvs = append(srvs, n.srv)
			n.srv = nil
		}
	}
	s.mu.Unlock()

	if s.adminLn != nil {
		_ = s.adminLn.Close()
		s.admin.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	for _, srv := range srvs {
		srv.Close()
	}
	if s.remoteSrv != nil {
		s.remoteSrv.Close()
	}
	s.sched.Stop()
}

// endpointSnapshot feeds the events broker's resync: the simulator's
// own exports first, then every live synthetic endpoint, in
// deterministic order.
func (s *Sim) endpointSnapshot() []remote.ServiceEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := []remote.ServiceEvent{
		{Service: "echo", Node: "sim", Addr: s.remoteAddr},
		{Service: services.MetricsRemoteName, Node: "sim", Addr: s.remoteAddr},
		{Service: provision.ServiceName, Node: "sim", Addr: s.remoteAddr},
	}
	for _, svc := range s.serviceNames {
		holders := s.endpoints[svc]
		names := make([]string, 0, len(holders))
		for name := range holders {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			evs = append(evs, remote.ServiceEvent{
				Service: svc, Node: name, Addr: s.byName[name].addr,
			})
		}
	}
	return evs
}

// lookupServiceLocked reports whether name is currently served (the
// simulator's own exports or a synthetic service with a live replica).
func (s *Sim) lookupServiceLocked(name string) bool {
	switch name {
	case "echo", services.MetricsRemoteName, provision.ServiceName:
		return true
	}
	return len(s.endpoints[name]) > 0
}

// simSource resolves the services a listener serves. Synthetic
// endpoint services all dispatch to the echo implementation — the
// simulator fakes their existence, not their business logic — while
// the reserved planes are the real implementations over synthetic
// state. node selects a per-node provisioning view ("" = union).
type simSource struct {
	s    *Sim
	node string
}

// Lookup implements remote.ServiceSource.
func (src *simSource) Lookup(name string) (any, bool) {
	switch name {
	case "echo":
		return services.Echo{}, true
	case services.MetricsRemoteName:
		return src.s.metricsRd, true
	case provision.ServiceName:
		return &repoView{s: src.s, node: src.node}, true
	}
	src.s.mu.Lock()
	defer src.s.mu.Unlock()
	if len(src.s.endpoints[name]) > 0 {
		return services.Echo{}, true
	}
	return nil, false
}

// simResolver resolves admin CALLs: every service the simulator serves
// resolves to the primary listener.
type simResolver struct{ s *Sim }

// Endpoints implements remote.EndpointResolver.
func (r *simResolver) Endpoints(service string) []remote.Endpoint {
	r.s.mu.Lock()
	ok := r.s.lookupServiceLocked(service)
	r.s.mu.Unlock()
	if !ok {
		return nil
	}
	return []remote.Endpoint{{Node: "sim", Addr: r.s.remoteAddr}}
}
