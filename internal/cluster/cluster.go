package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/monitor"
	"dosgi/internal/netsim"
	"dosgi/internal/obs"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/san"
	"dosgi/internal/security"
	"dosgi/internal/services"
	"dosgi/internal/sim"
	"dosgi/internal/sla"
	"dosgi/internal/vjvm"
)

// Base-service bundle locations installed into every host framework.
const (
	LogBundleLocation     = "base:log"
	MetricsBundleLocation = "base:metrics"
)

// The simulated datacenter's fixed costs: one-way latency of the network
// fabric and access latency of the shared SAN.
const (
	networkLatency = 500 * time.Microsecond
	sanLatency     = 200 * time.Microsecond
)

// replicationFactor is how many nodes proactively hold a copy of every
// published artifact; on-demand fetches add more.
const replicationFactor = 2

// Option configures a Cluster.
type Option func(*Cluster)

// WithGCSTimeouts tunes the failure detector of every node added later.
func WithGCSTimeouts(heartbeat, failTimeout time.Duration) Option {
	return func(c *Cluster) {
		c.gcsHeartbeat = heartbeat
		c.gcsFailTimeout = failTimeout
	}
}

// WithProvisionKeyring replaces the artifact-signing keyring (default:
// the built-in development keyring).
func WithProvisionKeyring(k provision.Keyring) Option {
	return func(c *Cluster) { c.provKeyring = k }
}

// WithProvisionPolicy installs the security policy gating which signer
// subjects may deploy artifacts (default: allow everything, the stance of
// a cluster with no SecurityManager configured).
func WithProvisionPolicy(p *security.Policy) Option {
	return func(c *Cluster) { c.provPolicy = p }
}

// WithDirectoryShards partitions the replicated directory's record
// engine (endpoints, artifacts, health) into n rendezvous-hashed
// shards on every node added later. Each shard runs its own GCS group
// — own coordinator, epoch log, view and anti-entropy timer — with
// shard-group member ids ranked (gcs.RankedID) so coordinators spread
// across nodes and per-node sequencing load scales sub-linearly in
// record count. n <= 1 keeps the single-group layout (the default).
func WithDirectoryShards(n int) Option {
	return func(c *Cluster) {
		if n > 1 {
			c.dirShards = n
		}
	}
}

// WithGCSMaxTotalLog overrides every member's retransmission-log cap
// (the MaxTotalLog forced-view-change alarm). Negative disables the
// cap — the directory-scale experiments announce record bursts far
// larger than any heartbeat-ack window and must not trip the
// slow-member alarm while doing so.
func WithGCSMaxTotalLog(n int) Option {
	return func(c *Cluster) { c.gcsMaxTotalLog = n }
}

// WithDirectoryResyncEvery sets the replicated directory's anti-entropy
// period on every node added later: how often each node re-broadcasts
// its authoritative endpoint and artifact-holding sets so records lost
// to blips too short for a view change still converge (default:
// migrate.DefaultResyncEvery). Negative disables periodic resync. The
// provisioning layer's periodic replication recheck follows the same
// period.
func WithDirectoryResyncEvery(d time.Duration) Option {
	return func(c *Cluster) {
		c.dirResyncEvery = d
		if d != 0 { // negative disables the recheck timer too
			c.provRecheckEvery = d
		}
	}
}

// Cluster is a simulated datacenter running the distributed OSGi platform.
type Cluster struct {
	eng   *sim.Engine
	net   *netsim.Network
	store *san.Store
	gdir  *gcs.Directory
	defs  *module.DefinitionRegistry

	gcsHeartbeat   time.Duration
	gcsFailTimeout time.Duration
	gcsMaxTotalLog int

	// dirShards is the directory shard count (0/1 = single group);
	// shardDirs holds one group address book per shard.
	dirShards int
	shardDirs []*gcs.Directory

	provKeyring provision.Keyring
	provPolicy  *security.Policy

	dirResyncEvery   time.Duration
	provRecheckEvery time.Duration

	mu         sync.Mutex
	nodes      map[string]*Node
	tracker    *sla.Tracker
	agreements map[core.InstanceID]sla.Agreement
	metrics    *services.MetricsService
}

// New builds an empty cluster with a deterministic seed.
func New(seed int64, opts ...Option) *Cluster {
	c := &Cluster{
		nodes:            make(map[string]*Node),
		tracker:          sla.NewTracker(),
		agreements:       make(map[core.InstanceID]sla.Agreement),
		gdir:             gcs.NewDirectory(),
		defs:             module.NewDefinitionRegistry(),
		metrics:          services.NewMetricsService(),
		provKeyring:      provision.SampleKeyring(),
		provRecheckEvery: migrate.DefaultResyncEvery,
	}
	for _, opt := range opts {
		opt(c)
	}
	for i := 0; i < c.dirShards; i++ {
		c.shardDirs = append(c.shardDirs, gcs.NewDirectory())
	}
	c.eng = sim.New(seed)
	c.net = netsim.NewNetwork(c.eng, netsim.WithLatency(networkLatency))
	c.store = san.NewStore(c.eng, san.WithAccessLatency(sanLatency))
	return c
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Network returns the simulated fabric.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Store returns the shared SAN.
func (c *Cluster) Store() *san.Store { return c.store }

// Definitions returns the shared bundle repository.
func (c *Cluster) Definitions() *module.DefinitionRegistry { return c.defs }

// Tracker returns the SLA tracker observing every instance.
func (c *Cluster) Tracker() *sla.Tracker { return c.tracker }

// Metrics returns the cluster-wide metrics registry.
func (c *Cluster) Metrics() *services.MetricsService { return c.metrics }

// Settle advances the simulation by d.
func (c *Cluster) Settle(d time.Duration) { c.eng.RunFor(d) }

// Now returns virtual time.
func (c *Cluster) Now() time.Duration { return c.eng.Now() }

// AddNode provisions, boots and joins a node.
func (c *Cluster) AddNode(cfg NodeConfig) (*Node, error) {
	cfg.applyDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: node without id")
	}
	c.mu.Lock()
	if _, dup := c.nodes[cfg.ID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %s already exists", cfg.ID)
	}
	c.mu.Unlock()

	n := &Node{
		cluster:  c,
		cfg:      cfg,
		httpSvcs: make(map[core.InstanceID][]*services.HTTPService),
		instExp:  remote.NewExporterSet(),
		powered:  true,
	}
	n.nic = c.net.AttachNode(cfg.ID)
	n.nic.SetUp(true)
	if err := c.net.AssignIP(cfg.IP, cfg.ID); err != nil {
		return nil, err
	}
	n.vm = vjvm.New(c.eng,
		vjvm.WithCapacity(cfg.CPUCapacity),
		vjvm.WithMemoryCapacity(cfg.MemoryBytes),
	)

	// Host framework with the shared base services (Figure 4's pulled-down
	// bundles). Each node overlays the shared base registry with its own
	// layer, where provisioned artifacts land — a bundle fetched onto one
	// node does not magically exist on the others.
	c.ensureBaseDefinitions()
	n.defs = module.NewLayeredDefinitionRegistry(c.defs)
	n.host = module.New(module.WithName(cfg.ID), module.WithDefinitions(n.defs))
	if err := n.host.Start(); err != nil {
		return nil, err
	}
	for _, loc := range []string{LogBundleLocation, MetricsBundleLocation} {
		b, err := n.host.InstallBundle(loc)
		if err != nil {
			return nil, err
		}
		if err := b.Start(); err != nil {
			return nil, err
		}
	}
	if ref, ok := n.host.SystemContext().ServiceReference(services.LogServiceClass); ok {
		if svc, err := n.host.SystemContext().GetService(ref); err == nil {
			n.logSvc = svc.(*services.LogService)
		}
	}

	n.manager = core.NewManager(n.host, n.hooks())
	member, err := gcs.NewMember(c.eng, gcs.Config{
		NodeID:            cfg.ID,
		Addr:              netsim.Addr{IP: cfg.IP, Port: GCSPort},
		NIC:               n.nic,
		Directory:         c.gdir,
		HeartbeatInterval: c.gcsHeartbeat,
		FailTimeout:       c.gcsFailTimeout,
		MaxTotalLog:       c.gcsMaxTotalLog,
	})
	if err != nil {
		return nil, err
	}
	n.member = member
	// One extra group member per directory shard, each on its own port
	// with its own address book, joined under a ranked id so each shard
	// group elects a different coordinator (rendezvous placement of the
	// sequencer — the per-node broadcast-volume win of sharding).
	for s := 0; s < c.dirShards; s++ {
		sm, err := gcs.NewMember(c.eng, gcs.Config{
			NodeID:            gcs.RankedID(shardGroupName(s), cfg.ID),
			Addr:              netsim.Addr{IP: cfg.IP, Port: uint16(ShardGCSPort + s)},
			NIC:               n.nic,
			Directory:         c.shardDirs[s],
			HeartbeatInterval: c.gcsHeartbeat,
			FailTimeout:       c.gcsFailTimeout,
			MaxTotalLog:       c.gcsMaxTotalLog,
		})
		if err != nil {
			return nil, err
		}
		n.shardMembers = append(n.shardMembers, sm)
	}
	mod, err := migrate.NewModule(migrate.Config{
		NodeID:       cfg.ID,
		Sched:        c.eng,
		Member:       member,
		Store:        c.store,
		Manager:      n.manager,
		CPUCapacity:  int64(cfg.CPUCapacity),
		MemCapacity:  cfg.MemoryBytes,
		Mode:         cfg.PlacementMode,
		ResyncEvery:  c.dirResyncEvery,
		Shards:       c.dirShards,
		ShardMembers: n.shardMembers,
		// Failover to an artifact-less node transparently fetches first:
		// restores wait until every bundle location the checkpoint needs
		// is installable here.
		EnsureBundles: func(locations []string, done func(error)) {
			n.ensureBundleLocations(locations, done)
		},
	})
	if err != nil {
		return nil, err
	}
	n.mod = mod
	n.mon = monitor.New(c.eng, n.vm)

	// Remote services must wire up before the member starts so the
	// view-change hook (connection pruning) misses nothing.
	if err := n.setupRemote(); err != nil {
		return nil, err
	}

	// SLA availability accounting across the instance lifecycle.
	n.manager.OnEvent(func(ev core.Event) {
		id := string(ev.Instance.ID())
		switch ev.Type {
		case core.EventStarted:
			c.tracker.MarkBorn(id, c.eng.Now())
			c.tracker.MarkUp(id, c.eng.Now())
		case core.EventStopped, core.EventDestroyed:
			c.tracker.MarkDown(id, c.eng.Now())
		}
	})

	if err := mod.Start(); err != nil {
		return nil, err
	}
	// Provisioning hooks register after the migration module's so its
	// replication duty check sees the directory already pruned and
	// resynced, and before the member starts so no change is missed.
	n.setupProvision()
	if err := member.Start(); err != nil {
		return nil, err
	}
	for _, sm := range n.shardMembers {
		if err := sm.Start(); err != nil {
			return nil, err
		}
	}
	n.mon.Start()
	c.metrics.RegisterProvider("node:"+cfg.ID, c.nodeProvider(n))
	c.metrics.RegisterProvider("directory:"+cfg.ID, directoryProvider(mod))
	c.metrics.RegisterProvider("monitor:"+cfg.ID, n.mon.Provider())
	c.metrics.RegisterProvider("health:"+cfg.ID, n.healthEval.Provider())

	c.mu.Lock()
	c.nodes[cfg.ID] = n
	c.mu.Unlock()
	return n, nil
}

func (c *Cluster) ensureBaseDefinitions() {
	if _, ok := c.defs.Get(LogBundleLocation); !ok {
		c.defs.MustAdd(LogBundleLocation, services.LogBundleDefinition(c.eng))
	}
	if _, ok := c.defs.Get(MetricsBundleLocation); !ok {
		c.defs.MustAdd(MetricsBundleLocation, services.MetricsBundleDefinition(c.metrics))
	}
}

// directoryProvider exposes the unified replicated directory's
// per-family counters: wire messages applied, exact deltas emitted,
// silent (converged) resyncs, dead-holder prunes and filtered mutations
// — one attribute set per record family, prefixed with the family name.
func directoryProvider(mod *migrate.Module) func() map[string]any {
	return func() map[string]any {
		out := make(map[string]any, 28)
		for prefix, st := range mod.DirectoryStats() {
			out[prefix+"Puts"] = st.Puts
			out[prefix+"Removes"] = st.Removes
			out[prefix+"Syncs"] = st.Syncs
			out[prefix+"Added"] = st.Added
			out[prefix+"Updated"] = st.Updated
			out[prefix+"Removed"] = st.Removed
			out[prefix+"SilentSyncs"] = st.SilentSyncs
			out[prefix+"Pruned"] = st.Pruned
			out[prefix+"Filtered"] = st.Filtered
		}
		out["shards"] = int64(mod.ShardCount())
		return out
	}
}

func (c *Cluster) nodeProvider(n *Node) func() map[string]any {
	return func() map[string]any {
		cpuUsed, cpuTotal, memUsed, memTotal := n.mon.NodeUsage()
		gst := n.directoryGCSStats()
		return map[string]any{
			"powered":      n.Powered(),
			"cpuUsed":      int64(cpuUsed),
			"cpuTotal":     int64(cpuTotal),
			"memUsed":      memUsed,
			"memTotal":     memTotal,
			"tenants":      len(n.Instances()),
			"dirMsgsSent":  gst.MsgsSent,
			"dirMsgsRecv":  gst.MsgsReceived,
			"gcsTotalLog":  int64(gst.TotalLogSize),
			"gcsDedupHeld": int64(gst.DedupHeld),
		}
	}
}

// Node returns a node by id.
func (c *Cluster) Node(id string) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes returns every node sorted by id (including powered-off ones).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.ID < out[j].cfg.ID })
	return out
}

// PoweredNodes returns the ids of powered-on nodes.
func (c *Cluster) PoweredNodes() []string {
	var out []string
	for _, n := range c.Nodes() {
		if n.Powered() {
			out = append(out, n.ID())
		}
	}
	return out
}

// SetAgreement records an SLA for an instance.
func (c *Cluster) SetAgreement(id core.InstanceID, agr sla.Agreement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.agreements[id] = agr
}

// Agreement returns the SLA of an instance.
func (c *Cluster) Agreement(id core.InstanceID) (sla.Agreement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agr, ok := c.agreements[id]
	return agr, ok
}

// Deploy creates and starts an instance on the named node.
func (c *Cluster) Deploy(nodeID string, desc core.Descriptor) error {
	n, ok := c.Node(nodeID)
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", nodeID)
	}
	if _, err := n.manager.Create(desc); err != nil {
		return err
	}
	return n.manager.Start(desc.ID)
}

// FindInstance locates the node currently managing an instance.
func (c *Cluster) FindInstance(id core.InstanceID) (*Node, *core.Instance, bool) {
	for _, n := range c.Nodes() {
		if !n.Powered() {
			continue
		}
		if inst, ok := n.manager.Get(id); ok {
			return n, inst, true
		}
	}
	return nil, nil, false
}

// Crash fails a node abruptly: the runtime dies, the NIC detaches
// (releasing every IP it held) and the group member disappears without
// notice. Survivors detect the failure and redeploy.
func (c *Cluster) Crash(nodeID string) error {
	n, ok := c.Node(nodeID)
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", nodeID)
	}
	now := c.eng.Now()
	for _, id := range n.Instances() {
		c.tracker.MarkDown(string(id), now)
	}
	n.mu.Lock()
	n.powered = false
	n.mu.Unlock()
	n.mon.Stop()
	n.member.Crash()
	for _, sm := range n.shardMembers {
		sm.Crash()
	}
	n.teardownRemote()
	n.teardownProvision()
	n.vm.Stop()
	n.nic.SetUp(false)
	c.net.DetachNode(nodeID)
	c.metrics.UnregisterProvider("node:" + nodeID)
	c.metrics.UnregisterProvider("provision:" + nodeID)
	c.metrics.UnregisterProvider("events:" + nodeID)
	c.metrics.UnregisterProvider("directory:" + nodeID)
	c.metrics.UnregisterProvider("obs:" + nodeID)
	c.metrics.UnregisterProvider("monitor:" + nodeID)
	c.metrics.UnregisterProvider("health:" + nodeID)
	return nil
}

// PowerOff drains a node gracefully (instances migrate away) and powers it
// down; onDone fires when the node has left the group.
func (c *Cluster) PowerOff(nodeID string, onDone func()) error {
	n, ok := c.Node(nodeID)
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", nodeID)
	}
	return n.mod.Shutdown(func() {
		n.mu.Lock()
		n.powered = false
		n.mu.Unlock()
		n.mon.Stop()
		n.teardownRemote()
		n.teardownProvision()
		c.metrics.UnregisterProvider("node:" + nodeID)
		c.metrics.UnregisterProvider("provision:" + nodeID)
		c.metrics.UnregisterProvider("events:" + nodeID)
		c.metrics.UnregisterProvider("directory:" + nodeID)
		c.metrics.UnregisterProvider("obs:" + nodeID)
		c.metrics.UnregisterProvider("monitor:" + nodeID)
		c.metrics.UnregisterProvider("health:" + nodeID)
		if onDone != nil {
			onDone()
		}
	})
}

// TraceSpans assembles the cross-node view of one distributed trace:
// every span any node's ring still retains for traceID, merged into one
// deterministic timeline. Crashed nodes contribute too — the span store
// outlives the runtime it instrumented, which is what makes post-mortem
// "where did this call actually run" questions answerable.
func (c *Cluster) TraceSpans(traceID uint64) []obs.Span {
	var out []obs.Span
	for _, n := range c.Nodes() {
		if n.obsPlane != nil {
			out = append(out, n.obsPlane.Tracer.Trace(traceID)...)
		}
	}
	obs.SortSpans(out)
	return out
}

// TotalMemoryUsed sums the host-JVM memory footprint of the powered nodes
// (the quantity Figures 1–3 trade off).
func (c *Cluster) TotalMemoryUsed() int64 {
	var total int64
	for _, n := range c.Nodes() {
		if n.Powered() {
			total += n.vm.MemoryUsed()
		}
	}
	return total
}
