// Command dosgid runs a single platform node in real time: a host OSGi
// framework with the shared base services and an Instance Manager, exposed
// over a line-oriented TCP admin protocol (the role RMI/JMX consoles play
// in the paper's Figure 1 discussion), plus a remote-services listener
// serving every service.exported=true registration over the binary
// invocation protocol of internal/remote. Use dosgictl to talk to it.
//
// The admin protocol — framing, quoting, result rows, terminators and the
// verbs shared with dosgi-sim (QUIT EXPORTS CALL SUBSCRIBE METRICS TRACE
// HEALTH ALERTS) — is implemented once in internal/admin and specified
// in docs/PROTOCOL.md annex B. This daemon adds the verbs that need a
// real framework (verbs.go):
//
//	STATUS
//	LIST
//	CREATE <id> [sharedService ...]
//	START <id> | STOP <id> | DESTROY <id>
//	BUNDLES <id>
//	DEPLOY <location>
//	REPO [LIST|SEED]
//	LOG [n]
//
// CALL resolves first to this daemon's own remote listener, then to any
// -peers daemons, so a service exported by a peer is reached
// transparently. Exports are served from the daemon's host framework AND
// from every started virtual instance: a bundle inside an instance that
// registers a service with service.exported=true is remotely invocable
// like any host export. A CRITICAL remote record of a peer in the
// mirrored health view also closes the autonomic loop: that peer's
// endpoint is demoted to last choice in this daemon's CALL failover
// ordering until the record heals.
//
// -debug <addr> serves Go's net/http/pprof handlers on addr (e.g.
// 127.0.0.1:6060 → http://127.0.0.1:6060/debug/pprof/) for live CPU,
// heap and goroutine profiles of a running daemon; empty disables it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug serves the standard profiling handlers
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	// adminproto, not admin: this package's tests call their
	// send-one-command helper admin.
	adminproto "dosgi/internal/admin"
	"dosgi/internal/autonomic"
	"dosgi/internal/clock"
	"dosgi/internal/core"
	"dosgi/internal/health"
	"dosgi/internal/manifest"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/obs"
	"dosgi/internal/policy"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/security"
	"dosgi/internal/services"
)

func main() {
	listenAddr := flag.String("listen", "127.0.0.1:7700", "admin listen address")
	remoteAddr := flag.String("remote", "127.0.0.1:7790", "remote-services listen address")
	peers := flag.String("peers", "", "comma-separated remote-services addresses of peer daemons (failover targets)")
	shards := flag.Int("shards", 1, "directory shard count of the cluster this daemon belongs to (rendezvous placement; reported by STATUS)")
	debugAddr := flag.String("debug", "", "net/http/pprof listen address, e.g. 127.0.0.1:6060 (empty = disabled)")
	hc := defaultHealthConfig()
	flag.DurationVar(&hc.interval, "health-interval", hc.interval, "health evaluator tick interval")
	flag.DurationVar(&hc.p99Degraded, "health-degraded", hc.p99Degraded, "per-interval call p99 above which the remote component is DEGRADED")
	flag.DurationVar(&hc.p99Critical, "health-critical", hc.p99Critical, "per-interval call p99 above which the remote component is CRITICAL")
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if *debugAddr != "" {
		go func() {
			log.Printf("dosgid: debug server exited: %v", http.ListenAndServe(*debugAddr, nil))
		}()
		log.Printf("dosgid: pprof on http://%s/debug/pprof/", *debugAddr)
	}
	d, err := newDaemon(*listenAddr, *remoteAddr, peerList, *shards, hc)
	if err != nil {
		log.Fatal(err)
	}
	defer d.close()
	log.Printf("dosgid: admin on %s, remote services on %s", d.adminLn.Addr(), d.remoteSrv.Addr())

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-done
		_ = d.adminLn.Close()
	}()
	d.serveAdmin()
}

// daemon bundles one dosgid node's moving parts so tests can run it
// in-process on ephemeral ports.
type daemon struct {
	sched      *clock.Real
	host       *module.Framework
	mgr        *core.Manager
	exporter   *remote.Exporter
	remoteSrv  *remote.TCPServer
	remoteAddr string
	transport  *remote.TCPTransport
	pool       *remote.Pool
	invoker    *remote.Invoker
	broker     *remote.EventBroker
	services   *remote.CompositeSource
	adminLn    net.Listener
	peers      []string
	router     migrate.ShardRouter
	repo       *provision.Store
	deployer   *provision.Deployer

	// plane is this daemon's observability plane (tracer + hot-path
	// histograms); metricsRd reads it — locally for the admin verbs and
	// over the wire as the exported dosgi.metrics service.
	plane     *obs.Plane
	metrics   *services.MetricsService
	metricsRd *services.MetricsRemote

	// instExp exports services registered inside started virtual
	// instances (one exporter per instance).
	instExp *remote.ExporterSet

	// The health plane: the local evaluator ticks rules over the obs
	// plane's interval windows; health is the fleet-wide record view (own
	// records plus every peer's, mirrored over per-peer dosgi.health
	// subscriptions) whose broker pushes transitions to subscribers; the
	// autonomic controller demotes CRITICAL peers in the invoker.
	healthEval   *health.Evaluator
	health       *adminproto.HealthView
	healthTicker clock.Timer
	healthCtl    *autonomic.Controller
	healthSubs   []*remote.Subscriber

	// admin serves the line protocol on adminLn: the shared verbs plus
	// this daemon's own (verbs.go).
	admin *adminproto.Server
}

// healthConfig carries the flag-tunable health thresholds.
type healthConfig struct {
	interval    time.Duration
	p99Degraded time.Duration
	p99Critical time.Duration
}

func defaultHealthConfig() healthConfig {
	return healthConfig{
		interval:    500 * time.Millisecond,
		p99Degraded: 50 * time.Millisecond,
		p99Critical: 95 * time.Millisecond,
	}
}

// daemonHealthPolicy is the autonomic closed loop over the mirrored
// health view — the same policy the cluster nodes load: a CRITICAL
// remote-path record of a peer demotes that peer's endpoint to
// last-resort in this daemon's CALL failover ordering; anything better
// restores it.
const daemonHealthPolicy = `
when health.component == "remote" && health.level >= 2 { demote() }
when health.component == "remote" && health.level < 2 { restore() }
`

// exportNames lists every exported service: host exports plainly,
// instance exports annotated with their owning instance.
func (d *daemon) exportNames() []string {
	out := d.exporter.Names()
	for _, ke := range d.instExp.Snapshot() {
		for _, name := range ke.Exp.Names() {
			out = append(out, fmt.Sprintf("%s instance=%s", name, ke.Key))
		}
	}
	return out
}

// exportSnapshot feeds the event broker's synthetic resync.
func (d *daemon) exportSnapshot() []remote.ServiceEvent {
	var evs []remote.ServiceEvent
	for _, name := range d.exporter.Names() {
		evs = append(evs, remote.ServiceEvent{Service: name, Node: "self", Addr: d.remoteAddr})
	}
	for _, ke := range d.instExp.Snapshot() {
		for _, name := range ke.Exp.Names() {
			evs = append(evs, remote.ServiceEvent{
				Service: name, Node: "self", Addr: d.remoteAddr, Instance: ke.Key,
			})
		}
	}
	return evs
}

// publishExportEvent maps an exporter change onto the event stream.
func (d *daemon) publishExportEvent(ev remote.ExportEvent, instance string) {
	typ := remote.ServiceRegistered
	switch {
	case !ev.Exported:
		// Host and instance exports share one name space on this
		// daemon: suppress the withdrawal while another framework still
		// serves the name, so subscribers never see an UNREGISTERING
		// for a service that still answers.
		if _, still := d.services.Lookup(ev.Name); still {
			return
		}
		typ = remote.ServiceUnregistering
	case ev.Modified:
		typ = remote.ServiceModified
	}
	d.broker.Publish(remote.ServiceEvent{
		Type: typ, Service: ev.Name, Node: "self",
		Addr: d.remoteAddr, Instance: instance,
	})
}

// attachInstanceExporter exports a started instance's
// service.exported=true registrations through the daemon's listener
// (the ExporterSet handles the attach/detach races of instance
// lifecycle).
func (d *daemon) attachInstanceExporter(inst *core.Instance) {
	vf := inst.Virtual()
	if vf == nil {
		return
	}
	instance := string(inst.ID())
	d.instExp.Attach(instance, vf.Framework().SystemContext(),
		func(ev remote.ExportEvent) { d.publishExportEvent(ev, instance) },
		func() bool { return inst.State() == core.InstanceRunning })
}

// daemonResolver resolves CALL targets: the local remote listener first
// when the service is exported here (host framework or any instance),
// then every configured peer.
type daemonResolver struct {
	lookup remote.ServiceSource
	self   string
	peers  []string
}

func (r *daemonResolver) Endpoints(service string) []remote.Endpoint {
	var eps []remote.Endpoint
	if _, ok := r.lookup.Lookup(service); ok {
		eps = append(eps, remote.Endpoint{Node: "self", Addr: r.self})
	}
	for _, p := range r.peers {
		eps = append(eps, remote.Endpoint{Addr: p})
	}
	return eps
}

// peerEndpoints maps the configured peers to fetch replicas: every peer
// is a candidate for any digest; one lacking the artifact answers with an
// application error and the fetcher fails over to the next.
func peerEndpoints(peers []string) []remote.Endpoint {
	eps := make([]remote.Endpoint, len(peers))
	for i, p := range peers {
		eps[i] = remote.Endpoint{Addr: p}
	}
	return eps
}

// daemonIndex resolves artifact metadata from the local repository, then
// by asking each peer's provisioning service in turn over the remote
// stack.
type daemonIndex struct {
	store *provision.Store
	pool  *remote.Pool
	peers []string
}

func (ix daemonIndex) ArtifactAt(location string) (provision.Artifact, bool) {
	if art, ok := ix.store.ArtifactAt(location); ok {
		return art, true
	}
	return ix.ask("Describe", location)
}

func (ix daemonIndex) FindBundle(name string, rng manifest.VersionRange) (provision.Artifact, bool) {
	if art, ok := ix.store.FindBundle(name, rng); ok {
		return art, true
	}
	return ix.ask("Find", name, rng.String())
}

// ask queries each peer's repository service and returns the first
// successful answer (blocking; the admin connection handler tolerates
// that on the real-time transport).
func (ix daemonIndex) ask(method string, args ...any) (provision.Artifact, bool) {
	for _, addr := range ix.peers {
		resp, err := ix.pool.Call(addr,
			&remote.Request{Service: provision.ServiceName, Method: method, Args: args})
		if err != nil || resp.Status != remote.StatusOK || len(resp.Results) == 0 {
			continue
		}
		data, ok := resp.Results[0].([]byte)
		if !ok {
			continue
		}
		if art, err := provision.UnmarshalArtifact(data); err == nil {
			return art, true
		}
	}
	return provision.Artifact{}, false
}

// peerLocations asks each peer's repository service which install
// locations it stores (one Locations call per peer, all peers queried
// concurrently so a down peer costs one timeout, not one per peer) and
// inverts the answers into location → holder addresses — the
// daemon-side analog of the cluster's replicated directory, where the
// HOLDERS column of REPO LIST comes from. Unreachable peers are simply
// absent; holder order follows the -peers configuration.
func (d *daemon) peerLocations() map[string][]string {
	type answer struct {
		addr string
		locs []any
	}
	ch := make(chan answer, len(d.peers))
	inflight := 0
	for _, addr := range d.peers {
		addr := addr
		req := &remote.Request{Service: provision.ServiceName, Method: "Locations"}
		if err := d.pool.Invoke(addr, req, func(resp *remote.Response, err error) {
			a := answer{addr: addr}
			if err == nil && resp.Status == remote.StatusOK && len(resp.Results) == 1 {
				// The location strings outlive this callback.
				a.locs, _ = remote.RetainValue(resp.Results[0]).([]any)
			}
			ch <- a
		}); err != nil {
			continue
		}
		inflight++
	}
	byAddr := make(map[string][]any, inflight)
	for ; inflight > 0; inflight-- {
		a := <-ch
		byAddr[a.addr] = a.locs
	}
	out := make(map[string][]string)
	for _, addr := range d.peers {
		for _, l := range byAddr[addr] {
			if loc, ok := l.(string); ok {
				out[loc] = append(out[loc], addr)
			}
		}
	}
	return out
}

func newDaemon(adminAddr, remoteAddr string, peers []string, shards int, hc healthConfig) (*daemon, error) {
	sched := clock.NewReal()

	defs := module.NewDefinitionRegistry()
	defs.MustAdd("base:log", services.LogBundleDefinition(sched))
	// The placeholder bundle every CREATEd instance runs: its activator
	// exports an echo service named app.<instance> from inside the virtual
	// framework, demonstrating instance exports over the daemon's remote
	// listener.
	defs.MustAdd("app:placeholder", &module.Definition{
		ManifestText: "Bundle-SymbolicName: com.example.app\nBundle-Version: 1.0.0\nBundle-Activator: com.example.app.Activator\n",
		Classes:      map[string]any{"com.example.app.Main": "main"},
		NewActivator: func() module.Activator {
			var reg *module.ServiceRegistration
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					name := "app"
					if inst := ctx.Property("vosgi.instance"); inst != "" {
						name = "app." + inst
					}
					var err error
					reg, err = ctx.RegisterSingle("com.example.app.Main", services.Echo{}, module.Properties{
						module.PropServiceExported:     true,
						module.PropServiceExportedName: name,
					})
					return err
				},
				OnStop: func(ctx *module.Context) error {
					if reg != nil {
						_ = reg.Unregister()
					}
					return nil
				},
			}
		},
	})

	host := module.New(module.WithName("dosgid"), module.WithDefinitions(defs))
	if err := host.Start(); err != nil {
		sched.Stop()
		return nil, err
	}
	logBundle, err := host.InstallBundle("base:log")
	if err != nil {
		sched.Stop()
		return nil, err
	}
	if err := logBundle.Start(); err != nil {
		sched.Stop()
		return nil, err
	}
	mgr := core.NewManager(host, core.Hooks{})

	// The built-in exported service plus anything registered later with
	// service.exported=true becomes remotely invocable.
	if _, err := host.SystemContext().RegisterSingle("dosgi.Echo", services.Echo{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "echo",
	}); err != nil {
		sched.Stop()
		return nil, err
	}
	exporter, err := remote.NewExporter(host.SystemContext())
	if err != nil {
		sched.Stop()
		return nil, err
	}

	d := &daemon{
		sched:    sched,
		host:     host,
		mgr:      mgr,
		exporter: exporter,
		peers:    peers,
		instExp:  remote.NewExporterSet(),
	}

	remoteLn, err := net.Listen("tcp", remoteAddr)
	if err != nil {
		sched.Stop()
		return nil, err
	}
	d.remoteAddr = remoteLn.Addr().String()
	// The observability plane: the daemon's node name is its remote
	// listener address (unique per process), its time base the real
	// scheduler's monotonic clock. Every hot path below feeds it.
	d.plane = obs.NewPlane(d.remoteAddr, sched.Now)
	d.metrics = services.NewMetricsService()
	d.metrics.RegisterProvider("obs:self", d.plane.Provider())
	d.metrics.RegisterProvider("framework:dosgid", services.FrameworkProvider(host))
	// The event broker serves dosgi.events on the same listener as
	// invocations, replaying the current exports to new subscribers. The
	// health broker serves dosgi.health beside it, replaying the fleet
	// health view (PROTOCOL.md §6.4).
	// The daemon's shard router mirrors the cluster's rendezvous placement
	// (-shards N): STATUS reports the topology, and both brokers partition
	// their replay rings by it so one shard's churn storm cannot evict
	// another shard's replayable tail.
	d.router = migrate.NewShardRouter(shards)
	d.broker = remote.NewEventBroker(sched,
		remote.WithEventSnapshot(d.exportSnapshot),
		remote.WithBrokerAckHistogram(d.plane.EventAckLag),
		remote.WithReplayRingShards(d.router.Shards(), d.router.Shard))
	d.health = adminproto.NewHealthView(sched,
		remote.WithReplayRingShards(d.router.Shards(), d.router.Shard))
	// Both brokers' suspends, replays and overflows are readable like any
	// other counter.
	d.metrics.RegisterProvider("events:self", d.broker.Provider())
	d.metrics.RegisterProvider("alerts:self", d.health.Broker().Provider())
	d.services = remote.NewCompositeSource(d.exporter, d.instExp)
	exporter.OnChange(func(ev remote.ExportEvent) { d.publishExportEvent(ev, "") })
	mgr.OnEvent(func(ev core.Event) {
		switch ev.Type {
		case core.EventStarted:
			d.attachInstanceExporter(ev.Instance)
		case core.EventStopped, core.EventDestroyed:
			d.instExp.Detach(string(ev.Instance.ID()))
		}
	})
	remoteSrv := remote.ServeTCP(remoteLn,
		remote.NewEventDispatcher(
			remote.NewDispatcher(d.services, remote.WithDispatcherTracer(d.plane.Tracer)),
			d.broker, d.health.Broker()),
		remote.WithTCPServerClock(sched.Now))
	d.remoteSrv = remoteSrv
	// The listener's socket counters: framesOut/flushes is the live batch
	// factor of the response path, framesIn/reads its read-side twin.
	d.metrics.RegisterProvider("remote:self", func() map[string]any {
		st := remoteSrv.Stats()
		return map[string]any{
			"reads":          int64(st.Reads),
			"framesIn":       int64(st.FramesIn),
			"flushes":        int64(st.Flushes),
			"framesOut":      int64(st.FramesOut),
			"yields":         int64(st.Yields),
			"queueWaits":     int64(st.QueueWaits),
			"queuedPeak":     int64(st.QueuedPeak),
			"workersStarted": int64(st.WorkersStarted),
		}
	})

	transport := remote.NewTCPTransport(sched, remote.WithTCPFrameHistogram(d.plane.FrameRTT))
	d.transport = transport
	pool := remote.NewPool(transport, remote.WithPoolObserver(sched.Now, d.plane.PoolWait))
	d.pool = pool
	// Ordered resolution: the resolver's local-first preference must hold
	// on every call, not be rotated away.
	invoker := remote.NewInvoker(pool, &daemonResolver{
		lookup: d.services,
		self:   remoteLn.Addr().String(),
		peers:  peers,
	}, remote.WithOrderedResolution(),
		remote.WithInvokerObservability(d.plane.Tracer, d.plane.InvokerCall))
	d.invoker = invoker

	// The metrics read service: this daemon's providers and span store,
	// exported like any other remote service so peers (and dosgictl via
	// any daemon) can pull them — the one-stop metrics plane.
	d.metricsRd = services.NewMetricsRemote(d.metrics, d.plane.Tracer.Store())
	if _, err := host.SystemContext().RegisterSingle("dosgi.Metrics", d.metricsRd, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: services.MetricsRemoteName,
	}); err != nil {
		remoteSrv.Close()
		sched.Stop()
		return nil, err
	}

	// Provisioning stack: the local artifact repository is served to peers
	// through the remote listener; DEPLOY fetches missing artifacts from
	// peers, verifies them against the deploy policy and installs them.
	repo := provision.NewStore()
	if _, err := host.SystemContext().RegisterSingle(provision.ServiceClass,
		provision.NewRepoService(repo), module.Properties{
			module.PropServiceExported:     true,
			module.PropServiceExportedName: provision.ServiceName,
		}); err != nil {
		remoteSrv.Close()
		sched.Stop()
		return nil, err
	}
	policy := security.NewPolicy(false)
	policy.Grant(provision.SampleSigner, provision.DeployPermission("*"))
	provCounters := &services.ProvisionCounters{}
	d.metrics.RegisterProvider("provision:self", provCounters.Provider())
	deployer, err := provision.NewDeployer(provision.DeployerConfig{
		Store: repo,
		Fetcher: provision.NewFetcher(pool, provision.StaticReplicas{Eps: peerEndpoints(peers)},
			provision.WithCounters(provCounters),
			provision.WithFetchObserver(sched.Now, d.plane.ChunkFetch)),
		Verifier:    provision.NewVerifier(provision.SampleKeyring(), policy),
		Index:       daemonIndex{store: repo, pool: pool, peers: peers},
		Definitions: defs,
		Framework:   host,
		// Continuations hop off the TCP reader goroutine: the dependency
		// walk blocks on peer index lookups, which would deadlock the
		// reader that delivered the fetch.
		Async: func(fn func()) { go fn() },
	})
	if err != nil {
		remoteSrv.Close()
		sched.Stop()
		return nil, err
	}

	adminLn, err := net.Listen("tcp", adminAddr)
	if err != nil {
		remoteSrv.Close()
		sched.Stop()
		return nil, err
	}
	d.adminLn = adminLn
	d.repo = repo
	d.deployer = deployer
	shared := &adminproto.Backend{
		Invoker: invoker, Transport: transport, Sched: sched, Self: d.remoteAddr,
		Exports: d.exportNames,
		Metrics: d.metricsRd, Tracer: d.plane.Tracer, Peers: peers,
		Health: d.health,
	}
	d.admin = adminproto.NewServer(d.verbs(), shared.Verbs())
	d.setupHealth(hc)
	return d, nil
}

// setupHealth starts the local evaluator tick, the per-peer dosgi.health
// mirrors and the autonomic demotion loop. The evaluator's node name is
// the daemon's remote address — the same identity peers dial, so a
// CRITICAL record's Node field IS the endpoint the autonomic rule
// demotes.
func (d *daemon) setupHealth(hc healthConfig) {
	ev := health.New(d.remoteAddr)
	callWin := d.plane.InvokerCall.NewWindow()
	ev.AddRule(health.Rule{
		Name: "call-p99", Component: "remote",
		Signal: func() (float64, bool) {
			s := callWin.Advance()
			if s.Count == 0 {
				return 0, false
			}
			return float64(s.P99), true
		},
		Degraded: float64(hc.p99Degraded),
		Critical: float64(hc.p99Critical),
		Raise:    1, Clear: 2,
	})
	poolWin := d.plane.PoolWait.NewWindow()
	ev.AddRule(health.Rule{
		Name: "pool-wait-p99", Component: "remote",
		Signal: func() (float64, bool) {
			s := poolWin.Advance()
			if s.Count == 0 {
				return 0, false
			}
			return float64(s.P99), true
		},
		Degraded: float64(hc.p99Degraded / 2),
		Critical: float64(hc.p99Critical * 4 / 5),
		Raise:    1, Clear: 2,
	})
	ev.AddRule(health.Rule{
		Name: "broker-lagging", Component: "events",
		Signal: func() (float64, bool) {
			return float64(d.broker.Stats().Lagging + d.health.Broker().Stats().Lagging), true
		},
		Degraded: 1, Critical: 4,
		Raise: 1, Clear: 2,
	})
	d.healthEval = ev

	// The evaluator tick: the view dedups, so steady state publishes
	// nothing.
	d.healthTicker = d.sched.Every(hc.interval, func() {
		ev.Tick()
		for _, rec := range ev.Records() {
			d.health.Apply(remote.ServiceEvent{
				Service: rec.Component, Node: rec.Node,
				Addr: rec.Status.String(), Instance: rec.Cause,
			})
		}
	})

	// Mirror every peer's health records: pushed transitions land in OUR
	// view (and re-publish on OUR broker), so HEALTH and ALERTS against
	// any daemon answer for every daemon it peers with. Only FIRST-HAND
	// records are accepted — the peer's own, whose Node is the address we
	// dialed — so each record has exactly one authoritative source here:
	// no echo loops between mutual mirrors, no duplicate or out-of-order
	// alerts when several peers relay the same transition.
	for _, addr := range d.peers {
		addr := addr
		sub, err := remote.NewSubscriber(remote.SubscriberConfig{
			Transport: d.transport,
			Sched:     d.sched,
			Service:   remote.HealthServiceName,
			Addrs:     []string{addr},
			OnEvent: func(ev remote.ServiceEvent) {
				if ev.Node != addr {
					return
				}
				d.health.Apply(ev)
			},
		})
		if err == nil {
			d.healthSubs = append(d.healthSubs, sub)
		}
	}

	// The autonomic closed loop over the mirrored view.
	eng := autonomic.New(d.sched, autonomic.WithInterval(hc.interval))
	if err := eng.LoadPolicies(daemonHealthPolicy); err != nil {
		panic("dosgid: health policy: " + err.Error())
	}
	eng.SetSubjects(d.healthSubjects)
	d.healthCtl = autonomic.NewController("health:"+d.remoteAddr, eng)
	d.healthCtl.Start()
}

// healthSubjects exposes every PEER record of the mirrored view as an
// autonomic subject — health.component/node/status/level/cause plus the
// demote()/restore() verbs over this daemon's invoker.
func (d *daemon) healthSubjects() []autonomic.Subject {
	var out []autonomic.Subject
	for _, ev := range d.health.Snapshot() {
		if ev.Node == d.remoteAddr {
			continue
		}
		status, _ := health.ParseStatus(ev.Addr)
		out = append(out, autonomic.Subject{
			ID: ev.Service + "@" + ev.Node,
			Env: &policy.MapEnv{
				Vars: map[string]any{
					"health.component": ev.Service,
					"health.node":      ev.Node,
					"health.status":    ev.Addr,
					"health.level":     int64(status),
					"health.cause":     ev.Instance,
				},
				Funcs: map[string]func([]any) (any, error){
					"demote":  func([]any) (any, error) { d.invoker.Demote(ev.Node); return nil, nil },
					"restore": func([]any) (any, error) { d.invoker.Restore(ev.Node); return nil, nil },
				},
			},
		})
	}
	return out
}

// serveAdmin accepts admin connections until the listener closes.
func (d *daemon) serveAdmin() {
	log.Printf("dosgid: shutting down: %v", d.admin.Serve(d.adminLn))
}

func (d *daemon) close() {
	_ = d.adminLn.Close()
	d.admin.Close() // live admin connections, and the streams they hold
	for _, sub := range d.healthSubs {
		sub.Close()
	}
	if d.healthTicker != nil {
		d.healthTicker.Cancel()
	}
	if d.healthCtl != nil {
		d.healthCtl.Stop()
	}
	d.invoker.Pool().Close()
	d.remoteSrv.Close()
	d.sched.Stop()
}
