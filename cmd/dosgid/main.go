// Command dosgid runs a single platform node in real time: a host OSGi
// framework with the shared base services and an Instance Manager, exposed
// over a line-oriented TCP admin protocol (the role RMI/JMX consoles play
// in the paper's Figure 1 discussion), plus a remote-services listener
// serving every service.exported=true registration over the binary
// invocation protocol of internal/remote. Use dosgictl to talk to it.
//
// Admin protocol (one command per line, responses end with "OK" or
// "ERR <msg>"):
//
//	STATUS
//	LIST
//	CREATE <id> [sharedService ...]
//	START <id> | STOP <id> | DESTROY <id>
//	BUNDLES <id>
//	EXPORTS
//	CALL <service> <method> [args...]
//	SUBSCRIBE <count> [filter] [addr] [window]
//	DEPLOY <location>
//	REPO [LIST|SEED]
//	METRICS [provider]
//	TRACE [id]
//	HEALTH [node]
//	ALERTS [FOLLOW [count]]
//	LOG [n]
//	QUIT
//
// CALL invokes an exported service through the full remote stack — TCP
// transport, connection pool, failover-aware invoker — resolving first to
// this daemon's own remote listener, then to any -peer daemons, so a
// service exported by a peer is reached transparently. Exports are served
// from the daemon's host framework AND from every started virtual
// instance: a bundle inside an instance that registers a service with
// service.exported=true is remotely invocable like any host export.
//
// SUBSCRIBE opens a dosgi.events subscription (see docs/PROTOCOL.md)
// against addr (default: this daemon's own remote listener) and streams
// service events as "EVENT ..." lines until count events arrived or the
// subscription times out. A new subscription first receives the current
// exports as synthetic REGISTERED events — the resync — then live
// REGISTERED/MODIFIED/UNREGISTERING deltas. window is the credit window
// advertised to the broker (how many pushes may ride unacknowledged
// before delivery suspends; default 128, 0 disables flow control).
//
// DEPLOY provisions a bundle artifact end-to-end: metadata resolved from
// the local repository or a peer, chunks fetched over the remote stack,
// digest and signature verified against the deploy policy, Require-Bundle
// dependencies resolved, and the bundle installed and started in the host
// framework. REPO lists the local artifact repository — each row ends
// with a HOLDERS column naming every known holder of the location
// ("local" plus the peer addresses advertising it, queried live from the
// peers' repository services); REPO SEED publishes the built-in signed
// sample artifacts so a peer daemon can DEPLOY them.
//
// METRICS is the one-stop metrics pull: it prints every metrics
// provider of this daemon (histogram percentiles of the hot paths under
// obs:self, framework counts, provisioning counters) AND of every -peer
// daemon — each line prefixed with its origin — by reading the peers'
// exported dosgi.metrics service over the remote stack. An optional
// provider name narrows the sweep. TRACE with no argument lists recent
// locally initiated traces (id, service.method, duration); TRACE <id>
// assembles that trace's spans from this daemon and every peer, merged
// in start order — client attempts, their failover causes, and the
// server-side executions (with queue/handler split) they reached.
//
// HEALTH prints the daemon's replicated health view: its own evaluator's
// per-component records (remote-call p99, pool wait, broker delivery)
// plus every -peers daemon's records, mirrored over per-peer
// dosgi.health subscriptions (see docs/PROTOCOL.md §6.4) — pushed on
// transition, not polled, so HEALTH answers for the whole peer set from
// local state. An optional node argument (a daemon's remote address)
// narrows the view.
// ALERTS prints the recent health transitions; ALERTS FOLLOW streams
// them live as "ALERT ..." lines (the resync snapshot first, then
// transitions) until count alerts (default 16) arrived or the
// subscription times out. A CRITICAL remote record of a peer also closes
// the autonomic loop: that peer's endpoint is demoted to last choice in
// this daemon's CALL failover ordering until the record heals.
//
// The echo service's Sleep method (CALL echo Sleep <ms>) blocks the
// handler for ms milliseconds — the latency-fault injector that drives
// the health plane by hand.
//
// -debug <addr> serves Go's net/http/pprof handlers on addr (e.g.
// 127.0.0.1:6060 → http://127.0.0.1:6060/debug/pprof/) for live CPU,
// heap and goroutine profiles of a running daemon; empty disables it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug serves the standard profiling handlers
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

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

// echoService is the built-in exported demo service.
type echoService struct{}

func (echoService) Upper(s string) string { return strings.ToUpper(s) }

func (echoService) Reverse(s string) string {
	runes := []rune(s)
	for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
		runes[i], runes[j] = runes[j], runes[i]
	}
	return string(runes)
}

func (echoService) Add(a, b int64) int64 { return a + b }

// Sleep blocks the handler for ms milliseconds and returns ms — the
// latency-fault injector: CALL echo Sleep 120 against a daemon records a
// breaching sample in the caller's invoker-call window, flipping its
// remote-path health record.
func (echoService) Sleep(ms int64) int64 {
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return ms
}

// Echo returns its arguments unchanged — the conformance suite's codec
// round-trip probe (PROTOCOL.md §5): every wire value shape must survive
// request decode and response encode.
func (echoService) Echo(vs ...any) []any { return vs }

// Boom panics — the §7 containment probe: the dispatcher must degrade
// the panic to an application error on this correlation id, not kill the
// connection.
func (echoService) Boom() string { panic("echo: boom") }

// Weird returns a value the wire codec cannot encode — the §7
// degradation probe: the reply must be an application error, never a
// silently dropped response.
func (echoService) Weird() map[string]string { return map[string]string{"un": "encodable"} }

// Blob returns n bytes — past the frame limit, the §7 response-size
// probe: an executed call whose result cannot travel must still answer
// its correlation id with an application error.
func (echoService) Blob(n int64) ([]byte, error) {
	const maxBlob = 24 << 20
	if n < 0 || n > maxBlob {
		return nil, fmt.Errorf("blob size %d out of range [0, %d]", n, maxBlob)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b, nil
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
	// plane's interval windows; healthView is the fleet-wide record view
	// (own records plus every peer's, mirrored over per-peer dosgi.health
	// subscriptions); healthBroker pushes transitions to subscribers; the
	// autonomic controller demotes CRITICAL peers in the invoker.
	healthEval   *health.Evaluator
	healthBroker *remote.EventBroker
	healthTicker clock.Timer
	healthCtl    *autonomic.Controller
	healthSubs   []*remote.Subscriber
	healthMu     sync.Mutex
	healthView   map[string]remote.ServiceEvent // "component@node" → record
	healthLog    []string                       // recent transitions, newest last
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

// healthLogCap bounds the ALERTS ring buffer.
const healthLogCap = 64

// daemonHealthPolicy is the autonomic closed loop over the mirrored
// health view — the same policy the cluster nodes load: a CRITICAL
// remote-path record of a peer demotes that peer's endpoint to
// last-resort in this daemon's CALL failover ordering; anything better
// restores it.
const daemonHealthPolicy = `
when health.component == "remote" && health.level >= 2 { demote() }
when health.component == "remote" && health.level < 2 { restore() }
`

// serviceSources is the dispatch-side lookup order: host-framework
// exports first, then every started instance's exports (host wins name
// collisions). remote.NewCompositeSource composes it per lookup.
func (d *daemon) serviceSources() []remote.ServiceSource {
	return append([]remote.ServiceSource{d.exporter}, d.instExp.Sources()...)
}

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
	type outcome struct {
		resp *remote.Response
		err  error
	}
	for _, addr := range ix.peers {
		ch := make(chan outcome, 1)
		req := &remote.Request{Service: provision.ServiceName, Method: method, Args: args}
		if err := ix.pool.Invoke(addr, req, func(resp *remote.Response, err error) {
			ch <- outcome{resp.Retain(), err} // read after the callback returns
		}); err != nil {
			continue
		}
		o := <-ch
		if o.err != nil || o.resp.Status != remote.StatusOK || len(o.resp.Results) == 0 {
			continue
		}
		data, ok := o.resp.Results[0].([]byte)
		if !ok {
			continue
		}
		if art, err := provision.UnmarshalArtifact(data); err == nil {
			return art, true
		}
	}
	return provision.Artifact{}, false
}

// repoListLine formats one REPO LIST row. holders names every known
// holder of the artifact's location — "local" for this daemon's own
// store plus the remote-service addresses of peers advertising it.
func repoListLine(art provision.Artifact, holders []string) string {
	return fmt.Sprintf("%s %.12s %dB chunks=%d signer=%s holders=%s",
		art.Location, art.Digest, art.Size, art.Chunks, art.Signer,
		strings.Join(holders, ","))
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
					reg, err = ctx.RegisterSingle("com.example.app.Main", echoService{}, module.Properties{
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
	if _, err := host.SystemContext().RegisterSingle("dosgi.Echo", echoService{}, module.Properties{
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
	d.healthView = make(map[string]remote.ServiceEvent)
	d.healthBroker = remote.NewEventBroker(sched,
		remote.WithBrokerService(remote.HealthServiceName),
		remote.WithEventSnapshot(d.healthSnapshot),
		remote.WithReplayRingShards(d.router.Shards(), d.router.Shard))
	d.services = remote.NewCompositeSource(d.serviceSources)
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
			d.broker, d.healthBroker),
		remote.WithTCPServerClock(sched.Now))
	d.remoteSrv = remoteSrv
	// The listener's socket counters: framesOut/flushes is the live batch
	// factor of the response path, framesIn/reads its read-side twin.
	d.metrics.RegisterProvider("remote:self", func() map[string]any {
		st := remoteSrv.Stats()
		return map[string]any{
			"reads":      int64(st.Reads),
			"framesIn":   int64(st.FramesIn),
			"flushes":    int64(st.Flushes),
			"framesOut":  int64(st.FramesOut),
			"yields":     int64(st.Yields),
			"queueWaits": int64(st.QueueWaits),
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
			return float64(d.broker.Stats().Lagging + d.healthBroker.Stats().Lagging), true
		},
		Degraded: 1, Critical: 4,
		Raise: 1, Clear: 2,
	})
	d.healthEval = ev

	// The evaluator tick: applyHealth dedups, so steady state publishes
	// nothing.
	d.healthTicker = d.sched.Every(hc.interval, func() {
		ev.Tick()
		for _, rec := range ev.Records() {
			d.applyHealth(remote.ServiceEvent{
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
				d.applyHealth(ev)
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

// applyHealth folds one health record event into the fleet view,
// deduplicating by record identity: an event that changes nothing is
// dropped, a change is stored, logged and re-published on this daemon's
// dosgi.health broker (typed REGISTERED for a first sighting, MODIFIED
// for a transition, UNREGISTERING for a withdrawal).
func (d *daemon) applyHealth(ev remote.ServiceEvent) {
	key := ev.Service + "@" + ev.Node
	d.healthMu.Lock()
	last, known := d.healthView[key]
	if ev.Type == remote.ServiceUnregistering {
		if !known {
			d.healthMu.Unlock()
			return
		}
		delete(d.healthView, key)
	} else {
		if known && last.Addr == ev.Addr && last.Instance == ev.Instance {
			d.healthMu.Unlock()
			return
		}
		if known {
			ev.Type = remote.ServiceModified
		} else {
			ev.Type = remote.ServiceRegistered
		}
		d.healthView[key] = ev
	}
	d.healthLog = append(d.healthLog, fmt.Sprintf("%s %s node=%s status=%s cause=%s",
		ev.Type, ev.Service, ev.Node, ev.Addr, ev.Instance))
	if len(d.healthLog) > healthLogCap {
		d.healthLog = d.healthLog[len(d.healthLog)-healthLogCap:]
	}
	d.healthMu.Unlock()
	d.healthBroker.Publish(ev)
}

// healthSnapshot feeds the health broker's resync: a fresh subscriber
// receives the full fleet view before live alerts flow.
func (d *daemon) healthSnapshot() []remote.ServiceEvent {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	evs := make([]remote.ServiceEvent, 0, len(d.healthView))
	for _, ev := range d.healthView {
		ev.Type = ""
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Node != evs[j].Node {
			return evs[i].Node < evs[j].Node
		}
		return evs[i].Service < evs[j].Service
	})
	return evs
}

// healthSubjects exposes every PEER record of the mirrored view as an
// autonomic subject — health.component/node/status/level/cause plus the
// demote()/restore() verbs over this daemon's invoker.
func (d *daemon) healthSubjects() []autonomic.Subject {
	d.healthMu.Lock()
	evs := make([]remote.ServiceEvent, 0, len(d.healthView))
	for _, ev := range d.healthView {
		if ev.Node != d.remoteAddr {
			evs = append(evs, ev)
		}
	}
	d.healthMu.Unlock()
	var out []autonomic.Subject
	for _, ev := range evs {
		ev := ev
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
	for {
		conn, err := d.adminLn.Accept()
		if err != nil {
			log.Printf("dosgid: shutting down: %v", err)
			return
		}
		go d.serve(conn)
	}
}

func (d *daemon) close() {
	_ = d.adminLn.Close()
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

// parseCallArg maps a CLI token to a wire value: int64, float64, bool,
// then string. Double quotes force string (`"42"` stays "42") and allow
// embedded spaces.
func parseCallArg(tok string) any {
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(tok, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseBool(tok); err == nil {
		return v
	}
	return strings.Trim(tok, `"`)
}

// splitCommand tokenizes an admin line like strings.Fields but keeps
// double-quoted segments — quotes included, so parseCallArg still sees
// them — intact: `CALL echo Upper "hello world"` is four tokens.
func splitCommand(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for _, r := range line {
		switch {
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case !inQuote && (r == ' ' || r == '\t'):
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func (d *daemon) serve(conn net.Conn) {
	defer conn.Close()
	host, mgr := d.host, d.mgr
	sc := bufio.NewScanner(conn)
	// Mirror dosgictl's cap: a CALL argument may be as large as a request
	// frame allows; the 64 KiB Scanner default would drop the connection.
	sc.Buffer(make([]byte, 64<<10), 32<<20)
	out := bufio.NewWriter(conn)
	reply := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
		_ = out.Flush()
	}
	for sc.Scan() {
		fields := splitCommand(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		switch cmd {
		case "QUIT":
			reply("OK bye")
			return
		case "STATUS":
			refs, _ := host.SystemContext().ServiceReferences("", "")
			reply("framework=%s state=%s bundles=%d services=%d instances=%d exports=%d shards=%d",
				host.Name(), host.State(), len(host.Bundles()), len(refs), len(mgr.List()),
				len(d.exportNames()), d.router.Shards())
			reply("OK")
		case "LIST":
			for _, inst := range mgr.List() {
				desc := inst.Descriptor()
				reply("%s customer=%s state=%s", desc.ID, desc.Customer, inst.State())
			}
			reply("OK %d instance(s)", len(mgr.List()))
		case "EXPORTS":
			names := d.exportNames()
			for _, name := range names {
				reply("%s", name)
			}
			reply("OK %d export(s)", len(names))
		case "CALL":
			if len(fields) < 3 {
				reply("ERR usage: CALL <service> <method> [args...]")
				continue
			}
			args := make([]any, 0, len(fields)-3)
			for _, tok := range fields[3:] {
				args = append(args, parseCallArg(tok))
			}
			results, err := d.invoker.Call(fields[1], fields[2], args...)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			// "= " keeps result values out of the OK/ERR status channel (a
			// service returning "OK" or "ERR ..." must not terminate the
			// response early), and embedded newlines are quoted so one
			// result stays one protocol line.
			for _, res := range results {
				text := fmt.Sprintf("%v", res)
				if strings.ContainsAny(text, "\n\r") {
					text = strconv.Quote(text)
				}
				reply("= %s", text)
			}
			reply("OK %d result(s)", len(results))
		case "SUBSCRIBE":
			if len(fields) < 2 || len(fields) > 5 {
				reply("ERR usage: SUBSCRIBE <count> [filter] [addr] [window]")
				continue
			}
			count, err := strconv.Atoi(fields[1])
			if err != nil || count <= 0 {
				reply("ERR count must be a positive integer")
				continue
			}
			filter := ""
			if len(fields) >= 3 {
				filter = strings.Trim(fields[2], `"`)
			}
			addr := d.remoteAddr
			if len(fields) >= 4 {
				addr = fields[3]
			}
			window := int64(0) // 0 → the subscriber's default credit window
			if len(fields) == 5 {
				w, werr := strconv.ParseInt(fields[4], 10, 64)
				if werr != nil || w < 0 {
					reply("ERR window must be a non-negative integer")
					continue
				}
				if w == 0 {
					window = -1 // explicit 0 disables flow control
				} else {
					window = w
				}
			}
			n, err := d.streamEvents("", "EVENT", addr, filter, count, window, reply)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			reply("OK %d event(s)", n)
		case "HEALTH":
			if len(fields) > 2 {
				reply("ERR usage: HEALTH [node]")
				continue
			}
			nodeFilter := ""
			if len(fields) == 2 {
				nodeFilter = fields[1]
			}
			d.healthMu.Lock()
			keys := make([]string, 0, len(d.healthView))
			for key, ev := range d.healthView {
				if nodeFilter == "" || ev.Node == nodeFilter {
					keys = append(keys, key)
				}
			}
			sort.Strings(keys)
			rows := make([]string, len(keys))
			for i, key := range keys {
				ev := d.healthView[key]
				rows[i] = fmt.Sprintf("%s node=%s status=%s cause=%s",
					ev.Service, ev.Node, ev.Addr, ev.Instance)
			}
			d.healthMu.Unlock()
			for _, row := range rows {
				reply("%s", row)
			}
			reply("OK %d record(s)", len(rows))
		case "ALERTS":
			if len(fields) >= 2 && strings.ToUpper(fields[1]) == "FOLLOW" {
				count := 16
				if len(fields) == 3 {
					v, err := strconv.Atoi(fields[2])
					if err != nil || v <= 0 {
						reply("ERR count must be a positive integer")
						continue
					}
					count = v
				}
				n, err := d.streamEvents(remote.HealthServiceName, "ALERT", d.remoteAddr, "", count, 0, reply)
				if err != nil {
					reply("ERR %v", err)
					continue
				}
				reply("OK %d alert(s)", n)
				continue
			}
			if len(fields) != 1 {
				reply("ERR usage: ALERTS [FOLLOW [count]]")
				continue
			}
			d.healthMu.Lock()
			recent := append([]string(nil), d.healthLog...)
			d.healthMu.Unlock()
			for _, row := range recent {
				reply("%s", row)
			}
			reply("OK %d alert(s)", len(recent))
		case "CREATE":
			if len(fields) < 2 {
				reply("ERR usage: CREATE <id> [sharedService ...]")
				continue
			}
			desc := core.Descriptor{
				ID:             core.InstanceID(fields[1]),
				Customer:       fields[1],
				Bundles:        []core.BundleSpec{{Location: "app:placeholder", Start: true}},
				SharedServices: fields[2:],
			}
			if _, err := mgr.Create(desc); err != nil {
				reply("ERR %v", err)
				continue
			}
			reply("OK created %s", fields[1])
		case "START", "STOP", "DESTROY":
			if len(fields) != 2 {
				reply("ERR usage: %s <id>", cmd)
				continue
			}
			id := core.InstanceID(fields[1])
			var err error
			switch cmd {
			case "START":
				err = mgr.Start(id)
			case "STOP":
				err = mgr.Stop(id)
			default:
				err = mgr.Destroy(id)
			}
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			reply("OK %s %s", strings.ToLower(cmd), fields[1])
		case "DEPLOY":
			if len(fields) != 2 {
				reply("ERR usage: DEPLOY <location>")
				continue
			}
			location := fields[1]
			errCh := make(chan error, 1)
			d.deployer.Deploy(location, true, func(err error) { errCh <- err })
			if err := <-errCh; err != nil {
				reply("ERR %v", err)
				continue
			}
			b, _ := host.GetBundleByLocation(location)
			art, _ := d.repo.ArtifactAt(location)
			reply("= %s %s/%s state=%s digest=%.12s",
				location, b.SymbolicName(), b.Version(), b.State(), art.Digest)
			reply("OK deployed %s", location)
		case "REPO":
			sub := "LIST"
			if len(fields) > 1 {
				sub = strings.ToUpper(fields[1])
			}
			switch sub {
			case "LIST":
				arts := d.repo.List()
				var peerLocs map[string][]string
				if len(arts) > 0 { // nothing to annotate → skip the peer sweep
					peerLocs = d.peerLocations()
				}
				for _, art := range arts {
					reply("%s", repoListLine(art, append([]string{"local"}, peerLocs[art.Location]...)))
				}
				reply("OK %d artifact(s)", len(arts))
			case "SEED":
				arts, payloads, err := provision.SampleArtifacts(0)
				if err != nil {
					reply("ERR %v", err)
					continue
				}
				seeded := 0
				for i, art := range arts {
					if err := d.repo.Add(art, payloads[i]); err != nil {
						reply("ERR %v", err)
						break
					}
					seeded++
				}
				if seeded == len(arts) {
					reply("OK seeded %d artifact(s)", seeded)
				}
			default:
				reply("ERR usage: REPO [LIST|SEED]")
			}
		case "BUNDLES":
			if len(fields) != 2 {
				reply("ERR usage: BUNDLES <id>")
				continue
			}
			inst, ok := mgr.Get(core.InstanceID(fields[1]))
			if !ok {
				reply("ERR no such instance")
				continue
			}
			for _, b := range inst.Virtual().Framework().Bundles() {
				reply("[%d] %s %s %s", b.ID(), b.SymbolicName(), b.Version(), b.State())
			}
			reply("OK")
		case "METRICS":
			if len(fields) > 2 {
				reply("ERR usage: METRICS [provider]")
				continue
			}
			provider := ""
			if len(fields) == 2 {
				provider = fields[1]
			}
			n := d.emitMetrics(provider, reply)
			reply("OK %d line(s)", n)
		case "TRACE":
			if len(fields) > 2 {
				reply("ERR usage: TRACE [id]")
				continue
			}
			if len(fields) == 1 {
				lines := d.metricsRd.Recent(16)
				for _, l := range lines {
					reply("%v", l)
				}
				reply("OK %d trace(s)", len(lines))
				continue
			}
			tid, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
			if err != nil || tid == 0 {
				reply("ERR trace id must be hex (run TRACE with no argument for recent ids)")
				continue
			}
			spans := d.assembleTrace(tid, reply)
			for _, sp := range spans {
				reply("= %s", sp.String())
			}
			reply("OK %d span(s)", len(spans))
		case "LOG":
			n := 10
			if len(fields) == 2 {
				if v, err := strconv.Atoi(fields[1]); err == nil {
					n = v
				}
			}
			if ref, ok := host.SystemContext().ServiceReference(services.LogServiceClass); ok {
				if svc, err := host.SystemContext().GetService(ref); err == nil {
					entries := svc.(*services.LogService).Entries()
					if len(entries) > n {
						entries = entries[len(entries)-n:]
					}
					for _, e := range entries {
						reply("%s", e)
					}
				}
			}
			reply("OK")
		default:
			reply("ERR unknown command %s (supported: %s)", cmd, supportedVerbs)
		}
	}
}

// subscribeTimeout bounds how long SUBSCRIBE waits for the requested
// event count before answering with what arrived.
const subscribeTimeout = 30 * time.Second

// streamEvents subscribes to addr's event stream — service "" for
// dosgi.events, remote.HealthServiceName for the alert stream — and
// emits up to count events as "<label> ..." lines, returning how many
// arrived before the timeout. window is the advertised credit window
// (0 = subscriber default, negative = flow control off).
func (d *daemon) streamEvents(service, label, addr, filter string, count int, window int64, reply func(string, ...any)) (int, error) {
	events := make(chan remote.ServiceEvent, 64)
	sub, err := remote.NewSubscriber(remote.SubscriberConfig{
		Transport: d.transport,
		Sched:     d.sched,
		Service:   service,
		Addrs:     []string{addr},
		Filter:    filter,
		Window:    window,
		OnEvent: func(ev remote.ServiceEvent) {
			select {
			case events <- ev:
			default: // an overwhelmed admin client drops, not deadlocks
			}
		},
	})
	if err != nil {
		return 0, err
	}
	defer sub.Close()
	deadline := time.NewTimer(subscribeTimeout)
	defer deadline.Stop()
	received := 0
	for received < count {
		select {
		case ev := <-events:
			reply("%s %s %s node=%s addr=%s instance=%s seq=%d",
				label, ev.Type, ev.Service, ev.Node, ev.Addr, ev.Instance, ev.Seq)
			received++
		case <-deadline.C:
			return received, nil
		}
	}
	return received, nil
}

// emitMetrics prints this daemon's metrics and every peer's, one line
// per attribute prefixed with the serving origin ("local" or the peer's
// remote address) — the one-stop pull: any daemon answers for the whole
// fleet it knows. provider narrows the sweep to one provider name.
// Unreachable peers become a single annotated line instead of an error,
// so a partitioned fleet still reports what it can see.
func (d *daemon) emitMetrics(provider string, reply func(string, ...any)) int {
	n := 0
	emit := func(origin string, lines []any) {
		for _, l := range lines {
			if s, ok := l.(string); ok {
				reply("%s %s", origin, s)
				n++
			}
		}
	}
	method, args := "Snapshot", []any(nil)
	if provider == "" {
		emit("local", d.metricsRd.Snapshot())
	} else {
		emit("local", d.metricsRd.Read(provider))
		method, args = "Read", []any{provider}
	}
	for _, addr := range d.peers {
		lines, err := d.askMetrics(addr, method, args...)
		if err != nil {
			reply("%s unreachable: %v", addr, err)
			n++
			continue
		}
		emit(addr, lines)
	}
	return n
}

// askMetrics invokes one method of a specific peer's dosgi.metrics
// service — no failover, the answer must come from that peer — and
// returns its line list.
func (d *daemon) askMetrics(addr, method string, args ...any) ([]any, error) {
	type outcome struct {
		resp *remote.Response
		err  error
	}
	ch := make(chan outcome, 1)
	req := &remote.Request{Service: services.MetricsRemoteName, Method: method, Args: args}
	if err := d.pool.Invoke(addr, req, func(resp *remote.Response, err error) {
		ch <- outcome{resp.Retain(), err} // read after the callback returns
	}); err != nil {
		return nil, err
	}
	o := <-ch
	if o.err != nil {
		return nil, o.err
	}
	if o.resp.Status != remote.StatusOK {
		return nil, fmt.Errorf("%s", o.resp.Err)
	}
	if len(o.resp.Results) == 0 {
		return nil, nil
	}
	lines, _ := o.resp.Results[0].([]any)
	return lines, nil
}

// assembleTrace merges one trace's spans from the local store and every
// peer's (shipped as wire tuples over dosgi.metrics) into one
// deterministic start-time order — the cross-node view of a call:
// failover attempts and the server executions they reached side by
// side. Start offsets are each process's own monotonic clock, so
// cross-process ordering is approximate; within a process it is exact.
func (d *daemon) assembleTrace(tid uint64, reply func(string, ...any)) []obs.Span {
	spans := append([]obs.Span(nil), d.plane.Tracer.Trace(tid)...)
	for _, addr := range d.peers {
		tuples, err := d.askMetrics(addr, "Trace", int64(tid))
		if err != nil {
			reply("%s unreachable: %v", addr, err)
			continue
		}
		for _, t := range tuples {
			tup, ok := t.([]any)
			if !ok {
				continue
			}
			if sp, ok := obs.SpanFromTuple(tup); ok {
				spans = append(spans, sp)
			}
		}
	}
	obs.SortSpans(spans)
	return spans
}

// supportedVerbs lists every admin verb, printed when a command is not
// recognized so operators discover the protocol from any typo.
const supportedVerbs = "STATUS LIST CREATE START STOP DESTROY BUNDLES EXPORTS CALL SUBSCRIBE DEPLOY REPO METRICS TRACE HEALTH ALERTS LOG QUIT"
