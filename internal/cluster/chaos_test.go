package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dosgi/internal/module"
	"dosgi/internal/obs"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
)

// This file is the cluster chaos harness: a seeded, deterministic churn
// driver (random kill/restart of event servers, partition/heal of node
// pairs, export/unexport of services) over the netsim fabric, with the
// event-stream invariants checked continuously and convergence checked
// at the end:
//
//   - no duplicate deliveries — a REGISTERED for an already-known
//     replica (same content) or an UNREGISTERING for an unknown one
//     never reaches the application;
//   - no permanent gaps — once the faults stop, every subscriber's view
//     converges to the replicated directory (gaps healed by replay when
//     the broker's window still holds the range, by resync otherwise);
//   - final subscriber view == directory view, replica by replica.
//
// Everything runs on the simulation engine, so a (seed, schedule) pair
// replays identically — including under -race. Extend it by adding ops
// to step() or observers with other filters; `make test-chaos` runs the
// fixed seed matrix.

// chaosObserver tracks one subscriber's delivered view of the cluster
// and records invariant violations as they happen. Callbacks run on the
// engine goroutine, so no locking is needed.
type chaosObserver struct {
	name       string
	sub        *remote.Subscriber
	state      map[string]remote.ServiceEvent // "svc@node" → last content
	events     int
	violations []string
}

func (o *chaosObserver) onEvent(ev remote.ServiceEvent) {
	o.events++
	key := ev.Service + "@" + ev.Node
	switch ev.Type {
	case remote.ServiceRegistered:
		if last, known := o.state[key]; known && last.Addr == ev.Addr && last.Instance == ev.Instance {
			o.violations = append(o.violations,
				fmt.Sprintf("duplicate REGISTERED for %s: %+v", key, ev))
		}
		o.state[key] = ev
	case remote.ServiceModified:
		if _, known := o.state[key]; !known {
			o.violations = append(o.violations,
				fmt.Sprintf("MODIFIED for unknown %s: %+v", key, ev))
		}
		o.state[key] = ev
	case remote.ServiceUnregistering:
		if _, known := o.state[key]; !known {
			o.violations = append(o.violations,
				fmt.Sprintf("UNREGISTERING for unknown %s: %+v", key, ev))
		}
		delete(o.state, key)
	}
}

// chaosHarness drives the schedule. All random choices come from its
// seeded rng and all picks walk sorted slices, so a run is a pure
// function of (seed, step count, node count).
type chaosHarness struct {
	t     *testing.T
	c     *Cluster
	rng   *rand.Rand
	nodes []*Node
	obs   []*chaosObserver

	exports []string // sorted names of currently exported chaos services
	regs    map[string]*module.ServiceRegistration
	parts   map[[2]int]bool // partitioned node-index pairs
	downSrv map[int]bool    // nodes whose remote server is "killed"
	nextID  int

	// Provisioning churn state: artifacts published mid-run (digest →
	// metadata) and the (node, digest) pairs whose on-demand fetch
	// completed successfully during the faults — both checked against
	// the directory after quiesce.
	published map[string]provision.Artifact
	fetched   [][2]string
	nextArt   int

	// Remote-call churn state for the trace-completeness invariant:
	// calls issued vs. callbacks fired (callbacks run on the engine
	// goroutine, like the observers), and the name of the replicated
	// service whose failover chain the calls walk.
	traced    string
	calls     int
	callsDone int
}

func newChaosHarness(t *testing.T, seed int64, nodeCount int, opts ...Option) *chaosHarness {
	t.Helper()
	h := &chaosHarness{
		t:         t,
		c:         New(seed, opts...),
		rng:       rand.New(rand.NewSource(seed)),
		regs:      make(map[string]*module.ServiceRegistration),
		parts:     make(map[[2]int]bool),
		downSrv:   make(map[int]bool),
		published: make(map[string]provision.Artifact),
	}
	for i := 0; i < nodeCount; i++ {
		if _, err := h.c.AddNode(NodeConfig{ID: fmt.Sprintf("node%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.c.Settle(2 * time.Second)
	h.nodes = h.c.Nodes()
	return h
}

// observe opens a subscriber on the nodeIdx'th node, failing over across
// the given server nodes (default: its own node plus the next one).
func (h *chaosHarness) observe(name string, nodeIdx int, serverIdxs ...int) *chaosObserver {
	h.t.Helper()
	if len(serverIdxs) == 0 {
		serverIdxs = []int{nodeIdx, (nodeIdx + 1) % len(h.nodes)}
	}
	addrs := make([]string, len(serverIdxs))
	for i, idx := range serverIdxs {
		addrs[i] = h.nodes[idx].RemoteAddr()
	}
	o := &chaosObserver{name: name, state: make(map[string]remote.ServiceEvent)}
	sub, err := h.nodes[nodeIdx].SubscribeEvents("svc.*", o.onEvent, addrs...)
	if err != nil {
		h.t.Fatal(err)
	}
	o.sub = sub
	h.obs = append(h.obs, o)
	h.t.Cleanup(sub.Close)
	return o
}

// step performs one random fault/churn operation and lets the cluster
// run for a random slice of simulated time.
func (h *chaosHarness) step() {
	switch roll := h.rng.Intn(100); {
	case roll < 20:
		h.exportOne()
	case roll < 34:
		h.unexportOne()
	case roll < 52:
		h.partitionPair()
	case roll < 70:
		h.healPair()
	case roll < 80:
		h.killServer()
	case roll < 90:
		h.restartServer()
	default:
		h.blip()
	}
	h.c.Settle(time.Duration(20+h.rng.Intn(180)) * time.Millisecond)
}

// stepProvision performs one random fault/churn operation from the base
// schedule EXTENDED with provisioning ops — artifact publishes and
// on-demand fetches land in the same fault windows the event stream is
// churned through. Used by the provisioning-invariant matrix; step()
// keeps the original schedule so the event-stream seeds replay
// unchanged.
func (h *chaosHarness) stepProvision() {
	switch roll := h.rng.Intn(100); {
	case roll < 14:
		h.exportOne()
	case roll < 24:
		h.unexportOne()
	case roll < 34:
		h.publishOne()
	case roll < 44:
		h.fetchOne()
	case roll < 58:
		h.partitionPair()
	case roll < 72:
		h.healPair()
	case roll < 80:
		h.killServer()
	case roll < 90:
		h.restartServer()
	default:
		h.blip()
	}
	h.c.Settle(time.Duration(20+h.rng.Intn(180)) * time.Millisecond)
}

// stepTrace performs one random fault/churn operation from the base
// schedule EXTENDED with remote calls against the churned exports —
// invocations land mid-partition and against killed servers, so the
// invoker's failover path runs while the wire is unreliable. Used by
// the trace-completeness matrix; step() keeps the original schedule so
// the event-stream seeds replay unchanged.
func (h *chaosHarness) stepTrace() {
	switch roll := h.rng.Intn(100); {
	case roll < 12:
		h.exportOne()
	case roll < 20:
		h.unexportOne()
	case roll < 46:
		h.callOne()
	case roll < 58:
		h.partitionPair()
	case roll < 70:
		h.healPair()
	case roll < 79:
		h.killServer()
	case roll < 90:
		h.restartServer()
	default:
		h.blip()
	}
	h.c.Settle(time.Duration(20+h.rng.Intn(180)) * time.Millisecond)
}

// exportReplicated exports one service under the same name on every
// node — the failover chain the traced calls walk when the replica the
// round-robin lands on is partitioned away or its server is down.
func (h *chaosHarness) exportReplicated(name string) {
	h.traced = name
	for _, n := range h.nodes {
		if _, err := n.ExportService(name, "app.Chaos", greeter{node: n.ID()}); err != nil {
			h.t.Fatalf("export %s on %s: %v", name, n.ID(), err)
		}
	}
}

// callOne invokes the replicated traced service (mostly) or a random
// single-replica chaos export from a random node. Mid-fault calls may
// fail over across replicas, time out, or fail outright — all allowed;
// the invariant is that every attempt whose request demonstrably
// executed (a response came back) pairs with a server span after the
// heal.
func (h *chaosHarness) callOne() {
	name := h.traced
	if len(h.exports) > 0 && h.rng.Intn(4) == 0 {
		name = h.exports[h.rng.Intn(len(h.exports))] // exports is kept sorted
	}
	if name == "" {
		return
	}
	node := h.nodes[h.rng.Intn(len(h.nodes))]
	h.calls++
	node.InvokeRemote(name, "Greet", []any{node.ID()}, func([]any, error) {
		h.callsDone++
	})
}

// publishOne publishes a unique signed artifact on a random node —
// possibly one that is partitioned or whose remote server is down, so
// the advertisement and the proactive replication must ride out the
// faults (anti-entropy and the periodic replication recheck).
func (h *chaosHarness) publishOne() {
	h.nextArt++
	location := fmt.Sprintf("app:chaos%03d", h.nextArt)
	img := &provision.BundleImage{
		ManifestText: fmt.Sprintf("Bundle-SymbolicName: com.chaos.art%03d\nBundle-Version: 1.0.0\n", h.nextArt),
		Classes:      map[string]string{"com.chaos.Main": fmt.Sprintf("payload-%03d", h.nextArt)},
	}
	art, payload, err := provision.NewArtifact(location, img,
		provision.SampleSigner, provision.SampleKeyring()[provision.SampleSigner], 64)
	if err != nil {
		h.t.Fatal(err)
	}
	node := h.nodes[h.rng.Intn(len(h.nodes))]
	if err := node.Provision().Publish(art, payload); err != nil {
		h.t.Fatalf("publish %s on %s: %v", location, node.ID(), err)
	}
	h.published[art.Digest] = art
}

// fetchOne starts an on-demand fetch of a random published artifact on a
// random node. Mid-fault fetches may fail (no replica reachable) — that
// is allowed; the invariant is that every fetch that SUCCEEDED is
// re-advertised and converges into the directory after the heal.
func (h *chaosHarness) fetchOne() {
	if len(h.published) == 0 {
		return
	}
	digests := make([]string, 0, len(h.published))
	for d := range h.published {
		digests = append(digests, d)
	}
	sort.Strings(digests) // keep the pick a pure function of the seed
	art := h.published[digests[h.rng.Intn(len(digests))]]
	node := h.nodes[h.rng.Intn(len(h.nodes))]
	node.Provision().EnsureDefinition(art.Location, func(err error) {
		if err == nil {
			// Runs on the engine goroutine, like the observers.
			h.fetched = append(h.fetched, [2]string{node.ID(), art.Digest})
		}
	})
}

// blip cuts a random link just long enough to lose pushes published
// meanwhile, then heals it before the failure detector or the renew
// notices — the scenario the broker's replay window and tail
// retransmission exist for (a long partition heals by resync instead).
func (h *chaosHarness) blip() {
	pair := h.pickPair()
	if h.parts[pair] {
		return
	}
	h.c.Network().Partition(h.nodes[pair[0]].ID(), h.nodes[pair[1]].ID())
	h.exportOne()
	h.c.Settle(time.Duration(10+h.rng.Intn(30)) * time.Millisecond)
	h.c.Network().Heal(h.nodes[pair[0]].ID(), h.nodes[pair[1]].ID())
}

func (h *chaosHarness) exportOne() {
	h.nextID++
	name := fmt.Sprintf("svc.chaos%03d", h.nextID)
	node := h.nodes[h.rng.Intn(len(h.nodes))]
	reg, err := node.ExportService(name, "app.Chaos", greeter{node: node.ID()})
	if err != nil {
		h.t.Fatalf("export %s on %s: %v", name, node.ID(), err)
	}
	h.regs[name] = reg
	h.exports = append(h.exports, name)
	sort.Strings(h.exports)
}

func (h *chaosHarness) unexportOne() {
	if len(h.exports) == 0 {
		return
	}
	i := h.rng.Intn(len(h.exports))
	name := h.exports[i]
	h.exports = append(h.exports[:i], h.exports[i+1:]...)
	if err := h.regs[name].Unregister(); err != nil {
		h.t.Fatalf("unexport %s: %v", name, err)
	}
	delete(h.regs, name)
}

func (h *chaosHarness) pickPair() [2]int {
	a := h.rng.Intn(len(h.nodes))
	b := h.rng.Intn(len(h.nodes) - 1)
	if b >= a {
		b++
	}
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (h *chaosHarness) partitionPair() {
	pair := h.pickPair()
	if h.parts[pair] {
		return
	}
	h.parts[pair] = true
	h.c.Network().Partition(h.nodes[pair[0]].ID(), h.nodes[pair[1]].ID())
}

func (h *chaosHarness) healPair() {
	if len(h.parts) == 0 {
		return
	}
	pairs := make([][2]int, 0, len(h.parts))
	for p := range h.parts {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i][0] < pairs[j][0] ||
			(pairs[i][0] == pairs[j][0] && pairs[i][1] < pairs[j][1])
	})
	pair := pairs[h.rng.Intn(len(pairs))]
	delete(h.parts, pair)
	h.c.Network().Heal(h.nodes[pair[0]].ID(), h.nodes[pair[1]].ID())
}

// killServer stops a node's remote-services listener — the event broker
// and invocation plane die while GCS membership stays up, the sharpest
// version of "the event server went away". At least one server survives.
func (h *chaosHarness) killServer() {
	if len(h.downSrv) >= len(h.nodes)-1 {
		return
	}
	idx := h.rng.Intn(len(h.nodes))
	for h.downSrv[idx] {
		idx = (idx + 1) % len(h.nodes)
	}
	h.downSrv[idx] = true
	h.nodes[idx].remoteSrv.Stop()
}

func (h *chaosHarness) restartServer() {
	if len(h.downSrv) == 0 {
		return
	}
	idxs := make([]int, 0, len(h.downSrv))
	for i := range h.downSrv {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	idx := idxs[h.rng.Intn(len(idxs))]
	delete(h.downSrv, idx)
	if err := h.nodes[idx].remoteSrv.Start(); err != nil {
		h.t.Fatalf("restart server on %s: %v", h.nodes[idx].ID(), err)
	}
}

// quiesce ends the fault injection: heal every partition, restart every
// killed server and let views merge, directories resync and subscribers
// heal their last gaps.
func (h *chaosHarness) quiesce() {
	h.c.Network().HealAll()
	h.parts = make(map[[2]int]bool)
	idxs := make([]int, 0, len(h.downSrv))
	for i := range h.downSrv {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs) // keep the run a pure function of the seed
	for _, idx := range idxs {
		if err := h.nodes[idx].remoteSrv.Start(); err != nil {
			h.t.Fatalf("restart server on %s: %v", h.nodes[idx].ID(), err)
		}
	}
	h.downSrv = make(map[int]bool)
	h.c.Settle(8 * time.Second)
}

// directoryView returns the converged "svc.*" slice of the replicated
// directory, failing the test if the nodes still disagree.
func (h *chaosHarness) directoryView() map[string]remote.ServiceEvent {
	h.t.Helper()
	view := make(map[string]remote.ServiceEvent)
	for _, info := range h.nodes[0].Migration().Directory().Endpoints() {
		if !strings.HasPrefix(info.Service, "svc.") {
			continue
		}
		view[info.Service+"@"+info.Node] = remote.ServiceEvent{
			Service: info.Service, Node: info.Node,
			Addr: info.Addr, Instance: info.Instance,
		}
	}
	for _, n := range h.nodes[1:] {
		other := 0
		for _, info := range n.Migration().Directory().Endpoints() {
			if !strings.HasPrefix(info.Service, "svc.") {
				continue
			}
			other++
			key := info.Service + "@" + info.Node
			if ref, ok := view[key]; !ok || ref.Addr != info.Addr || ref.Instance != info.Instance {
				h.t.Fatalf("directories diverged: %s has %s = %+v, %s disagrees",
					n.ID(), key, info, h.nodes[0].ID())
			}
		}
		if other != len(view) {
			h.t.Fatalf("directories diverged: %s holds %d svc.* records, %s holds %d",
				n.ID(), other, h.nodes[0].ID(), len(view))
		}
	}
	return view
}

// verify asserts the stream invariants: no violations during the run,
// and every observer's final view equal to the directory view.
func (h *chaosHarness) verify() {
	h.t.Helper()
	dir := h.directoryView()
	for _, o := range h.obs {
		if len(o.violations) > 0 {
			h.t.Fatalf("observer %s: %d invariant violations, first: %s",
				o.name, len(o.violations), o.violations[0])
		}
		if len(o.state) != len(dir) {
			h.t.Fatalf("observer %s: view has %d replicas, directory %d\nview: %v\ndir:  %v\nstats: %+v",
				o.name, len(o.state), len(dir), keysOf(o.state), keysOf(dir), o.sub.Stats())
		}
		for key, ref := range dir {
			got, ok := o.state[key]
			if !ok || got.Addr != ref.Addr || got.Instance != ref.Instance {
				h.t.Fatalf("observer %s: replica %s = %+v, directory says %+v",
					o.name, key, got, ref)
			}
		}
		if o.events == 0 {
			h.t.Fatalf("observer %s saw no events at all", o.name)
		}
	}
}

// verifyProvisioning asserts the provisioning invariants after quiesce:
//
//   - artifact directories converged replica by replica across nodes;
//   - every published digest reaches the replication factor on live
//     holders, and no phantom holders: a node the directory advertises
//     really has the bytes in its store, and (the inverse) every node
//     actually holding a published digest is advertised;
//   - every on-demand fetch that succeeded mid-fault converged into the
//     directory (the fetching node is an advertised holder);
//   - every published location resolves from every node's index.
func (h *chaosHarness) verifyProvisioning() {
	h.t.Helper()
	ref := h.nodes[0].Migration().Directory().Artifacts()
	for _, n := range h.nodes[1:] {
		if got := n.Migration().Directory().Artifacts(); !reflect.DeepEqual(got, ref) {
			h.t.Fatalf("artifact directories diverged:\n%s: %+v\n%s: %+v",
				h.nodes[0].ID(), ref, n.ID(), got)
		}
	}
	byNode := make(map[string]*Node, len(h.nodes))
	live := make(map[string]bool)
	for _, n := range h.nodes {
		byNode[n.ID()] = n
	}
	for _, id := range h.nodes[0].Member().View().Members {
		live[id] = true
	}
	holders := make(map[string][]provision.Artifact)
	for _, rec := range ref {
		holders[rec.Digest] = append(holders[rec.Digest], rec)
	}
	rf := replicationFactor
	if len(h.nodes) < rf {
		rf = len(h.nodes)
	}
	for digest, art := range h.published {
		recs := holders[digest]
		if len(recs) < rf {
			h.t.Fatalf("%s (%s) advertised by %d holders after heal, want ≥ %d",
				art.Location, digest[:8], len(recs), rf)
		}
		for _, rec := range recs {
			if !live[rec.Node] {
				h.t.Fatalf("phantom holder: %s advertised by departed node %s", art.Location, rec.Node)
			}
			if !byNode[rec.Node].Provision().Store().Has(digest) {
				h.t.Fatalf("phantom holder: %s advertises %s without the bytes", rec.Node, art.Location)
			}
		}
		// The inverse: actual holdings are all advertised (a fetch or
		// repair whose announcement was partitioned away must have
		// converged through anti-entropy).
		for _, n := range h.nodes {
			if !n.Provision().Store().Has(digest) {
				continue
			}
			advertised := false
			for _, rec := range recs {
				if rec.Node == n.ID() {
					advertised = true
				}
			}
			if !advertised {
				h.t.Fatalf("%s holds %s but the directory does not advertise it", n.ID(), art.Location)
			}
		}
		// Resolvable everywhere.
		for _, n := range h.nodes {
			if rec, ok := n.Migration().Directory().ArtifactByLocation(art.Location); !ok || rec.Digest != digest {
				h.t.Fatalf("%s cannot resolve %s (got %+v ok=%v)", n.ID(), art.Location, rec, ok)
			}
		}
	}
	for _, f := range h.fetched {
		node, digest := f[0], f[1]
		found := false
		for _, rec := range holders[digest] {
			if rec.Node == node {
				found = true
			}
		}
		if !found {
			h.t.Fatalf("mid-fault fetch on %s of %s never converged into the directory", node, digest[:8])
		}
	}
}

// verifyTraces asserts the trace-completeness invariant after quiesce:
// assembling every node's span store (the rings survive server kills, so
// both halves of a hop cut by a fault are still there), every client
// attempt span that carried a response back — Err == "", meaning the
// request executed on some replica, successfully or with an application
// error — must pair with a server span whose Parent is the attempt's
// span id. Attempts that died in transport or hit an unavailable replica
// record the failure cause instead and feed the NEXT attempt's Cause, so
// mid-partition failovers show up as chains: failed attempts annotated
// with why, then a clean attempt paired with its server-side twin.
func (h *chaosHarness) verifyTraces() {
	h.t.Helper()
	if h.calls == 0 {
		h.t.Fatal("trace chaos run issued no calls")
	}
	if h.callsDone != h.calls {
		h.t.Fatalf("chaos calls: %d issued, only %d completed after quiesce", h.calls, h.callsDone)
	}
	var all []obs.Span
	for _, n := range h.nodes {
		all = append(all, n.Obs().Tracer.Store().All()...)
	}
	type hop struct{ trace, parent uint64 }
	server := make(map[hop]int)
	for _, sp := range all {
		if sp.Kind == obs.SpanServer {
			server[hop{sp.TraceID, sp.Parent}]++
		}
	}
	var roots, attempts, clean, failovers, causes int
	for _, sp := range all {
		if sp.Kind != obs.SpanClient {
			continue
		}
		if sp.Parent == 0 {
			roots++
			continue
		}
		attempts++
		if sp.Attempt > 0 {
			failovers++
			if sp.Cause == "" {
				h.t.Fatalf("failover attempt without a retry cause: %s", sp)
			}
			causes++
		}
		if sp.Err != "" {
			continue // never reached the service: no server twin owed
		}
		clean++
		if server[hop{sp.TraceID, sp.SpanID}] == 0 {
			h.t.Fatalf("attempt span has no paired server span: %s", sp)
		}
	}
	if roots == 0 || clean == 0 {
		h.t.Fatalf("trace run too quiet: %d root spans, %d clean attempts", roots, clean)
	}
	// The schedule must actually have exercised the failover path —
	// otherwise the invariant is vacuous for the interesting case.
	if failovers == 0 {
		h.t.Fatalf("no failover attempts recorded across %d calls (%d attempts)", h.calls, attempts)
	}
	h.t.Logf("traces: %d calls, %d roots, %d attempts (%d clean, %d failovers)",
		h.calls, roots, attempts, clean, failovers)
}

func keysOf(m map[string]remote.ServiceEvent) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestChaosEventStreamInvariants runs the harness over a fixed seed
// matrix on a 3-node cluster: randomized kill/restart/partition/heal
// with continuous export churn must never violate the event-stream
// invariants, and every subscriber converges to the directory.
func TestChaosEventStreamInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newChaosHarness(t, seed, 3)
			// Seed a few exports so the first resync is non-trivial.
			for i := 0; i < 3; i++ {
				h.exportOne()
			}
			h.c.Settle(500 * time.Millisecond)
			h.observe("obs-a", 1, 0, 1, 2)
			h.observe("obs-b", 2, 2, 0)
			h.c.Settle(300 * time.Millisecond)
			for i := 0; i < 40; i++ {
				h.step()
			}
			h.quiesce()
			h.verify()
		})
	}
}

// TestChaosProvisioningInvariants extends the chaos schedule with
// artifact publishes and on-demand fetches injected into the same fault
// windows (kill/restart, partition/heal, blips): after quiesce every
// published artifact must sit at the replication factor on live holders
// with no phantom records, mid-fault fetches must have converged into
// the directory, and the event-stream invariants must hold throughout —
// the provisioning layer rides the same unified directory the events do.
func TestChaosProvisioningInvariants(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newChaosHarness(t, seed, 3)
			for i := 0; i < 2; i++ {
				h.exportOne()
				h.publishOne()
			}
			h.c.Settle(500 * time.Millisecond)
			h.observe("obs-p", 1, 0, 1, 2)
			h.c.Settle(300 * time.Millisecond)
			for i := 0; i < 40; i++ {
				h.stepProvision()
			}
			h.quiesce()
			h.verify()
			h.verifyProvisioning()
		})
	}
}

// TestChaosTraceCompleteness runs the call-extended chaos schedule and
// asserts the observability plane's trace invariant: after the heal,
// every completed call's client attempt spans pair with server spans —
// including attempts that failed over mid-partition — assembled across
// every node's span store via the per-node tracers.
func TestChaosTraceCompleteness(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newChaosHarness(t, seed, 3)
			h.exportReplicated("svc.traced")
			for i := 0; i < 3; i++ {
				h.exportOne()
			}
			h.c.Settle(500 * time.Millisecond)
			for i := 0; i < 60; i++ {
				h.stepTrace()
			}
			h.quiesce()
			h.verifyTraces()
		})
	}
}

// TestChaosSoakFiveNodes reuses the harness for a longer churn run on a
// five-node cluster with three observers — the soak configuration.
func TestChaosSoakFiveNodes(t *testing.T) {
	h := newChaosHarness(t, 7, 5)
	for i := 0; i < 4; i++ {
		h.exportOne()
	}
	h.c.Settle(500 * time.Millisecond)
	h.observe("soak-a", 0, 0, 2, 4)
	h.observe("soak-b", 2, 3, 1)
	h.observe("soak-c", 4, 4, 0, 1)
	h.c.Settle(300 * time.Millisecond)
	for i := 0; i < 100; i++ {
		h.step()
	}
	h.quiesce()
	h.verify()
}
