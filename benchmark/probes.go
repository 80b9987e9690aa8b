package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/obs"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/san"
	"dosgi/internal/security"
	"dosgi/internal/sim"
)

// perLayer lists every per-layer metric, in the order the traced run
// prints them. README.md says which end-to-end metric, on which workload,
// each is expected to move.
var perLayer = []metricDef{
	{name: "remote.codec.encode_small_ns", unit: "ns", better: "lower"},
	{name: "remote.codec.decode_small_ns", unit: "ns", better: "lower"},
	{name: "remote.codec.allocs_small", unit: "count", better: "lower"},
	{name: "remote.codec.encode_64k_ns", unit: "ns", better: "lower"},
	{name: "remote.codec.decode_64k_ns", unit: "ns", better: "lower"},
	{name: "remote.codec.decode_borrow_64k_ns", unit: "ns", better: "lower"},
	{name: "remote.codec.allocs_64k", unit: "count", better: "lower"},
	{name: "remote.dispatch.invoke_ns", unit: "ns", better: "lower"},
	{name: "remote.dispatch.allocs", unit: "count", better: "lower"},
	{name: "remote.pool.invoke_ns", unit: "ns", better: "lower"},
	{name: "remote.invoker.overhead_ns", unit: "ns", better: "lower"},
	{name: "remote.tcp.rtt_us", unit: "us", better: "lower"},
	{name: "remote.invoker.self_us", unit: "us", better: "lower"},
	{name: "dosgid.server_queue_us", unit: "us", better: "lower"},
	{name: "dosgid.handler_us", unit: "us", better: "lower"},
	{name: "dosgid.ready_ms", unit: "ms", better: "lower"},
	{name: "dosgid.rss_mb", unit: "MB", better: "lower"},
	{name: "holder.rss_mb", unit: "MB", better: "lower"},
	{name: "provision.store.chunk_ns", unit: "ns", better: "lower"},
	{name: "provision.digest_1m_us", unit: "us", better: "lower"},
	{name: "provision.verify_us", unit: "us", better: "lower"},
	{name: "provision.fetch.chunk_rtt_us", unit: "us", better: "lower"},
	{name: "provision.fetch.assemble_us", unit: "us", better: "lower"},
	{name: "provision.fetch.chunks_per_op", unit: "count", better: "lower"},
	{name: "provision.fetch.bytes_per_op", unit: "count", better: "lower"},
	{name: "provision.fetch.retries", unit: "count", better: "lower"},
	{name: "provision.fetch.mb_s", unit: "MB/s", better: "higher"},
	{name: "migrate.directory.put_ns", unit: "ns", better: "lower"},
	{name: "migrate.directory.lookup_ns", unit: "ns", better: "lower"},
	{name: "migrate.directory.replace_1k_us", unit: "us", better: "lower"},
	{name: "migrate.shard.route_ns", unit: "ns", better: "lower"},
	{name: "migrate.announce_submit_us", unit: "us", better: "lower"},
	{name: "gcs.msgs_per_write", unit: "count", better: "lower"},
	{name: "netsim.bytes_per_write", unit: "count", better: "lower"},
	{name: "migrate.hook_deltas_per_write", unit: "count", better: "lower"},
	{name: "migrate.silent_sync_share", unit: "ratio", better: "higher"},
	{name: "migrate.converge_virtual_ms", unit: "ms", better: "lower"},
	{name: "gcs.detect_virtual_ms", unit: "ms", better: "lower"},
	{name: "migrate.restore_us", unit: "us", better: "lower"},
	{name: "cluster.outage_virtual_ms", unit: "ms", better: "lower"},
	{name: "gcs.view_changes_per_round", unit: "count", better: "lower"},
	{name: "gcs.msgs_per_failover", unit: "count", better: "lower"},
	{name: "core.create_start_us", unit: "us", better: "lower"},
	{name: "core.checkpoint_us", unit: "us", better: "lower"},
	{name: "core.checkpoint_bytes", unit: "count", better: "lower"},
	{name: "core.restore_us", unit: "us", better: "lower"},
	{name: "module.install_start_us", unit: "us", better: "lower"},
	{name: "san.put_get_ns", unit: "ns", better: "lower"},
	{name: "cluster.build_ms", unit: "ms", better: "lower"},
	{name: "obs.histogram.record_ns", unit: "ns", better: "lower"},
	{name: "load.saturated_p99_ms", unit: "ms", better: "lower"},
	{name: "load.segment_spread_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// timeOp returns the cost of one fn call in nanoseconds: nine batches of
// iters calls, reduced with the quiet-end estimator like any phase.
func timeOp(iters int, fn func()) float64 {
	fn() // warm
	per := make([]float64, 9)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return quietEnd(per, false).quiet
}

// timeOpUndo is timeOp for a call that must be undone before it can run
// again: only fn is timed, call by call.
func timeOpUndo(iters int, fn, undo func()) float64 {
	fn()
	undo()
	per := make([]float64, 9)
	for b := range per {
		var busy time.Duration
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			fn()
			busy += time.Since(t0)
			undo()
		}
		per[b] = float64(busy.Nanoseconds()) / float64(iters)
	}
	return quietEnd(per, false).quiet
}

// nopConn answers every call at once with a canned response: what is left
// is the pool's and the invoker's own cost.
type nopConn struct{ resp *remote.Response }

func (c *nopConn) Call(_ *remote.Request, cb func(*remote.Response, error)) error {
	cb(c.resp, nil)
	return nil
}
func (c *nopConn) InFlight() int { return 0 }
func (c *nopConn) Addr() string  { return "nop" }
func (c *nopConn) Close() error  { return nil }

type nopTransport struct{ resp *remote.Response }

func (t nopTransport) Dial(string) (remote.Conn, error) { return &nopConn{t.resp}, nil }

type probeEcho struct{}

func (probeEcho) Add(a, b int64) int64 { return a + b }

type probeSource struct{}

func (probeSource) Lookup(name string) (any, bool) { return probeEcho{}, name == "echo" }

// runProbes times each layer on its own, in process. The metrics are all
// wall-clock costs of the real code, or exact allocation counts. A probe
// whose layer refuses its input panics through must; that is reported as
// the run's error.
func runProbes() (m metrics, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer probe: %v", p)
		}
	}()
	m = metrics{}
	probeRemote(m)
	probeProvision(m)
	probeDirectory(m)
	probeCore(m)
	h := obs.NewHistogram()
	m["obs.histogram.record_ns"] = wall(timeOp(100_000, func() { h.Record(70 * time.Microsecond) }))
	return m, nil
}

func probeRemote(m metrics) {
	small := &remote.Request{Corr: 7, Service: "echo", Method: "Add", Args: []any{int64(2), int64(3)}}
	smallFrame, err := remote.EncodeRequest(small)
	must(err)
	m["remote.codec.encode_small_ns"] = wall(timeOp(20_000, func() { sink, _ = remote.EncodeRequest(small) }))
	m["remote.codec.decode_small_ns"] = wall(timeOp(20_000, func() { sink, _, _, _ = remote.DecodeFrame(smallFrame) }))
	m["remote.codec.allocs_small"] = count(testing.AllocsPerRun(200, func() {
		f, _ := remote.EncodeRequest(small)
		sink, _, _, _ = remote.DecodeFrame(f)
	}))

	chunk := make([]byte, provision.DefaultChunkSize)
	rand.New(rand.NewSource(1)).Read(chunk)
	big := &remote.Response{Corr: 7, Status: remote.StatusOK, Results: []any{chunk}}
	bigFrame, err := remote.EncodeResponse(big)
	must(err)
	m["remote.codec.encode_64k_ns"] = wall(timeOp(2_000, func() { sink, _ = remote.EncodeResponse(big) }))
	m["remote.codec.decode_64k_ns"] = wall(timeOp(2_000, func() { _, sink, _, _ = remote.DecodeFrame(bigFrame) }))
	m["remote.codec.decode_borrow_64k_ns"] = wall(timeOp(2_000, func() { _, sink, _, _ = remote.DecodeFrameBorrowing(bigFrame) }))
	m["remote.codec.allocs_64k"] = count(testing.AllocsPerRun(200, func() {
		f, _ := remote.EncodeResponse(big)
		_, sink, _, _ = remote.DecodeFrame(f)
	}))

	disp := remote.NewDispatcher(probeSource{})
	m["remote.dispatch.invoke_ns"] = wall(timeOp(20_000, func() { sink = disp.Serve(small) }))
	m["remote.dispatch.allocs"] = count(testing.AllocsPerRun(200, func() { sink = disp.Serve(small) }))

	canned := &remote.Response{Status: remote.StatusOK, Results: []any{int64(5)}}
	pool := remote.NewPool(nopTransport{canned})
	defer pool.Close()
	poolNs := timeOp(20_000, func() {
		_ = pool.Invoke("nop", &remote.Request{Service: "echo", Method: "Add", Args: small.Args},
			func(r *remote.Response, _ error) { sink = r })
	})
	resolver := remote.NewStaticResolver()
	resolver.Set("echo", remote.Endpoint{Addr: "nop"})
	inv := remote.NewInvoker(pool, resolver)
	invNs := timeOp(20_000, func() {
		inv.Go("echo", "Add", small.Args, func(r []any, _ error) { sink = r })
	})
	m["remote.pool.invoke_ns"] = wall(poolNs)
	m["remote.invoker.overhead_ns"] = wall(invNs - poolNs)
}

func probeProvision(m metrics) {
	blob := make([]byte, holderBlobBytes)
	rand.New(rand.NewSource(2)).Read(blob)
	img := &provision.BundleImage{
		ManifestText: "Bundle-SymbolicName: bench.probe\nBundle-Version: 1.0.0\n",
		DataFiles:    map[string][]byte{"blob": blob},
	}
	art, payload, err := provision.NewArtifact("bench:probe", img, provision.SampleSigner,
		provision.SampleKeyring()[provision.SampleSigner], 0)
	must(err)
	store := provision.NewStore()
	must(store.Add(art, payload))
	policy := security.NewPolicy(false)
	policy.Grant(provision.SampleSigner, provision.DeployPermission("*"))
	verifier := provision.NewVerifier(provision.SampleKeyring(), policy)
	i := int64(0)
	m["provision.store.chunk_ns"] = wall(timeOp(2_000, func() {
		sink, _ = store.Chunk(art.Digest, i%art.Chunks)
		i++
	}))
	m["provision.digest_1m_us"] = wall(timeOp(20, func() { sink = provision.PayloadDigest(payload) }) / 1e3)
	m["provision.verify_us"] = wall(timeOp(20, func() { must(verifier.Verify(art, payload)) }) / 1e3)
}

func probeDirectory(m metrics) {
	const n = 4096
	dir := migrate.NewDirectory()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("svc-%04d", i)
		dir.PutEndpoint(migrate.EndpointInfo{Service: names[i], Node: "n0", Addr: "10.0.0.1:7100"})
	}
	i := 0
	m["migrate.directory.put_ns"] = wall(timeOp(20_000, func() {
		dir.PutEndpoint(migrate.EndpointInfo{Service: names[i%n], Node: "n0", Addr: "10.0.0.2:7100"})
		i++
	}))
	m["migrate.directory.lookup_ns"] = wall(timeOp(20_000, func() {
		sink = dir.EndpointsFor(names[i%n])
		i++
	}))
	set := make([]migrate.EndpointInfo, 1000)
	for j := range set {
		set[j] = migrate.EndpointInfo{Service: names[j], Node: "n1", Addr: "10.0.0.3:7100"}
	}
	m["migrate.directory.replace_1k_us"] = wall(timeOp(50, func() { dir.ReplaceEndpointsOf("n1", set) }) / 1e3)
	router := migrate.NewShardRouter(8)
	m["migrate.shard.route_ns"] = wall(timeOp(100_000, func() {
		sink = router.Shard(names[i%n])
		i++
	}))
}

func probeCore(m metrics) {
	defs := module.NewDefinitionRegistry()
	defs.MustAdd("app:bench", benchBundle())
	host := module.New(module.WithName("probe"), module.WithDefinitions(defs))
	must(host.Start())
	mgr := core.NewManager(host, core.Hooks{})
	desc := benchTenant("probe")
	destroy := func() { must(mgr.Destroy(desc.ID)) }
	create := func() {
		_, err := mgr.Create(desc)
		must(err)
		must(mgr.Start(desc.ID))
	}
	m["core.create_start_us"] = wall(timeOpUndo(30, create, destroy) / 1e3)
	create()
	var encoded []byte
	m["core.checkpoint_us"] = wall(timeOp(200, func() {
		chk, err := mgr.Checkpoint(desc.ID)
		must(err)
		encoded, err = chk.Encode()
		must(err)
	}) / 1e3)
	m["core.checkpoint_bytes"] = count(float64(len(encoded)))
	destroy()
	m["core.restore_us"] = wall(timeOpUndo(30, func() {
		chk, err := core.DecodeCheckpoint(encoded)
		must(err)
		_, err = mgr.RestoreInstance(chk, true)
		must(err)
	}, destroy) / 1e3)

	m["module.install_start_us"] = wall(timeOp(200, func() {
		b, err := host.InstallBundle("app:bench")
		must(err)
		must(b.Start())
		must(b.Uninstall())
	}) / 1e3)

	store := san.NewStore(sim.New(1))
	m["san.put_get_ns"] = wall(timeOp(20_000, func() {
		store.Put("checkpoints/probe", encoded)
		sink, _ = store.Get("checkpoints/probe")
	}))
}

// must aborts the probes (see runProbes) when a layer returns an error on
// input that is valid today: its contract changed and the probe must follow.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
