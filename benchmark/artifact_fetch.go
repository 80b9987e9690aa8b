package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/module"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/security"
	"dosgi/internal/services"
)

const (
	holderArtifacts  = 64
	holderBlobBytes  = 768 << 10 // base64 in the image JSON makes the payload just over 1 MiB
	holderReadyMark  = "HOLDER READY "
	fetchConcurrency = 4
	fetchSegment     = time.Second // ~400 fetches saturated: a shorter segment is cut to ±4 of too few
	fetchTimeout     = 10 * time.Second
)

// runHolder is the artifact_fetch child: a repository holding
// holderArtifacts signed ~1 MiB artifacts generated from the seed, served
// over the remote stack exactly as dosgid serves its own (the same public
// constructors), which only ever holds ≤32 KiB samples. It exits when its
// stdin closes.
func runHolder(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	store := provision.NewStore()
	key := provision.SampleKeyring()[provision.SampleSigner]
	blob := make([]byte, holderBlobBytes)
	for i := 0; i < holderArtifacts; i++ {
		rng.Read(blob)
		img := &provision.BundleImage{
			ManifestText: fmt.Sprintf("Bundle-SymbolicName: bench.art%02d\nBundle-Version: 1.0.0\n", i),
			DataFiles:    map[string][]byte{"blob": blob},
		}
		art, payload, err := provision.NewArtifact(fmt.Sprintf("bench:art%02d", i), img, provision.SampleSigner, key, 0)
		if err != nil {
			return err
		}
		if err := store.Add(art, payload); err != nil {
			return err
		}
	}

	sched := clock.NewReal()
	defer sched.Stop()
	host := module.New(module.WithName("holder"))
	if err := host.Start(); err != nil {
		return err
	}
	if _, err := host.SystemContext().RegisterSingle(provision.ServiceClass,
		provision.NewRepoService(store), module.Properties{
			module.PropServiceExported:     true,
			module.PropServiceExportedName: provision.ServiceName,
		}); err != nil {
		return err
	}
	exporter, err := remote.NewExporter(host.SystemContext())
	if err != nil {
		return err
	}
	defer exporter.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := remote.ServeTCP(ln, remote.NewDispatcher(exporter), remote.WithTCPServerClock(sched.Now))
	defer srv.Close()
	fmt.Println(holderReadyMark + srv.Addr().String())
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}

// artifactFetch is the bulk-transfer workload: provision.Fetcher (default
// window and chunk size) plus Verifier.Verify against the holder child.
type artifactFetch struct {
	env      *env
	holder   *child
	sched    *clock.Real
	pool     *remote.Pool
	fetcher  *provision.Fetcher
	verifier *provision.Verifier
	counters *services.ProvisionCounters
	arts     []provision.Artifact
	order    []int // seeded fetch order
	addr     string
	lm       metrics
}

func setupArtifactFetch(e *env, seed int64) (system, error) {
	w := &artifactFetch{env: e, lm: metrics{}, counters: &services.ProvisionCounters{}}
	h, err := spawn(e.place, e.self, "-role", "holder", "-seed", fmt.Sprint(seed))
	if err != nil {
		return nil, err
	}
	w.holder = h
	line, err := h.awaitLine(holderReadyMark, childReadyTimeout)
	if err != nil {
		h.stop()
		return nil, fmt.Errorf("holder: %w", err)
	}
	w.addr = strings.TrimPrefix(line, holderReadyMark)

	w.sched = clock.NewReal()
	w.pool = remote.NewPool(e.transport(remote.NewTCPTransport(w.sched)))
	ep := remote.Endpoint{Addr: w.addr}
	resolver := remote.NewStaticResolver()
	resolver.Set(provision.ServiceName, ep)
	inv := remote.NewInvoker(w.pool, resolver)
	w.fetcher = provision.NewFetcher(w.pool, provision.StaticReplicas{Eps: []remote.Endpoint{ep}},
		provision.WithCounters(w.counters))
	policy := security.NewPolicy(false)
	policy.Grant(provision.SampleSigner, provision.DeployPermission("*"))
	w.verifier = provision.NewVerifier(provision.SampleKeyring(), policy)

	// The metadata comes from the holder's index, as a deployer gets it.
	fail := func(err error) (system, error) {
		w.close()
		return nil, fmt.Errorf("artifact_fetch: %w", err)
	}
	res, err := inv.Call(provision.ServiceName, "Locations")
	if err != nil || len(res) != 1 {
		return fail(fmt.Errorf("Locations: %v", err))
	}
	locs, _ := res[0].([]any)
	for _, l := range locs {
		res, err := inv.Call(provision.ServiceName, "Describe", l)
		if err != nil || len(res) != 1 {
			return fail(fmt.Errorf("Describe %v: %v", l, err))
		}
		data, _ := res[0].([]byte)
		art, err := provision.UnmarshalArtifact(data)
		if err != nil {
			return fail(err)
		}
		w.arts = append(w.arts, art)
	}
	if len(w.arts) != holderArtifacts {
		return fail(fmt.Errorf("holder lists %d artifacts, want %d", len(w.arts), holderArtifacts))
	}
	rng := rand.New(rand.NewSource(seed))
	w.order = make([]int, 4096)
	for i := range w.order {
		w.order[i] = rng.Intn(len(w.arts))
	}
	if !w.op(nil).once() {
		return fail(fmt.Errorf("first fetch failed"))
	}
	return w, nil
}

// op fetches one artifact and verifies it: the payload must have the
// advertised size and digest and a valid signature from a permitted
// signer. Verification hops off the connection's reader goroutine, as
// dosgid's deployer continuations do.
func (w *artifactFetch) op(tr *tracer) asyncOp {
	return func(caller, seq int, done func(bool)) {
		art := w.arts[w.order[(caller*1021+seq)%len(w.order)]]
		op := int64(caller)<<32 | int64(seq)
		root := tr.start("provision.fetch", 0, op)
		tr.section(root, func() {
			w.fetcher.Fetch(art, func(payload []byte, err error) {
				tr.end(root)
				if err != nil || int64(len(payload)) != art.Size {
					done(false)
					return
				}
				go func() {
					v := tr.start("provision.verify", 0, op)
					err := w.verifier.Verify(art, payload)
					tr.end(v)
					done(err == nil)
				}()
			})
		})
	}
}

func (w *artifactFetch) cpu() time.Duration { return selfCPU() + w.holder.cpu() }

func (w *artifactFetch) phase(saturated bool, d time.Duration, tr *tracer) ([]segment, int, int) {
	depth := 1
	if saturated {
		depth = fetchConcurrency
	}
	bytes0 := w.counters.BytesTransferred.Load()
	seg := fetchSegment / time.Duration(w.env.plan.opScale)
	segs, attempted, failed := closedLoop(1, depth, max(1, int(d/seg)), seg, fetchTimeout, w.cpu, w.op(tr))
	if saturated && attempted > failed {
		var wallT time.Duration
		for _, s := range segs {
			wallT += s.wall
		}
		moved := float64(w.counters.BytesTransferred.Load() - bytes0)
		w.lm["provision.fetch.mb_s"] = wall(moved / 1e6 / wallT.Seconds())
		w.lm["provision.fetch.bytes_per_op"] = count(moved / float64(attempted))
	}
	return segs, attempted, failed
}

func (w *artifactFetch) warm(d time.Duration) {
	closedLoop(1, fetchConcurrency, 1, d, fetchTimeout, w.cpu, w.op(nil))
}

func (w *artifactFetch) layer(tr *tracer) metrics {
	var chunks int64
	for _, a := range w.arts {
		chunks += a.Chunks
	}
	w.lm["holder.rss_mb"] = wall(w.holder.rssMB())
	w.lm["provision.fetch.chunks_per_op"] = count(float64(chunks) / float64(len(w.arts)))
	w.lm["provision.fetch.retries"] = count(float64(w.counters.FetchRetries.Load()))
	if tr != nil {
		w.lm["provision.fetch.chunk_rtt_us"] = wall(p50us(tr.durations("remote.conn.call")))
		w.lm["provision.fetch.assemble_us"] = wall(p50us(tr.selfTimes("provision.fetch")))
	}
	return w.lm
}

func (w *artifactFetch) check() error { return nil } // every payload was verified as it arrived

func (w *artifactFetch) close() {
	w.pool.Close()
	w.sched.Stop()
	w.holder.stop()
}

func (w *artifactFetch) describe() string {
	return fmt.Sprintf("closed loop over loopback TCP to holder %s (%d artifacts of ~1 MiB): light 1 fetch at a time, saturated %d concurrent",
		w.addr, len(w.arts), fetchConcurrency)
}
