// Command dosgi-bench is the repository benchmark: one invocation runs one
// workload for one seed, checks every reply, and prints every metric by
// name and unit. See README.md for the method.
//
//	benchmark/run.sh --workload call_small --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dosgi/internal/remote"
)

// metricDef names one metric of BENCHMARK.json; the smoke test asserts the
// two lists below and that file agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// value is one measured number, tagged with the clock it was read from:
// "wall" (this host's clock), "virtual" (the simulation engine's clock,
// repeatable bit for bit) or "count".
type value struct {
	v      float64
	clock  string
	median float64 // plain median over segments, NaN where there are none
}

type metrics map[string]value

func wall(v float64) value    { return value{v, "wall", math.NaN()} }
func virtual(v float64) value { return value{v, "virtual", math.NaN()} }
func count(v float64) value   { return value{v, "count", math.NaN()} }

func fromEstimate(e estimate) value { return value{e.quiet, "wall", e.median} }

// plan sizes one run. Process workloads cut phases into segments of wall
// time, simulator workloads into fixed op counts; each workload names its
// own sizes (about 100 ms where that holds enough ops) and the smoke test
// divides them by opScale.
type plan struct {
	opScale int
	warm    time.Duration // at saturated concurrency, inside every set-up
	setups  int           // set-ups per timed run; setup_s is their median
	// rounds is how often a timed run alternates a light and a saturated
	// block. The host's slow spells last seconds to tens of seconds; with
	// both phases spread over the whole run, each finds the quiet segments
	// its estimate is read from.
	rounds int
}

// defaultPlan at --seconds 25: five rounds of a 2 s light and a 3 s
// saturated block.
var defaultPlan = plan{opScale: 1, warm: 2 * time.Second, setups: 3, rounds: 5}

// env is what a workload's set-up gets besides the seed.
type env struct {
	dosgid string // path of the dosgid binary
	self   string // path of this binary, for the holder role
	place  placement
	plan   plan
	sw     *traceSwitch // non-nil in traced runs
}

// transport wraps the transport a workload hands its pool in the span
// decorator when the run is traced.
func (e *env) transport(inner remote.Transport) remote.Transport {
	if e.sw == nil {
		return inner
	}
	return tracedTransport{inner: inner, sw: e.sw}
}

// system is one set-up workload, ready to be driven.
type system interface {
	// phase runs one timed closed-loop phase of about d at light or
	// saturated concurrency and returns its segments.
	phase(saturated bool, d time.Duration, tr *tracer) (segs []segment, attempted, failed int)
	warm(d time.Duration)
	// layer returns the per-layer metrics only the live system can give;
	// tr is the tracer of the traced phases, nil in a timed run.
	layer(tr *tracer) metrics
	// check is the end-of-run oracle over the system's final state.
	check() error
	describe() string
	close()
}

type workload struct {
	name  string
	setup func(e *env, seed int64) (system, error)
}

var workloads = []workload{
	{"call_small", setupCallSmall},
	{"artifact_fetch", setupArtifactFetch},
	{"directory_churn", setupDirectoryChurn},
	{"instance_failover", setupInstanceFailover},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is one workload run.
type result struct {
	e2e, layer        metrics
	attempted, failed int
	describe          string
}

// runTimed is the untraced run: set up (and warm) several times, then
// alternate light and saturated blocks, then the final oracle.
func runTimed(w *workload, e *env, seed int64, total time.Duration) (*result, error) {
	var setups []float64
	var sys system
	for i := 0; i < e.plan.setups; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, err := w.setup(e, seed)
		if err != nil {
			return nil, err
		}
		s.warm(e.plan.warm)
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.close()

	// Two fifths of every round go to the light block, the rest to the
	// saturated one.
	round := total / time.Duration(e.plan.rounds)
	r := &result{e2e: metrics{}, describe: sys.describe()}
	var lsegs, ssegs []segment
	for i := 0; i < e.plan.rounds; i++ {
		segs, a, f := sys.phase(false, round*2/5, nil)
		lsegs = append(lsegs, segs...)
		r.attempted, r.failed = r.attempted+a, r.failed+f
		segs, a, f = sys.phase(true, round-round*2/5, nil)
		ssegs = append(ssegs, segs...)
		r.attempted, r.failed = r.attempted+a, r.failed+f
	}
	light, sat := phaseStats(lsegs), phaseStats(ssegs)
	printSegments("light", lsegs)
	printSegments("saturated", ssegs)

	r.e2e["setup_s"] = wall(medianOf(setups))
	r.e2e["throughput_ops_s"] = fromEstimate(sat.throughput)
	r.e2e["cpu_us_per_op"] = fromEstimate(sat.cpuPerOp)
	r.e2e["latency_p50_ms"] = fromEstimate(light.p50)
	r.e2e["latency_p99_ms"] = fromEstimate(light.p99)
	r.layer = sys.layer(nil)
	r.layer["load.saturated_p99_ms"] = fromEstimate(sat.p99)
	r.layer["load.segment_spread_pct"] = wall(sat.throughput.spreadPct)
	if err := sys.check(); err != nil {
		r.failed++
		fmt.Printf("# final check failed: %v\n", err)
	}
	fmt.Printf("# latency_p99_ms: %d light-phase samples in %d groups of segments\n", light.samples, light.p99Groups)
	if !light.p99Supported {
		fmt.Println("# warning: fewer than ten samples lie beyond the light phase's p99")
	}
	return r, nil
}

// runTraced is the traced run. It never feeds end-to-end numbers: it runs
// the layer probes, then a short traced slice of every workload (so every
// per-layer metric has a value), giving the selected workload the longest
// slice and measuring on it what tracing costs.
func runTraced(sel *workload, e *env, seed int64, total time.Duration, out string) (*result, error) {
	layer, err := runProbes()
	if err != nil {
		return nil, err
	}
	r := &result{layer: layer, e2e: metrics{}}
	e.sw = &traceSwitch{}
	tracers := map[string]*tracer{}
	for i := range workloads {
		w := &workloads[i]
		slice := time.Second / time.Duration(e.plan.opScale)
		if w == sel {
			slice = total / 5
		}
		sys, err := w.setup(e, seed)
		if err != nil {
			return nil, err
		}
		sys.warm(e.plan.warm / 2)
		run := func(saturated bool, d time.Duration, tr *tracer) []segment {
			e.sw.set(tr)
			segs, a, f := sys.phase(saturated, d, tr)
			e.sw.set(nil)
			r.attempted, r.failed = r.attempted+a, r.failed+f
			return segs
		}
		tr := newTracer()
		tracers[w.name] = tr
		// The plain median, not the quiet end: the span medians it is
		// accounted for with are taken over the whole phase too.
		tr.endLight(1e3 * phaseStats(run(false, slice, tr)).p50.median)
		// Untraced and traced saturated blocks alternate, so that a slow
		// spell of the host does not pass for the cost of tracing.
		var plainSegs, tracedSegs []segment
		rounds := 1
		if w == sel {
			rounds = e.plan.rounds
		}
		for i := 0; i < rounds; i++ {
			if w == sel {
				plainSegs = append(plainSegs, run(true, slice/time.Duration(rounds), nil)...)
			}
			tracedSegs = append(tracedSegs, run(true, slice/time.Duration(rounds), tr)...)
		}
		plain, traced := phaseStats(plainSegs), phaseStats(tracedSegs)
		for k, v := range sys.layer(tr) {
			r.layer[k] = v
		}
		if w == sel {
			r.describe = sys.describe()
			r.layer["load.saturated_p99_ms"] = fromEstimate(plain.p99)
			r.layer["load.segment_spread_pct"] = wall(plain.throughput.spreadPct)
			r.layer["trace.overhead_pct"] = wall(100 * (plain.throughput.quiet - traced.throughput.quiet) / plain.throughput.quiet)
		}
		if err := sys.check(); err != nil {
			r.failed++
			fmt.Printf("# %s: final check failed: %v\n", w.name, err)
		}
		sys.close()
		fmt.Printf("# traced %s: %d spans, %d dropped beyond the cap\n", w.name, len(tr.spans), tr.dropped)
	}
	path := filepath.Join(out, "spans.json")
	if err := writeSpans(path, tracers); err != nil {
		return nil, err
	}
	fmt.Printf("# wrote %s\n", path)
	return r, nil
}

func main() {
	name := flag.String("workload", "", "call_small | artifact_fetch | directory_churn | instance_failover")
	seed := flag.Int64("seed", 1, "inputs are generated from the seed")
	seconds := flag.Int("seconds", 25, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and spans.json")
	selfcheck := flag.Bool("selfcheck", false, "A/A mode: run every workload twice and compare")
	role := flag.String("role", "", "internal: holder = serve seeded artifacts (artifact_fetch's child)")
	dosgid := flag.String("dosgid", "", "path of the dosgid binary (run.sh builds it)")
	out := flag.String("out", ".", "directory for spans.json")
	flag.Parse()

	if *role == "holder" {
		if err := runHolder(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "dosgi-bench holder:", err)
			os.Exit(1)
		}
		return
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds, *dosgid, *out))
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: dosgi-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dosgi-bench:", err)
		os.Exit(1)
	}
	e := &env{
		dosgid: *dosgid,
		self:   self,
		place:  pinSelf(),
		plan:   defaultPlan,
	}
	fmt.Printf("# dosgi-bench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# provenance commit=%s go=%s nproc=%d gomaxprocs=%d pinned=%t load_cpu=%d server_cpu=%d\n",
		commit(), runtime.Version(), e.place.nproc, runtime.GOMAXPROCS(0), e.place.pinned, e.place.loadCPU, e.place.serverCPU)

	total := time.Duration(*seconds) * time.Second
	var r *result
	var defs []metricDef
	var got metrics
	if *trace == 1 {
		r, err = runTraced(w, e, *seed, total, *out)
	} else {
		r, err = runTimed(w, e, *seed, total)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dosgi-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("# %s\n", r.describe)
	if *trace == 1 {
		defs, got = perLayer, r.layer
		printTable(defs, got)
	} else {
		defs, got = endToEnd, r.e2e
		printTable(defs, got)
		fmt.Println("# layer metrics this run could read without tracing:")
		printTable(perLayer, r.layer)
	}
	fmt.Printf("# attempted=%d failed=%d\n", r.attempted, r.failed)
	line, err := resultLine(defs, got, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dosgi-bench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if r.failed > 0 {
		os.Exit(1)
	}
}

// printSegments prints what each segment of a phase measured, in the
// order they ran (phaseStats has sorted their latencies).
func printSegments(phase string, segs []segment) {
	for i, s := range segs {
		p50, _ := percentile(s.lat, 0.50)
		fmt.Printf("# segment %s %d ops=%d failed=%d wall_s=%.6f cpu_s=%.6f p50_us=%.3f ops_s=%.1f\n",
			phase, i, s.ops, s.failed, s.wall.Seconds(), s.cpu.Seconds(), float64(p50)/1e3, float64(s.ops)/s.wall.Seconds())
	}
}

// printTable prints the metrics of defs that got holds, by name, with
// unit, clock and the plain median over segments beside the estimate.
func printTable(defs []metricDef, got metrics) {
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			continue
		}
		med := ""
		if !math.IsNaN(v.median) {
			med = fmt.Sprintf(" segment-median=%.6g", v.median)
		}
		fmt.Printf("%-34s %14.6g %-6s clock=%s%s\n", d.name, v.v, d.unit, v.clock, med)
	}
}

// resultLine is the machine-read last line: every metric of defs, or an
// error naming the first one the run did not produce.
func resultLine(defs []metricDef, got metrics, r *result) (string, error) {
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jv{}}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = jv{v.v, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// commit is the source revision when the checkout is a git repository.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
