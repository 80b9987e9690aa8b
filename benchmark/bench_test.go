package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTheCode: every workload and every metric the
// program prints is declared in BENCHMARK.json under the same name, unit,
// direction and bound, in the same order.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the code", i, g, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := b.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the code", i, g, d)
		}
	}
}

// smokeEnv builds dosgid and this program into a temporary directory (the
// child-process workloads run real binaries) and returns a plan small
// enough for go test: an eighth of every segment size, one set-up, two
// rounds.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	e := &env{
		place: placement{nproc: runtime.NumCPU()},
		plan:  plan{opScale: 8, warm: 100 * time.Millisecond, setups: 1, rounds: 2},
	}
	dir := t.TempDir()
	for bin, pkg := range map[string]string{"dosgid": "dosgi/cmd/dosgid", "dosgi-bench": "."} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, bin), pkg).CombinedOutput()
		if err != nil {
			t.Logf("go build %s unavailable, child-process workloads will be skipped: %v\n%s", pkg, err, out)
			return e
		}
	}
	e.dosgid, e.self = filepath.Join(dir, "dosgid"), filepath.Join(dir, "dosgi-bench")
	return e
}

func needsChild(w *workload) bool { return w.name == "call_small" || w.name == "artifact_fetch" }

// TestSmokeTimedRun runs every workload briefly: no op may fail, every
// end-to-end metric of BENCHMARK.json must come out as a finite number,
// and the simulator workloads' virtual-clock and count metrics must be bit
// for bit the same on a second run with the same seed.
func TestSmokeTimedRun(t *testing.T) {
	e := smokeEnv(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if needsChild(w) && e.dosgid == "" {
				t.Skip("no dosgid binary")
			}
			r, err := runTimed(w, e, 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
			}
			if _, err := resultLine(endToEnd, r.e2e, r); err != nil {
				t.Fatal(err)
			}
			for name := range r.layer {
				if !declared(perLayer, name) {
					t.Errorf("layer metric %s is not declared", name)
				}
			}
			if needsChild(w) {
				return
			}
			again, err := runTimed(w, e, 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			repeatable := 0
			for name, v := range r.layer {
				if v.clock != "virtual" && v.clock != "count" {
					continue
				}
				repeatable++
				if a := again.layer[name]; math.Float64bits(a.v) != math.Float64bits(v.v) {
					t.Errorf("%s (%s clock) differs across same-seed runs: %v then %v", name, v.clock, v.v, a.v)
				}
			}
			if repeatable == 0 {
				t.Error("no virtual-clock metric was reported")
			}
		})
	}
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestSmokeTracedRun: the traced run yields every per-layer metric of
// BENCHMARK.json and writes spans.json.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run times every layer probe; skipped with -short")
	}
	e := smokeEnv(t)
	if e.dosgid == "" {
		t.Skip("no dosgid binary")
	}
	out := t.TempDir()
	r, err := runTraced(&workloads[0], e, 7, time.Second, out)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
	}
	if _, err := resultLine(perLayer, r.layer, r); err != nil {
		t.Fatal(err)
	}
	var spans map[string]struct{ Spans []span }
	data, err := os.ReadFile(filepath.Join(out, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(spans[w.name].Spans) == 0 {
			t.Errorf("spans.json has no spans for %s", w.name)
		}
	}
}
