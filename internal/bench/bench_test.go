package bench

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dosgi/internal/netsim"
	"dosgi/internal/services"
	"dosgi/internal/sim"
	"dosgi/internal/vjvm"
)

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d", got)
	}
	if got := h.Percentile(0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Percentile(1.0); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("Min = %v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("Max = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Percentile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should answer zero")
	}
}

// Property: percentiles are monotone in q and bounded by min/max.
func TestHistogramMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := &Histogram{}
		for _, v := range raw {
			h.Add(time.Duration(v) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			p := h.Percentile(q)
			if p < prev || p < h.Min() || p > h.Max() {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.AddRow("alpha", 42)
	tbl.AddRow("beta", 3.14159)
	tbl.AddRow("gamma", 1500*time.Microsecond)
	out := tbl.String()
	for _, want := range []string{"name", "value", "alpha", "42", "3.14", "1.5ms", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("table has %d lines, want 5", len(lines))
	}
}

func TestGeneratorMeasuresOpenLoopLoad(t *testing.T) {
	eng := sim.New(1)
	net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
	vm := vjvm.New(eng, vjvm.WithCapacity(1000))
	if _, err := vm.CreateDomain("svc"); err != nil {
		t.Fatal(err)
	}
	net.AttachNode("server")
	if err := net.AssignIP("10.0.0.1", "server"); err != nil {
		t.Fatal(err)
	}
	nic, _ := net.NIC("server")
	svc := services.NewHTTPService(eng, nic, netsim.Addr{IP: "10.0.0.1", Port: 80}, vm, "svc")
	svc.RegisterServlet("/", nil)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}

	gen, err := NewGenerator(eng, net, GeneratorConfig{
		Target:  netsim.Addr{IP: "10.0.0.1", Port: 80},
		Rate:    100,
		CPUCost: 5 * time.Millisecond, // demand 0.5 core: no queueing
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	eng.RunFor(2 * time.Second)
	gen.Stop()
	eng.RunFor(time.Second)
	st := gen.Stats()

	if st.Sent != 200 {
		t.Fatalf("sent = %d, want 200 (100/s for 2s)", st.Sent)
	}
	if st.OK != 200 || st.Lost != 0 {
		t.Fatalf("ok=%d lost=%d", st.OK, st.Lost)
	}
	// No contention: latency = 2x1ms network + 5ms service.
	if p99 := st.Latency.Percentile(0.99); p99 != 7*time.Millisecond {
		t.Fatalf("p99 = %v, want 7ms", p99)
	}
	if tp := st.Throughput(); tp < 60 || tp > 101 {
		t.Fatalf("throughput = %.1f", tp)
	}
}

func TestGeneratorCountsLostRequests(t *testing.T) {
	eng := sim.New(1)
	net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
	// No server at all: every request is lost.
	gen, err := NewGenerator(eng, net, GeneratorConfig{
		Target:  netsim.Addr{IP: "10.0.0.1", Port: 80},
		Rate:    50,
		CPUCost: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	eng.RunFor(time.Second)
	gen.Stop()
	eng.RunFor(100 * time.Millisecond)
	st := gen.Stats()
	if st.Sent != 50 || st.Lost != 50 || st.OK != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGeneratorRejectsBadRate(t *testing.T) {
	eng := sim.New(1)
	net := netsim.NewNetwork(eng)
	if _, err := NewGenerator(eng, net, GeneratorConfig{Rate: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestGeneratorJitterDeterministic(t *testing.T) {
	run := func() int64 {
		eng := sim.New(99)
		net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
		gen, err := NewGenerator(eng, net, GeneratorConfig{
			Target: netsim.Addr{IP: "10.0.0.1", Port: 80},
			Rate:   100, CPUCost: time.Millisecond, Jitter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen.Start()
		eng.RunFor(time.Second)
		gen.Stop()
		return gen.Stats().Sent
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("jittered runs diverged: %d vs %d", a, b)
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	return h.samples[len(h.samples)-1]
}

// Min returns the smallest sample.
func (h *Histogram) Min() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	return h.samples[0]
}

// Throughput returns successful responses per second of virtual time.
func (s LoadStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.OK) / s.Elapsed.Seconds()
}
