package obs

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket geometry: exact buckets
// below the first octave, ≤6.25% relative error above it, and sane
// behaviour at and beyond the top bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact region: every value below histSubBuckets is its own bucket.
	for v := int64(0); v < histSubBuckets; v++ {
		if got := bucketIndex(v); bucketUpper(got) != v {
			t.Fatalf("value %d: bucket %d upper %d, want exact", v, got, bucketUpper(got))
		}
	}
	// Octave boundaries: the first value of each octave and the last value
	// of the previous one land in different buckets, and the bucket upper
	// bound never undershoots the value.
	for _, v := range []int64{31, 32, 33, 63, 64, 1023, 1024, 1 << 20, (1 << 20) + 1, 1 << 40} {
		idx := bucketIndex(v)
		upper := bucketUpper(idx)
		if upper < v {
			t.Fatalf("value %d: bucket upper %d undershoots", v, upper)
		}
		if v >= histSubBuckets && float64(upper-v) > float64(v)/16+1 {
			t.Fatalf("value %d: bucket upper %d exceeds 1/16 relative error", v, upper)
		}
	}
	if bucketIndex(31) == bucketIndex(32) {
		t.Fatalf("octave boundary 31/32 shares a bucket")
	}

	// At the top bucket: the largest representable duration must index in
	// range, not panic or overflow.
	top := int64(1)<<62 + 12345
	if idx := bucketIndex(top); idx < 0 || idx >= histBuckets {
		t.Fatalf("top value indexes out of range: %d", idx)
	}
	// Below the bottom: negative durations clamp to zero.
	h := NewHistogram()
	h.Record(-time.Second)
	if s := h.Snapshot(); s.Count != 1 || s.P50 != 0 || s.Max != 0 {
		t.Fatalf("negative record: %+v", s)
	}

	// Above the top bucket: recording the max duration still counts and
	// the max is exact.
	h2 := NewHistogram()
	h2.Record(time.Duration(top))
	if s := h2.Snapshot(); s.Count != 1 || s.Max != time.Duration(top) {
		t.Fatalf("top record: %+v", s)
	}
	// The percentile read clamps the bucket bound to the observed max.
	if p := h2.Percentile(0.99); p != time.Duration(top) {
		t.Fatalf("p99 of single top sample = %v, want %v", p, time.Duration(top))
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1000*time.Microsecond {
		t.Fatalf("max = %v", s.Max)
	}
	within := func(name string, got, want time.Duration) {
		lo := want - want/10
		hi := want + want/8
		if got < lo || got > hi {
			t.Fatalf("%s = %v, want ~%v", name, got, want)
		}
	}
	within("p50", s.P50, 500*time.Microsecond)
	within("p99", s.P99, 990*time.Microsecond)
	within("p999", s.P999, 999*time.Microsecond)
	if s.P50 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines while snapshots read it — the -race run is the assertion.
func TestHistogramConcurrentRecording(t *testing.T) {
	h := NewHistogram()
	const writers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	// Stop the snapshot reader once every writer has finished.
	for h.Count() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := h.Count(); got != writers*per {
		t.Fatalf("count = %d, want %d", got, writers*per)
	}
}

func TestSpanStoreRingAndQuery(t *testing.T) {
	st := NewSpanStore(4)
	for i := 1; i <= 6; i++ {
		st.Add(Span{TraceID: uint64(i%2 + 1), SpanID: uint64(i), Start: time.Duration(i)})
	}
	if st.Len() != 4 {
		t.Fatalf("len = %d", st.Len())
	}
	// Spans 1 and 2 were evicted; trace 1 retains spans 4 and 6.
	spans := st.ByTrace(1)
	if len(spans) != 2 || spans[0].SpanID != 4 || spans[1].SpanID != 6 {
		t.Fatalf("trace 1 spans: %+v", spans)
	}
	if got := st.ByTrace(0); got != nil {
		t.Fatalf("trace 0 must be empty, got %+v", got)
	}
}

// eagerRing is the reference model of SpanStore: a ring allocated at full
// capacity up front, slot next % cap, queries over the first min(next, cap)
// slots.
type eagerRing struct {
	ring []Span
	next int
}

func (r *eagerRing) add(sp Span) {
	r.ring[r.next%len(r.ring)] = sp
	r.next++
}

func (r *eagerRing) held() []Span { return r.ring[:min(r.next, len(r.ring))] }

// TestSpanStoreMatchesEagerRing pins the grow-on-demand ring to the eager
// one it replaced: below, at and past capacity, Len, All and ByTrace
// answer the same, and the oldest spans are evicted in order — within one
// growth chunk, at exactly one, and across several with a short last one.
func TestSpanStoreMatchesEagerRing(t *testing.T) {
	for _, capacity := range []int{8, spanChunk, 2*spanChunk + 5} {
		for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, capacity + 5, 3*capacity + 2} {
			testSpanStoreAgainstEager(t, capacity, n)
		}
	}
}

func testSpanStoreAgainstEager(t *testing.T, capacity, n int) {
	t.Helper()
	st := NewSpanStore(capacity)
	ref := &eagerRing{ring: make([]Span, capacity)}
	for i := 1; i <= n; i++ {
		// Starts repeat so the span-id tie-break is exercised too.
		sp := Span{TraceID: uint64(i%3 + 1), SpanID: uint64(i), Start: time.Duration(i / 2)}
		st.Add(sp)
		ref.add(sp)
	}
	want := append([]Span{}, ref.held()...)
	SortSpans(want)
	if st.Len() != len(want) {
		t.Fatalf("cap=%d n=%d: len = %d, want %d", capacity, n, st.Len(), len(want))
	}
	if got := st.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cap=%d n=%d: All = %+v, want %+v", capacity, n, got, want)
	}
	if evicted := n - len(want); len(want) > 0 && want[0].SpanID != uint64(evicted+1) {
		t.Fatalf("cap=%d n=%d: oldest retained span %d, want %d", capacity, n, want[0].SpanID, evicted+1)
	}
	for trace := uint64(1); trace <= 3; trace++ {
		var wantTrace []Span
		for _, sp := range want {
			if sp.TraceID == trace {
				wantTrace = append(wantTrace, sp)
			}
		}
		if got := st.ByTrace(trace); !reflect.DeepEqual(got, wantTrace) {
			t.Fatalf("cap=%d n=%d trace %d: ByTrace = %+v, want %+v", capacity, n, trace, got, wantTrace)
		}
	}
}

// TestSpanStoreAddAllocationFreeWhenFull: recording into a full ring
// overwrites a slot and allocates nothing.
func TestSpanStoreAddAllocationFreeWhenFull(t *testing.T) {
	st := NewSpanStore(64)
	sp := Span{TraceID: 1, SpanID: 1, Node: "n", Service: "s", Method: "m"}
	for i := 0; i < 64; i++ {
		st.Add(sp)
	}
	if allocs := testing.AllocsPerRun(100, func() { st.Add(sp) }); allocs != 0 {
		t.Fatalf("Add into a full ring allocates %.1f times", allocs)
	}
}

// TestNewPlaneCostsItsHistograms: a fresh plane is its five histograms
// (about 38 KiB) and an empty span ring, not DefaultSpanCapacity spans
// allocated up front (about 1.3 MiB).
func TestNewPlaneCostsItsHistograms(t *testing.T) {
	now := func() time.Duration { return 0 }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPlane("node-a", now)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewPlane allocated %d KiB, want < 64 KiB", got>>10)
	}
}

func TestTracerIDs(t *testing.T) {
	a := NewTracer("node-a", func() time.Duration { return 0 }, 16)
	b := NewTracer("node-b", func() time.Duration { return 0 }, 16)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		for _, tr := range []*Tracer{a, b} {
			id := tr.NewID()
			if id == 0 {
				t.Fatalf("zero id")
			}
			if seen[id] {
				t.Fatalf("duplicate id %x", id)
			}
			seen[id] = true
		}
	}
}
