package main

import (
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		want   int64
		wantOK bool
	}{
		{1000, 0.99, 990, true},  // exactly ten beyond
		{999, 0.99, 990, false},  // nine beyond
		{2000, 0.99, 1980, true}, // twenty beyond
		{100, 0.50, 50, true},
		{19, 0.50, 10, false}, // nine beyond the median
		{21, 0.50, 11, true},
	}
	for _, c := range cases {
		got, ok := percentile(mk(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestQuietEndPicksTheQuietEnd(t *testing.T) {
	// 41 segments at 100..140 ops/s: a tenth of the way in from the best
	// is the fifth best, and from the quickest the fifth quickest.
	var vals []float64
	for v := 100; v <= 140; v++ {
		vals = append(vals, float64(v))
	}
	e := quietEnd(vals, true)
	if e.quiet != 136 || e.median != 120 {
		t.Errorf("throughput: quiet %v median %v, want 136 and 120", e.quiet, e.median)
	}
	if got := quietEnd(vals, false).quiet; got != 104 {
		t.Errorf("latency: quiet %v, want 104", got)
	}
	// Interpolation between order statistics.
	if got := quietEnd([]float64{1, 2, 3}, false).quiet; got != 1.2 {
		t.Errorf("a tenth into 1..3 = %v, want 1.2", got)
	}
	// A host that is slow for three quarters of the run moves the estimate
	// no further than the best segments differ among themselves.
	calm := make([]float64, 40)
	slow := make([]float64, 40)
	for i := range calm {
		calm[i], slow[i] = 100, 75
		if i%4 == 0 {
			slow[i] = 100
		}
	}
	if c, s := quietEnd(calm, true).quiet, quietEnd(slow, true).quiet; c != s {
		t.Errorf("a host slow for three quarters of the run moved the estimate: %v → %v", c, s)
	}
}

func TestPhaseStatsGroupsShortSegmentsForP99(t *testing.T) {
	seg := func(n int) segment {
		s := segment{ops: n, wall: time.Second, cpu: time.Second}
		for i := 0; i < n; i++ {
			s.lat = append(s.lat, int64(i+1)*1000)
		}
		return s
	}
	long := phaseStats([]segment{seg(1000), seg(1000), seg(1000), seg(1000)})
	if long.p99Groups != 4 || !long.p99Supported || long.p99.quiet != 0.99 {
		t.Errorf("p99 = %v over %d groups, want 0.99 over one group per segment", long.p99.quiet, long.p99Groups)
	}
	// Segments of 300 samples: groups of four hold 1200, and the last two
	// segments, too few to stand alone, join the second group.
	short := phaseStats([]segment{seg(300), seg(300), seg(300), seg(300), seg(300), seg(300), seg(300), seg(300), seg(300), seg(300)})
	if short.p99Groups != 2 || !short.p99Supported {
		t.Errorf("3000 samples in segments of 300: %d groups, supported=%v; want 2, true", short.p99Groups, short.p99Supported)
	}
	if tiny := phaseStats([]segment{seg(100), seg(100)}); tiny.p99Groups != 1 || tiny.p99Supported {
		t.Errorf("200 samples cannot support a p99, got %v over %d groups", tiny.p99.quiet, tiny.p99Groups)
	}
	if long.throughput.quiet != 1000 || long.cpuPerOp.quiet != 1000 {
		t.Errorf("throughput %v ops/s, cpu %v us/op; want 1000, 1000", long.throughput.quiet, long.cpuPerOp.quiet)
	}
}
