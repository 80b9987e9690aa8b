package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile of sorted (ascending) by the
// nearest-rank rule. ok is false when fewer than minBeyond samples lie
// beyond it.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// quantile interpolates linearly between the order statistics of sorted
// (ascending): p=0 is the minimum, p=1 the maximum.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// estimate is what one phase reports for one metric: the quiet-end pick
// over its segments, the plain median beside it, and the spread
// (interquartile range as a share of the median) of the segment values.
type estimate struct {
	quiet, median, spreadPct float64
}

// quietShare is how far in from the best segment the reported value lies:
// a tenth of the way. The host runs at two speeds, a quarter apart, and
// spends anything from a twentieth to all of a run at the faster one; a
// pick further in (the quartile was tried first) flips between the two
// speeds from run to run, and the best segment itself is the one that the
// cut of a segment boundary flatters most.
const quietShare = 0.10

// quietEnd reduces one value per segment to the value quietShare of the
// way in from the best segment: the 90th percentile when higher is better,
// the 10th otherwise. Interference on a shared host only ever slows a
// segment, so the quiet end of the distribution is the part the program
// itself determines.
func quietEnd(perSegment []float64, higherBetter bool) estimate {
	s := append([]float64(nil), perSegment...)
	sort.Float64s(s)
	p := quietShare
	if higherBetter {
		p = 1 - quietShare
	}
	med := quantile(s, 0.5)
	return estimate{
		quiet:     quantile(s, p),
		median:    med,
		spreadPct: 100 * (quantile(s, 0.75) - quantile(s, 0.25)) / med,
	}
}

func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// segment is one equal slice of a timed phase: the exact latency of every
// correct op that completed in it (a failed op is recorded at its
// timeout), the wall time it covered and the CPU time all processes burnt.
type segment struct {
	lat    []int64 // nanoseconds, unsorted until phaseStats
	ops    int     // correct ops
	failed int
	wall   time.Duration
	cpu    time.Duration
}

// phaseResult is the set of estimates one timed phase yields.
type phaseResult struct {
	throughput estimate // correct ops per wall second
	cpuPerOp   estimate // microseconds of CPU per correct op
	p50, p99   estimate // milliseconds
	// p99 is computed over groups of consecutive segments (see p99Groups);
	// p99Supported is false when the whole phase is one group that still
	// has fewer than minBeyond samples beyond its p99.
	p99Groups    int
	p99Supported bool
	samples      int
}

// p99Samples is how many samples a p99 needs: minBeyond beyond it.
const p99Samples = 100 * minBeyond

// p99Groups merges consecutive segments until each group holds p99Samples
// latencies, and sorts each group; a remainder too short to stand alone
// joins the last group. Segments that are long enough stay one group each.
func p99Groups(segs []segment) [][]int64 {
	var groups [][]int64
	var cur []int64
	for i := range segs {
		cur = append(cur, segs[i].lat...)
		if len(cur) >= p99Samples {
			groups, cur = append(groups, cur), nil
		}
	}
	switch {
	case len(groups) == 0:
		groups = [][]int64{cur}
	case len(cur) > 0:
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	for _, g := range groups {
		slices.Sort(g)
	}
	return groups
}

// phaseStats computes each metric per segment (p99 per group of segments)
// and reduces the values with the quiet-end estimator.
func phaseStats(segs []segment) phaseResult {
	var tput, cpu, p50s, p99s []float64
	samples := 0
	for i := range segs {
		s := &segs[i]
		slices.Sort(s.lat)
		samples += len(s.lat)
		tput = append(tput, float64(s.ops)/s.wall.Seconds())
		if s.ops > 0 {
			cpu = append(cpu, float64(s.cpu.Nanoseconds())/1e3/float64(s.ops))
		}
		v, _ := percentile(s.lat, 0.50)
		p50s = append(p50s, float64(v)/1e6)
	}
	supported := true
	groups := p99Groups(segs)
	for _, g := range groups {
		v, ok := percentile(g, 0.99)
		p99s = append(p99s, float64(v)/1e6)
		supported = supported && ok
	}
	return phaseResult{
		throughput:   quietEnd(tput, true),
		cpuPerOp:     quietEnd(cpu, false),
		p50:          quietEnd(p50s, false),
		p99:          quietEnd(p99s, false),
		p99Groups:    len(groups),
		p99Supported: supported,
		samples:      samples,
	}
}
