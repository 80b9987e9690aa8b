// Package obs is the cluster observability plane: allocation-free
// log-bucketed latency histograms for the hot paths (invoker calls, pool
// acquisition, frame round trips, event push-to-ack lag, provisioning
// chunk fetches), a compact distributed trace context carried inside the
// dosgi.remote request header, and a per-node lock-light ring-buffer span
// store the admin plane assembles cross-node traces from. Everything in
// this package is safe for concurrent use and allocation-free once the
// span ring is full, so both transports — the single-threaded
// deterministic simulator and the multi-goroutine TCP daemon — can
// instrument their inner loops without perturbing what they measure.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry, HdrHistogram-style: values 0..31ns are exact
// (one bucket per nanosecond), every later power-of-two octave splits into
// 16 sub-buckets — a fixed ≤6.25% relative error at any magnitude, from
// nanoseconds to hours, out of one flat array of atomic counters.
const (
	histSubBuckets = 32 // exact buckets below the first octave
	histSubHalf    = histSubBuckets / 2
	// histBuckets covers every non-negative int64 nanosecond value:
	// 32 exact + 16 per octave for octaves 1..58.
	histBuckets = histSubBuckets + 58*histSubHalf
)

// Histogram is a fixed-layout latency histogram: Record is lock-free and
// allocation-free (two atomic adds and a CAS-bounded max update), and
// snapshots walk the bucket array without stopping writers. The zero
// value is NOT ready; use NewHistogram.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	u := uint64(ns)
	if u < histSubBuckets {
		return int(u)
	}
	// Octave k covers [32·2^(k-1), 32·2^k); u>>k lands in [16, 32).
	k := bits.Len64(u) - 5
	idx := histSubBuckets + (k-1)*histSubHalf + int(u>>uint(k)) - histSubHalf
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper is the largest value a bucket holds — percentile reads
// report this conservative upper bound.
func bucketUpper(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	k := (idx-histSubBuckets)/histSubHalf + 1
	s := (idx-histSubBuckets)%histSubHalf + histSubHalf
	return int64(s+1)<<uint(k) - 1
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded value (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// HistogramSnapshot is one consistent-enough read of a histogram (writers
// are not stopped; counts may trail percentiles by in-flight records).
type HistogramSnapshot struct {
	Count          uint64
	Sum            time.Duration
	Max            time.Duration
	P50, P99, P999 time.Duration
}

// Snapshot computes count, sum, max and the standard percentiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Sum: time.Duration(h.sum.Load()),
		Max: time.Duration(h.max.Load()),
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	snap.Count = total
	if total == 0 {
		return snap
	}
	pct := func(q float64) time.Duration {
		rank := uint64(q * float64(total))
		if rank < 1 {
			rank = 1
		}
		var cum uint64
		for i := range counts {
			cum += counts[i]
			if cum >= rank {
				v := bucketUpper(i)
				if m := int64(snap.Max); v > m {
					v = m // the top occupied bucket cannot exceed the true max
				}
				return time.Duration(v)
			}
		}
		return snap.Max
	}
	snap.P50 = pct(0.50)
	snap.P99 = pct(0.99)
	snap.P999 = pct(0.999)
	return snap
}

// Percentile returns the value at quantile q in (0,1].
func (h *Histogram) Percentile(q float64) time.Duration {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	max := h.max.Load()
	var cum uint64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			v := bucketUpper(i)
			if v > max {
				v = max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(max)
}

// Attrs flattens the snapshot into metrics attributes under prefix:
// <prefix>.count plus nanosecond-valued <prefix>.p50ns/p99ns/p999ns/maxns
// — the shape every hot-path provider exports through MetricsService.
func (h *Histogram) Attrs(prefix string, into map[string]any) {
	s := h.Snapshot()
	into[prefix+".count"] = int64(s.Count)
	into[prefix+".p50ns"] = int64(s.P50)
	into[prefix+".p99ns"] = int64(s.P99)
	into[prefix+".p999ns"] = int64(s.P999)
	into[prefix+".maxns"] = int64(s.Max)
}
