package main

import (
	"sync"
	"time"
)

// sample is one completed op of a closed-loop caller.
type sample struct {
	end time.Duration // completion, since the phase started
	lat time.Duration
	ok  bool
}

// asyncOp issues one checked op for a caller and reports its outcome
// through done exactly once, from any goroutine.
type asyncOp func(caller, seq int, done func(ok bool))

// once runs op and waits for its outcome.
func (op asyncOp) once() bool {
	done := make(chan bool, 1)
	op(0, 0, func(ok bool) { done <- ok })
	return <-done
}

// closedLoop runs callers goroutines that each keep depth ops outstanding:
// a caller issues its next op only when one of its own completes, so a
// slow system receives less load. With depth 1 a caller is a synchronous
// OSGi proxy caller: issue, block for the reply, repeat. The run lasts
// nseg segments of segDur wall time and cpu is read at every segment
// boundary. A failed op is recorded at timeout. Ops that complete after
// the last boundary count as attempted but belong to no segment.
func closedLoop(callers, depth, nseg int, segDur, timeout time.Duration, cpu func() time.Duration,
	op asyncOp) (segs []segment, attempted, failed int) {
	start := time.Now()
	stop := start.Add(time.Duration(nseg) * segDur)
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			type completion struct {
				t0 time.Time
				ok bool
			}
			buf := make([]sample, 0, 1<<16)
			completions := make(chan completion, depth) // one slot per outstanding op: done never blocks
			seq, inflight := 0, 0
			issue := func() {
				t0 := time.Now()
				op(c, seq, func(ok bool) { completions <- completion{t0, ok} })
				seq++
				inflight++
			}
			for inflight < depth && time.Now().Before(stop) {
				issue()
			}
			for inflight > 0 {
				cm := <-completions
				inflight--
				t1 := time.Now()
				lat := t1.Sub(cm.t0)
				if !cm.ok {
					lat = timeout
				}
				buf = append(buf, sample{end: t1.Sub(start), lat: lat, ok: cm.ok})
				if t1.Before(stop) {
					issue()
				}
			}
			per[c] = buf
		}(c)
	}
	bounds := make([]time.Duration, 0, nseg+1)
	cpus := make([]time.Duration, 0, nseg+1)
	bounds, cpus = append(bounds, time.Since(start)), append(cpus, cpu())
	for i := 1; i <= nseg; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * segDur)))
		bounds, cpus = append(bounds, time.Since(start)), append(cpus, cpu())
	}
	wg.Wait()

	segs = make([]segment, nseg)
	for i := range segs {
		segs[i].wall = bounds[i+1] - bounds[i]
		segs[i].cpu = cpus[i+1] - cpus[i]
	}
	for _, buf := range per {
		i := 0 // samples of one caller are in completion order
		for _, s := range buf {
			attempted++
			if !s.ok {
				failed++
			}
			for i < nseg && s.end >= bounds[i+1] {
				i++
			}
			if i == nseg || s.end < bounds[0] {
				continue
			}
			seg := &segs[i]
			seg.lat = append(seg.lat, s.lat.Nanoseconds())
			if s.ok {
				seg.ops++
			} else {
				seg.failed++
			}
		}
	}
	return segs, attempted, failed
}
