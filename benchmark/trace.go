package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dosgi/internal/remote"
)

// span is one bracketed call into a layer. IDs are 1-based indexes into
// the tracer's span list; Parent 0 marks the root span of an op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds what a traced run keeps in memory and writes out. Later
// spans get the id droppedSpan: they are timed and locked for like any
// other, so that tracing costs the same all through the run, but only
// counted.
const (
	maxSpans    = 100_000
	droppedSpan = -1
)

// tracer records spans from the benchmark's own files, around its calls
// into each layer; nothing inside the program is instrumented. A nil
// *tracer records nothing, so workloads call it unconditionally.
//
// Parent links across goroutines come from sections: the benchmark enters
// the remote stack only inside section(), which serialises those entries
// and names the span they run under. The Conn decorator starts its span
// under that span, steps outside the section for the call itself (a send
// failure completes the call on the issuing goroutine) and re-enters a
// section around the response callback, so calls the callback issues (the
// fetcher's next chunk) link correctly.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	dropped  int
	lightEnd int     // spans up to this id belong to the light phase
	lightP50 float64 // the traced light phase's latency_p50, microseconds

	sec sync.Mutex
	cur int // span the running section belongs to; guarded by sec, which the decorators' caller holds
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// start opens a span and returns its id (0 when not tracing).
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return droppedSpan
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	if id != droppedSpan {
		t.spans[id-1].End = now
	}
	t.mu.Unlock()
}

// section runs fn as part of span id: spans the Conn decorator starts
// meanwhile become its children.
func (t *tracer) section(id int, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.sec.Lock()
	t.cur = id
	fn()
	t.sec.Unlock()
}

// outside runs fn with the caller's section suspended and resumes the
// section afterwards: sections do not nest, so whatever fn completes on
// this goroutine can enter its own.
func (t *tracer) outside(fn func()) {
	id := t.cur
	t.sec.Unlock()
	fn()
	t.sec.Lock()
	t.cur = id
}

// opOf returns the op id of span id.
func (t *tracer) opOf(id int) int64 {
	if id <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Op
}

// endLight marks the end of the light phase: the span-derived layer
// metrics describe one op outstanding per caller, so they read only the
// spans recorded before this call. p50us is the latency the phase measured,
// kept so a workload can account for it from its spans.
func (t *tracer) endLight(p50us float64) {
	t.mu.Lock()
	t.lightEnd, t.lightP50 = len(t.spans), p50us
	t.mu.Unlock()
}

// writeSpans stores every workload's spans as one JSON document.
func writeSpans(path string, byWorkload map[string]*tracer) error {
	type dump struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	doc := map[string]dump{}
	for name, t := range byWorkload {
		t.mu.Lock()
		doc[name] = dump{t.dropped, t.spans}
		t.mu.Unlock()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the sorted durations (ns) of the finished light-phase
// spans named name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 && s.ID <= t.lightEnd {
			out = append(out, s.End-s.Start)
		}
	}
	slices.Sort(out)
	return out
}

// selfTimes returns, for each finished light-phase span named name, its
// duration minus the part of that interval its child spans cover, sorted (ns).
func (t *tracer) selfTimes(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name || s.End == 0 || s.ID > t.lightEnd {
			continue
		}
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, s.End-s.Start-covered)
	}
	slices.Sort(out)
	return out
}

// p50us is the median of sorted nanosecond values, in microseconds.
func p50us(sorted []int64) float64 {
	v, _ := percentile(sorted, 0.5)
	return float64(v) / 1e3
}

// traceSwitch turns the transport decorator on for the traced phases of
// a traced run and off for its untraced ones, so both run on one system.
type traceSwitch struct{ p atomic.Pointer[tracer] }

func (sw *traceSwitch) set(t *tracer) { sw.p.Store(t) }

// tracedTransport decorates the remote.Transport the pool dials through:
// one span per Dial and one per Conn.Call, from issue to response
// callback. It runs inside the section of whoever entered the remote
// stack (see tracer), which is where the parent span comes from.
type tracedTransport struct {
	inner remote.Transport
	sw    *traceSwitch
}

func (tt tracedTransport) Dial(addr string) (remote.Conn, error) {
	t := tt.sw.p.Load()
	var id int
	if t != nil {
		id = t.start("remote.dial", t.cur, t.opOf(t.cur))
	}
	c, err := tt.inner.Dial(addr)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, sw: tt.sw}, nil
}

type tracedConn struct {
	remote.Conn
	sw *traceSwitch
}

func (tc tracedConn) Call(req *remote.Request, cb func(*remote.Response, error)) error {
	t := tc.sw.p.Load()
	if t == nil {
		return tc.Conn.Call(req, cb)
	}
	parent := t.cur
	id := t.start("remote.conn.call", parent, t.opOf(parent))
	var err error
	t.outside(func() {
		err = tc.Conn.Call(req, func(resp *remote.Response, err error) {
			t.end(id)
			t.section(parent, func() { cb(resp, err) })
		})
	})
	if err != nil {
		t.end(id)
	}
	return err
}
