package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is the compact trace header carried as an optional trailing
// field of a dosgi.remote request: the trace identity, the span the callee
// should parent its server span under, and the hop count guarding against
// forwarding loops. The zero value means "untraced" — exactly what an
// uninstrumented peer's frames decode to.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Hop     uint32
}

// Valid reports whether the context names a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// SpanKind distinguishes the two ends of a remote call.
type SpanKind uint8

// Span kinds.
const (
	// SpanClient is one invoker attempt against one replica.
	SpanClient SpanKind = iota + 1
	// SpanServer is the dispatcher-side execution of one request.
	SpanServer
)

func (k SpanKind) String() string {
	switch k {
	case SpanClient:
		return "client"
	case SpanServer:
		return "server"
	default:
		return "unknown"
	}
}

// Span is one recorded unit of work inside a trace. Client attempts chain
// under the call's root span (Parent = root span id, Attempt = failover
// ordinal, Cause = why the previous attempt was retried); a server span's
// Parent is the client attempt span that carried the request, so the two
// sides of every completed hop pair up by (TraceID, Parent) alone.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // 0 for a root span
	Node    string
	Kind    SpanKind
	Service string
	Method  string
	Addr    string // replica address a client attempt targeted
	Attempt int    // failover ordinal of a client attempt (0 = first)
	Hop     uint32
	Cause   string        // why this retry ran (attempt spans only)
	Err     string        // terminal error ("" = success)
	Start   time.Duration // queue entry for server spans
	End     time.Duration
	Queue   time.Duration // server: receive→dispatch wait within Start..End
}

// Duration is the span's total elapsed time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

func (s Span) String() string {
	out := fmt.Sprintf("%016x/%016x parent=%016x %s %s %s.%s attempt=%d hop=%d start=%s dur=%s",
		s.TraceID, s.SpanID, s.Parent, s.Node, s.Kind, s.Service, s.Method,
		s.Attempt, s.Hop, s.Start, s.Duration())
	if s.Addr != "" {
		out += " addr=" + s.Addr
	}
	if s.Queue > 0 {
		out += " queue=" + s.Queue.String()
	}
	if s.Cause != "" {
		out += " cause=" + s.Cause
	}
	if s.Err != "" {
		out += " err=" + s.Err
	}
	return out
}

// SpanStore is the per-node flight recorder: a bounded ring of recent
// spans under one short-critical-section mutex. The ring grows on demand
// up to its capacity, a chunk of spanChunk slots at a time, so a node pays
// for the spans it records, not for the ones it might, and growing never
// copies what was recorded. Recording is O(1) and allocation-free once the
// ring is full, and queries scan the ring without blocking writers for
// longer than a copy.
type SpanStore struct {
	mu       sync.Mutex
	capacity int
	chunks   [][]Span // spanChunk slots each (the last may be shorter)
	next     uint64   // total spans ever recorded; next slot = next % capacity
}

// spanChunk is how many slots the ring grows by: one small allocation
// (about 10 KiB) instead of a doubling copy through large ones.
const spanChunk = 64

// DefaultSpanCapacity is the per-node span-ring depth.
const DefaultSpanCapacity = 8192

// NewSpanStore returns a ring holding the last capacity spans
// (DefaultSpanCapacity when capacity <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{capacity: capacity}
}

// Add records one span, evicting the oldest when the ring is full.
func (s *SpanStore) Add(sp Span) {
	s.mu.Lock()
	i := int(s.next % uint64(s.capacity))
	if i/spanChunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Span, min(spanChunk, s.capacity-i)))
	}
	s.chunks[i/spanChunk][i%spanChunk] = sp
	s.next++
	s.mu.Unlock()
}

// held is how many spans the ring holds. mu is held.
func (s *SpanStore) held() int { return int(min(s.next, uint64(s.capacity))) }

// Len returns how many spans the ring currently holds.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held()
}

// ByTrace returns the retained spans of one trace, ordered by start time
// (span id breaking ties, so the order is total and deterministic).
func (s *SpanStore) ByTrace(traceID uint64) []Span {
	if traceID == 0 {
		return nil
	}
	s.mu.Lock()
	var out []Span
	for i := 0; i < s.held(); i++ {
		if sp := &s.chunks[i/spanChunk][i%spanChunk]; sp.TraceID == traceID {
			out = append(out, *sp)
		}
	}
	s.mu.Unlock()
	SortSpans(out)
	return out
}

// All returns every retained span (tests, dump verbs).
func (s *SpanStore) All() []Span {
	s.mu.Lock()
	out := make([]Span, 0, s.held())
	for _, c := range s.chunks {
		out = append(out, c[:min(len(c), cap(out)-len(out))]...)
	}
	s.mu.Unlock()
	SortSpans(out)
	return out
}

// SortSpans orders spans by start time, then span id — the total,
// deterministic order cross-node trace assembly merges under.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// Tracer mints trace and span identities for one node and records spans
// into its store. Identities are a node-name hash in the high 32 bits and
// a local counter below — unique across the cluster and deterministic
// under the simulator (no randomness, no wall clock).
type Tracer struct {
	node  string
	base  uint64
	ids   atomic.Uint64
	store *SpanStore
	now   func() time.Duration
}

// NewTracer builds a tracer for node; now supplies timestamps (the sim
// engine's virtual clock or a real scheduler's monotonic one) and
// capacity sizes the span ring.
func NewTracer(node string, now func() time.Duration, capacity int) *Tracer {
	h := fnv.New32a()
	_, _ = h.Write([]byte(node))
	base := uint64(h.Sum32()) << 32
	if base == 0 {
		base = 1 << 32 // keep ids nonzero even for the pathological hash
	}
	return &Tracer{node: node, base: base, store: NewSpanStore(capacity), now: now}
}

// Node returns the tracer's node id.
func (t *Tracer) Node() string { return t.node }

// Now returns the tracer's clock reading.
func (t *Tracer) Now() time.Duration { return t.now() }

// NewID mints a cluster-unique nonzero id (used for both traces and
// spans).
func (t *Tracer) NewID() uint64 { return t.base | (t.ids.Add(1) & 0xffffffff) }

// Record stores one completed span.
func (t *Tracer) Record(sp Span) {
	if sp.Node == "" {
		sp.Node = t.node
	}
	t.store.Add(sp)
}

// Trace returns the locally retained spans of one trace.
func (t *Tracer) Trace(traceID uint64) []Span { return t.store.ByTrace(traceID) }

// Store exposes the underlying span ring.
func (t *Tracer) Store() *SpanStore { return t.store }
