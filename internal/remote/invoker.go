package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dosgi/internal/obs"
)

// ErrNoEndpoints means the directory knows no replica for the service.
var ErrNoEndpoints = errors.New("remote: no endpoints for service")

// AppError carries an application-level failure from the remote service;
// it is never retried.
type AppError struct {
	Service string
	Method  string
	Msg     string
}

func (e *AppError) Error() string {
	return fmt.Sprintf("remote: %s.%s: %s", e.Service, e.Method, e.Msg)
}

// Endpoint locates one replica of an exported service.
type Endpoint struct {
	// Node is the hosting node id ("" when unknown); the view-change hook
	// prunes connections by it.
	Node string
	// Addr is the transport address, "ip:port".
	Addr string
}

// EndpointResolver maps a service name to its current replicas. The
// cluster implements it over the replicated migrate directory; daemons use
// a StaticResolver.
type EndpointResolver interface {
	Endpoints(service string) []Endpoint
}

// StaticResolver is a fixed service→endpoints table.
type StaticResolver struct {
	mu sync.Mutex
	m  map[string][]Endpoint
}

// NewStaticResolver returns an empty table.
func NewStaticResolver() *StaticResolver {
	return &StaticResolver{m: make(map[string][]Endpoint)}
}

// Set replaces the endpoints of service.
func (r *StaticResolver) Set(service string, eps ...Endpoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[service] = append([]Endpoint(nil), eps...)
}

// Endpoints implements EndpointResolver.
func (r *StaticResolver) Endpoints(service string) []Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Endpoint(nil), r.m[service]...)
}

// InvokerOption configures an Invoker.
type InvokerOption func(*Invoker)

// WithOrderedResolution disables round-robin rotation: candidates are
// always tried in resolver order. Use when the resolver encodes a
// preference (local endpoint first) rather than equal replicas.
func WithOrderedResolution() InvokerOption {
	return func(inv *Invoker) { inv.ordered = true }
}

// WithIdempotencyTokens stamps every call with a §3.4 idempotency token,
// minted once per logical call and kept stable across its failover
// attempts. Against dispatchers running a WithDedupRing this upgrades
// timeout failover from at-least-once to effectively-once; old peers
// ignore the token and semantics stay at-least-once.
func WithIdempotencyTokens() InvokerOption {
	return func(inv *Invoker) { inv.tokenSalt = rand.Uint64() | 1 }
}

// WithInvokerObservability wires the client side of the observability
// plane: every Go() mints a trace, each failover attempt becomes a child
// span carried on the wire (the retry cause and replica address
// annotated), and callHist — optional — records the full call path,
// retries included. The tracer's clock is the time base for every span.
func WithInvokerObservability(tracer *obs.Tracer, callHist *obs.Histogram) InvokerOption {
	return func(inv *Invoker) {
		inv.tracer = tracer
		inv.callHist = callHist
	}
}

// Invoker is the import-side entry point: it resolves a service to its
// replicas, spreads calls across them round-robin (the ipvs discipline at
// the client), and on a retryable failure — connection loss, call timeout,
// or a replica answering StatusUnavailable after a migration — retries the
// next replica transparently. A call tries every replica the resolver
// knows at most once, then fails with the last cause.
//
// Failover gives AT-LEAST-ONCE semantics by default: a timed-out call may
// have executed on the server before the retry runs elsewhere, so exported
// methods should be idempotent. WithIdempotencyTokens plus a dispatcher
// dedup ring (WithDedupRing) upgrades that to effectively-once. AppError
// results are always guaranteed single-execution.
type Invoker struct {
	pool      *Pool
	resolver  EndpointResolver
	ordered   bool
	tracer    *obs.Tracer
	callHist  *obs.Histogram
	tokenSalt uint64
	tokenSeq  atomic.Uint64

	mu      sync.Mutex
	rr      map[string]int
	demoted map[string]bool
}

// NewInvoker builds an invoker calling through pool.
func NewInvoker(pool *Pool, resolver EndpointResolver, opts ...InvokerOption) *Invoker {
	inv := &Invoker{pool: pool, resolver: resolver, rr: make(map[string]int), demoted: make(map[string]bool)}
	for _, opt := range opts {
		opt(inv)
	}
	return inv
}

// Pool returns the underlying connection pool.
func (inv *Invoker) Pool() *Pool { return inv.pool }

// DropEndpoint severs pooled connections to addr (gcs view-change hook or
// an external health signal).
func (inv *Invoker) DropEndpoint(addr string) { inv.pool.DropEndpoint(addr) }

// Demote marks addr last-choice: its endpoints sort to the end of every
// failover chain until Restore. The replica is NOT removed — when every
// healthier replica fails the call still reaches it. The health plane's
// autonomic rule drives this on CRITICAL remote-path records.
func (inv *Invoker) Demote(addr string) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	inv.demoted[addr] = true
}

// Restore lifts a Demote — addr competes in normal rotation again.
func (inv *Invoker) Restore(addr string) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	delete(inv.demoted, addr)
}

// IsDemoted reports whether addr is currently marked last-choice.
func (inv *Invoker) IsDemoted(addr string) bool {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.demoted[addr]
}

// PruneNodes drops pooled connections to every endpoint whose node is not
// in alive — wired to gcs.Member.OnViewChange by the cluster layer.
// endpoints is the full endpoint listing from the directory.
func (inv *Invoker) PruneNodes(alive []string, endpoints []Endpoint) {
	aliveSet := make(map[string]bool, len(alive))
	for _, n := range alive {
		aliveSet[n] = true
	}
	dropped := make(map[string]bool)
	for _, ep := range endpoints {
		if ep.Node != "" && !aliveSet[ep.Node] && !dropped[ep.Addr] {
			dropped[ep.Addr] = true
			inv.pool.DropEndpoint(ep.Addr)
		}
	}
}

// Go invokes service.method asynchronously; cb fires exactly once with
// the results or the final error — values cb owns and may keep. Safe to
// call from simulation callbacks.
func (inv *Invoker) Go(service, method string, args []any, cb func([]any, error)) {
	eps := inv.resolver.Endpoints(service)
	if len(eps) == 0 {
		cb(nil, fmt.Errorf("%w: %s", ErrNoEndpoints, service))
		return
	}
	// Rotate the candidate order so repeated calls spread across replicas
	// deterministically (unless the resolver order is a preference).
	start := 0
	if !inv.ordered {
		inv.mu.Lock()
		start = inv.rr[service] % len(eps)
		inv.rr[service]++
		inv.mu.Unlock()
	}
	ordered := make([]Endpoint, 0, len(eps))
	for i := 0; i < len(eps); i++ {
		ordered = append(ordered, eps[(start+i)%len(eps)])
	}
	// Stable-partition demoted replicas to the tail: healthy endpoints keep
	// their rotation order, CRITICAL ones become last-resort fallbacks.
	inv.mu.Lock()
	if len(inv.demoted) > 0 {
		healthy := make([]Endpoint, 0, len(ordered))
		var last []Endpoint
		for _, ep := range ordered {
			if inv.demoted[ep.Addr] {
				last = append(last, ep)
			} else {
				healthy = append(healthy, ep)
			}
		}
		ordered = append(healthy, last...)
	}
	inv.mu.Unlock()
	var ct *callTrace
	if inv.tracer != nil {
		ct = &callTrace{
			tid:   inv.tracer.NewID(),
			root:  inv.tracer.NewID(),
			start: inv.tracer.Now(),
		}
		done := cb
		cb = func(results []any, err error) {
			end := inv.tracer.Now()
			if inv.callHist != nil {
				inv.callHist.Record(end - ct.start)
			}
			sp := obs.Span{
				TraceID: ct.tid,
				SpanID:  ct.root,
				Kind:    obs.SpanClient,
				Service: service,
				Method:  method,
				Start:   ct.start,
				End:     end,
			}
			if err != nil {
				sp.Err = err.Error()
			}
			inv.tracer.Record(sp)
			done(results, err)
		}
	}
	inv.attempt(service, method, args, ordered, 0, inv.nextToken(), ct, cb)
}

// nextToken mints one idempotency token — non-zero, unique within this
// invoker, salted so two invokers' sequences do not collide in a shared
// dispatcher ring. Zero (tokens not enabled) means "no token" on the wire.
func (inv *Invoker) nextToken() uint64 {
	if inv.tokenSalt == 0 {
		return 0
	}
	// Golden-ratio multiply spreads consecutive sequence numbers across
	// the token space before salting.
	tok := inv.tokenSalt ^ (inv.tokenSeq.Add(1) * 0x9e3779b97f4a7c15)
	if tok == 0 {
		tok = inv.tokenSalt
	}
	return tok
}

// callTrace carries one traced call's identity across failover attempts:
// tid tags every attempt's wire trace context, root parents the attempt
// spans, and cause remembers why the previous replica was abandoned so
// the next attempt's span records it.
type callTrace struct {
	tid   uint64
	root  uint64
	start time.Duration
	cause string
}

func (inv *Invoker) attempt(service, method string, args []any, eps []Endpoint, i int, tok uint64, ct *callTrace, cb func([]any, error)) {
	req := &Request{Service: service, Method: method, Args: args, Token: tok}
	var spanID uint64
	var spanStart time.Duration
	var cause string
	if ct != nil {
		spanID = inv.tracer.NewID()
		spanStart = inv.tracer.Now()
		cause = ct.cause
		req.Trace = obs.TraceContext{TraceID: ct.tid, SpanID: spanID, Hop: 1}
	}
	// finish records this attempt's client span. An attempt whose request
	// reached the service and came back — success or application error —
	// finishes with errStr ""; only transport failures and unavailable
	// replicas (the failover causes) mark the span failed, so the chaos
	// trace-completeness invariant can demand a paired server span exactly
	// for the clean attempts.
	finish := func(errStr string) {
		if ct == nil {
			return
		}
		inv.tracer.Record(obs.Span{
			TraceID: ct.tid,
			SpanID:  spanID,
			Parent:  ct.root,
			Kind:    obs.SpanClient,
			Service: service,
			Method:  method,
			Addr:    eps[i].Addr,
			Attempt: i,
			Hop:     1,
			Cause:   cause,
			Err:     errStr,
			Start:   spanStart,
			End:     inv.tracer.Now(),
		})
	}
	next := func(cause error) {
		if ct != nil {
			ct.cause = cause.Error()
		}
		if i+1 < len(eps) {
			inv.attempt(service, method, args, eps, i+1, tok, ct, cb)
		} else {
			cb(nil, cause)
		}
	}
	err := inv.pool.Invoke(eps[i].Addr, req, func(resp *Response, err error) {
		switch {
		case err != nil && Retryable(err):
			finish(err.Error())
			next(err)
		case err != nil:
			finish(err.Error())
			cb(nil, err)
		case resp.Status == StatusUnavailable:
			finish("unavailable: " + resp.Err)
			next(fmt.Errorf("%w: %s", ErrUnavailable, resp.Err))
		case resp.Status == StatusAppError:
			finish("")
			cb(nil, &AppError{Service: service, Method: method, Msg: strings.Clone(resp.Err)})
		default:
			// The retention boundary of the borrow contract: resp aliases
			// a frame buffer recycled when this callback returns, and what
			// the application is handed it may keep.
			finish("")
			cb(resp.Retain().Results, nil)
		}
	})
	if err != nil {
		finish(err.Error())
		if Retryable(err) {
			next(err)
		} else {
			cb(nil, err)
		}
	}
}

// Call invokes service.method and blocks for the result. Only for
// real-time transports (TCP daemons, tests against wall clocks) — blocking
// inside a simulation callback would deadlock the engine.
func (inv *Invoker) Call(service, method string, args ...any) ([]any, error) {
	type outcome struct {
		results []any
		err     error
	}
	ch := make(chan outcome, 1)
	inv.Go(service, method, args, func(results []any, err error) {
		ch <- outcome{results, err}
	})
	out := <-ch
	return out.results, out.err
}

// Proxy returns the client proxy for service.
func (inv *Invoker) Proxy(service string) *Proxy {
	return &Proxy{inv: inv, service: service}
}
