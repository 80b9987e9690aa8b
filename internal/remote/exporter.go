package remote

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"dosgi/internal/module"
	"dosgi/internal/obs"
)

// Invocable is the explicit dispatch interface. Services that implement it
// bypass reflection; client proxies implement it too, so an imported
// service can be re-exported transparently.
type Invocable interface {
	Invoke(method string, args []any) ([]any, error)
}

// Dispatch errors (application-level: the endpoint was reached).
var (
	// ErrNoSuchMethod reports an unknown method name.
	ErrNoSuchMethod = errors.New("remote: no such method")
	// ErrBadArguments reports arguments a method cannot accept.
	ErrBadArguments = errors.New("remote: arguments do not match method")
)

// exportFilter selects registrations to publish.
const exportFilter = "(" + module.PropServiceExported + "=true)"

// ExportEvent notifies an endpoint-directory integration that a service
// became (un)available on this framework, or (Modified) that an exported
// registration changed its properties and should be re-announced.
type ExportEvent struct {
	Name     string
	Exported bool // false on withdrawal
	Modified bool // true when an existing export changed (Exported stays true)
}

// Exporter watches one framework's service registry and maintains the
// table of remotely invocable services: every registration carrying
// service.exported=true, keyed by its exported name.
type Exporter struct {
	ctx *module.Context

	mu      sync.Mutex
	exports map[string]*export
	hooks   []func(ExportEvent)
	handle  *module.ListenerHandle
	closed  bool
}

type export struct {
	name string
	ref  *module.ServiceReference
	svc  any
}

// ExportName returns the name a reference would be exported under.
func ExportName(ref *module.ServiceReference) string {
	if name, ok := ref.Property(module.PropServiceExportedName).(string); ok && name != "" {
		return name
	}
	classes := ref.Classes()
	if len(classes) > 0 {
		return classes[0]
	}
	return ""
}

// isExported reports whether a reference currently carries
// service.exported=true.
func isExported(ref *module.ServiceReference) bool {
	switch v := ref.Property(module.PropServiceExported).(type) {
	case bool:
		return v
	case string:
		return v == "true"
	}
	return false
}

// NewExporter builds an exporter over ctx (normally the system context)
// and snapshots services already exported at the time of the call.
func NewExporter(ctx *module.Context) (*Exporter, error) {
	e := &Exporter{ctx: ctx, exports: make(map[string]*export)}
	// The listener is deliberately UNFILTERED: a filtered listener would
	// never deliver the Modified event of a registration whose property
	// change just cleared service.exported (the registry matches filters
	// against the new properties), leaving a stale export behind. The
	// handlers check exportedness themselves.
	handle, err := ctx.AddServiceListener(e.onServiceEvent, "")
	if err != nil {
		return nil, err
	}
	e.handle = handle
	refs, err := ctx.ServiceReferences("", exportFilter)
	if err != nil {
		return nil, err
	}
	for _, ref := range refs {
		e.add(ref)
	}
	return e, nil
}

// OnChange registers a hook fired on export and withdrawal; current
// exports are replayed so late registrations miss nothing.
func (e *Exporter) OnChange(fn func(ExportEvent)) {
	e.mu.Lock()
	e.hooks = append(e.hooks, fn)
	var current []string
	for name := range e.exports {
		current = append(current, name)
	}
	e.mu.Unlock()
	sort.Strings(current)
	for _, name := range current {
		fn(ExportEvent{Name: name, Exported: true})
	}
}

// Lookup resolves an exported service object by name.
func (e *Exporter) Lookup(name string) (any, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ex, ok := e.exports[name]
	if !ok {
		return nil, false
	}
	return ex.svc, true
}

// Names lists the exported service names, sorted.
func (e *Exporter) Names() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.exports))
	for name := range e.exports {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close stops watching the registry and withdraws every export.
func (e *Exporter) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	victims := make([]*export, 0, len(e.exports))
	for name, ex := range e.exports {
		delete(e.exports, name)
		victims = append(victims, ex)
	}
	hooks := append(make([]func(ExportEvent), 0, len(e.hooks)), e.hooks...)
	e.mu.Unlock()
	e.handle.Remove()
	sort.Slice(victims, func(i, j int) bool { return victims[i].name < victims[j].name })
	for _, ex := range victims {
		e.ctx.UngetService(ex.ref)
		for _, fn := range hooks {
			fn(ExportEvent{Name: ex.name, Exported: false})
		}
	}
}

func (e *Exporter) onServiceEvent(ev module.ServiceEvent) {
	switch ev.Type {
	case module.ServiceRegistered:
		e.add(ev.Reference)
	case module.ServiceUnregistering:
		e.removeRef(ev.Reference)
	case module.ServiceModified:
		e.modifiedRef(ev.Reference)
	}
}

// modifiedRef handles a property change: clearing service.exported
// withdraws the export, setting it (or losing an earlier name race)
// adds one, a changed export name re-keys (withdraw + re-add), and any
// other change fires hooks with Modified so directories re-announce the
// record and remote listeners see a MODIFIED service event.
func (e *Exporter) modifiedRef(ref *module.ServiceReference) {
	e.mu.Lock()
	var current *export
	for _, ex := range e.exports {
		if ex.ref == ref {
			current = ex
			break
		}
	}
	hooks := append(make([]func(ExportEvent), 0, len(e.hooks)), e.hooks...)
	e.mu.Unlock()
	if !isExported(ref) {
		if current != nil {
			e.removeRef(ref)
		}
		return
	}
	if current == nil {
		// Not exported under any name yet (it lost a duplicate-name race,
		// or export properties just appeared): try a plain add.
		e.add(ref)
		return
	}
	if name := ExportName(ref); name != current.name {
		e.removeRef(ref)
		e.add(ref)
		return
	}
	for _, fn := range hooks {
		fn(ExportEvent{Name: current.name, Exported: true, Modified: true})
	}
}

func (e *Exporter) add(ref *module.ServiceReference) {
	if !isExported(ref) {
		return // the listener is unfiltered; exportedness checks live here
	}
	name := ExportName(ref)
	if name == "" {
		return
	}
	svc, err := e.ctx.GetService(ref)
	if err != nil {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.ctx.UngetService(ref)
		return
	}
	if _, dup := e.exports[name]; dup {
		// First registration wins (a later same-name registration stays
		// local-only until promoted); a same-ref re-add — the constructor
		// snapshot racing the listener — is an idempotent no-op. Either
		// way the extra GetService use is released.
		e.mu.Unlock()
		e.ctx.UngetService(ref)
		return
	}
	e.exports[name] = &export{name: name, ref: ref, svc: svc}
	hooks := append(make([]func(ExportEvent), 0, len(e.hooks)), e.hooks...)
	e.mu.Unlock()
	for _, fn := range hooks {
		fn(ExportEvent{Name: name, Exported: true})
	}
}

func (e *Exporter) removeRef(ref *module.ServiceReference) {
	e.mu.Lock()
	var victim *export
	for name, ex := range e.exports {
		if ex.ref == ref {
			victim = ex
			delete(e.exports, name)
			break
		}
	}
	hooks := append(make([]func(ExportEvent), 0, len(e.hooks)), e.hooks...)
	e.mu.Unlock()
	if victim == nil {
		return
	}
	e.ctx.UngetService(ref)
	for _, fn := range hooks {
		fn(ExportEvent{Name: victim.name, Exported: false})
	}
	// Another live registration may have lost the name race earlier (add
	// keeps the first registration per export name): promote it so the
	// name stays exported as long as any provider exists.
	if refs, err := e.ctx.ServiceReferences("", exportFilter); err == nil {
		for _, other := range refs {
			if other != ref && other.IsLive() && ExportName(other) == victim.name {
				e.add(other)
				return
			}
		}
	}
}

// Handler serves decoded requests; both transports' servers consume it.
type Handler interface {
	Serve(req *Request) *Response
}

// ServiceSource resolves an exported service name to its implementation.
// An Exporter is one; a node hosting virtual frameworks composes several
// (host exports plus every instance's exports) behind one lookup.
type ServiceSource interface {
	Lookup(name string) (any, bool)
}

// CompositeSource serves a node's host-framework exports and every
// virtual instance's exports behind one listener: a lookup consults the
// host first (it wins name collisions), then the instances in instance-id
// order. Instances come and go with their lifecycle; a lookup sees the
// set's current exporters and allocates nothing.
type CompositeSource struct {
	host      ServiceSource
	instances *ExporterSet
}

// NewCompositeSource builds a composite over host and instances.
func NewCompositeSource(host ServiceSource, instances *ExporterSet) *CompositeSource {
	return &CompositeSource{host: host, instances: instances}
}

// Lookup implements ServiceSource.
func (c *CompositeSource) Lookup(name string) (any, bool) {
	if svc, ok := c.host.Lookup(name); ok {
		return svc, true
	}
	for _, src := range c.instances.Sources() {
		if svc, ok := src.Lookup(name); ok {
			return svc, true
		}
	}
	return nil, false
}

// Dispatcher is the standard Handler: it resolves the service in a
// ServiceSource and invokes the method via Invocable or reflection.
type Dispatcher struct {
	src    ServiceSource
	tracer *obs.Tracer
	dedup  *dedupRing
}

// DispatcherOption configures a Dispatcher.
type DispatcherOption func(*Dispatcher)

// WithDedupRing remembers the response of the last n token-carrying calls
// (§3.4) and answers a replayed token from memory instead of re-executing.
// With tokened clients (Invoker's WithIdempotencyTokens) this upgrades
// timeout failover from at-least-once to effectively-once: "effectively"
// because the guarantee is bounded by ring capacity and because a retry
// racing the original execution may still double-execute — the ring dedups
// completed calls, it does not serialize in-flight ones. Size n to cover
// the retry window (in-flight calls × replicas), not the call history.
func WithDedupRing(n int) DispatcherOption {
	return func(d *Dispatcher) {
		if n > 0 {
			d.dedup = &dedupRing{
				byToken: make(map[uint64]*Response, n),
				order:   make([]uint64, 0, n),
				cap:     n,
			}
		}
	}
}

// dedupRing is a fixed-capacity token→response memory with FIFO eviction.
type dedupRing struct {
	mu      sync.Mutex
	byToken map[uint64]*Response
	order   []uint64
	cap     int
}

// lookup returns the remembered response of token, if still in the ring.
func (r *dedupRing) lookup(token uint64) (*Response, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, ok := r.byToken[token]
	return resp, ok
}

// store remembers token's response, evicting the oldest entry at capacity.
// A token already present keeps its original response — the first
// execution's answer is the one every replay must see.
func (r *dedupRing) store(token uint64, resp *Response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byToken[token]; dup {
		return
	}
	if len(r.order) >= r.cap {
		delete(r.byToken, r.order[0])
		r.order = r.order[1:]
	}
	r.byToken[token] = resp
	r.order = append(r.order, token)
}

// WithDispatcherTracer records a server span for every traced request:
// Start is the transport's receive stamp (when the server stamped one),
// Queue the receive→dispatch wait, and the span parents to the client
// attempt span carried in the wire trace context.
func WithDispatcherTracer(t *obs.Tracer) DispatcherOption {
	return func(d *Dispatcher) { d.tracer = t }
}

// NewDispatcher builds a dispatcher over src (typically an Exporter).
func NewDispatcher(src ServiceSource, opts ...DispatcherOption) *Dispatcher {
	d := &Dispatcher{src: src}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// Serve implements Handler. A panicking service method is contained to a
// StatusAppError response: one buggy export must not take down the node's
// whole dispatch plane.
func (d *Dispatcher) Serve(req *Request) (resp *Response) {
	if d.tracer != nil && req.Trace.Valid() {
		dispatchAt := d.tracer.Now()
		start := dispatchAt
		var queue time.Duration
		if at, ok := req.ReceivedAt(); ok && dispatchAt > at {
			start, queue = at, dispatchAt-at
		}
		defer func() {
			sp := obs.Span{
				TraceID: req.Trace.TraceID,
				SpanID:  d.tracer.NewID(),
				Parent:  req.Trace.SpanID,
				Kind:    obs.SpanServer,
				Service: req.Service,
				Method:  req.Method,
				Hop:     req.Trace.Hop,
				Start:   start,
				End:     d.tracer.Now(),
				Queue:   queue,
			}
			if resp != nil && resp.Status != StatusOK {
				sp.Err = resp.Err
			}
			d.tracer.Record(sp)
		}()
	}
	return d.dispatch(req)
}

// dispatch wraps serve with the §3.4 idempotency-token dedup: a token seen
// before answers from the ring (with the replay's own correlation id); a
// fresh execution is remembered unless it answered Unavailable — "not
// executed here" must not stick to a node the service later migrates to.
func (d *Dispatcher) dispatch(req *Request) *Response {
	if d.dedup != nil && req.Token != 0 {
		if prev, ok := d.dedup.lookup(req.Token); ok {
			replay := *prev
			replay.Corr = req.Corr
			return &replay
		}
	}
	resp := d.serve(req)
	if d.dedup != nil && req.Token != 0 && resp.Status != StatusUnavailable {
		d.dedup.store(req.Token, resp)
	}
	return resp
}

// serve is the untraced dispatch body.
func (d *Dispatcher) serve(req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{
				Corr: req.Corr, Status: StatusAppError,
				Err: fmt.Sprintf("panic in %s.%s: %v", req.Service, req.Method, r),
			}
		}
	}()
	svc, ok := d.src.Lookup(req.Service)
	if !ok {
		return &Response{
			Corr: req.Corr, Status: StatusUnavailable,
			Err: fmt.Sprintf("service %q not exported here", req.Service),
		}
	}
	results, err := InvokeService(svc, req.Method, req.Args)
	if err != nil {
		return &Response{Corr: req.Corr, Status: StatusAppError, Err: err.Error()}
	}
	return &Response{Corr: req.Corr, Status: StatusOK, Results: results}
}

// dispatchPlan is what reflection dispatch needs to know about one method
// of one service type, worked out once: resolving a method by name and
// walking its parameter types on every call was most of the dispatch cost.
type dispatchPlan struct {
	index    int            // of the method in the type's method set
	in       []reflect.Type // parameter types, receiver excluded
	variadic bool           // the last parameter is a ...T slice
}

// dispatchPlans caches, per service type, the plans of all its exported
// methods: reflect.Type → map[string]*dispatchPlan, immutable once stored.
// Building the whole method set at first use keeps the cache bounded by the
// code's own types — a peer's method names never add an entry.
var dispatchPlans sync.Map

func plansFor(t reflect.Type) map[string]*dispatchPlan {
	if cached, ok := dispatchPlans.Load(t); ok {
		return cached.(map[string]*dispatchPlan)
	}
	plans := make(map[string]*dispatchPlan, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		mt := m.Type // of a concrete type's method: In(0) is the receiver
		plan := &dispatchPlan{index: i, variadic: mt.IsVariadic(), in: make([]reflect.Type, mt.NumIn()-1)}
		for p := range plan.in {
			plan.in[p] = mt.In(p + 1)
		}
		plans[m.Name] = plan
	}
	cached, _ := dispatchPlans.LoadOrStore(t, plans)
	return cached.(map[string]*dispatchPlan)
}

// InvokeService calls method on svc. Services implementing Invocable
// dispatch directly; anything else dispatches by reflection over its
// exported methods, with wire integers (int64) converted to the parameter's
// integer kind. A trailing error return becomes the invocation error.
func InvokeService(svc any, method string, args []any) ([]any, error) {
	if inv, ok := svc.(Invocable); ok {
		return inv.Invoke(method, args)
	}
	rv := reflect.ValueOf(svc)
	plan := plansFor(rv.Type())[method]
	if plan == nil {
		return nil, fmt.Errorf("%w: %s on %T", ErrNoSuchMethod, method, svc)
	}
	fixed := len(plan.in)
	if plan.variadic {
		fixed--
		if len(args) < fixed {
			return nil, fmt.Errorf("%w: %s wants at least %d args, got %d",
				ErrBadArguments, method, fixed, len(args))
		}
	} else if len(args) != fixed {
		return nil, fmt.Errorf("%w: %s wants %d args, got %d",
			ErrBadArguments, method, fixed, len(args))
	}
	var few [4]reflect.Value // most calls fit: no slice allocation
	in := few[:0]
	for i, arg := range args {
		var want reflect.Type
		if i >= fixed {
			want = plan.in[fixed].Elem()
		} else {
			want = plan.in[i]
		}
		v, err := convertArg(arg, want)
		if err != nil {
			return nil, fmt.Errorf("%w: %s arg %d: %v", ErrBadArguments, method, i, err)
		}
		in = append(in, v)
	}
	out := rv.Method(plan.index).Call(in)
	results := make([]any, 0, len(out))
	for i, v := range out {
		if i == len(out)-1 && v.Type() == errType {
			if !v.IsNil() {
				return nil, v.Interface().(error)
			}
			continue
		}
		results = append(results, normalizeResult(v.Interface()))
	}
	return results, nil
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// convertArg adapts a decoded wire value to the parameter type.
func convertArg(arg any, want reflect.Type) (reflect.Value, error) {
	if arg == nil {
		switch want.Kind() {
		case reflect.Interface, reflect.Ptr, reflect.Slice, reflect.Map:
			return reflect.Zero(want), nil
		}
		return reflect.Value{}, fmt.Errorf("nil for %s", want)
	}
	v := reflect.ValueOf(arg)
	if v.Type().AssignableTo(want) {
		return v, nil
	}
	switch want.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if i, ok := arg.(int64); ok {
			if reflect.Zero(want).OverflowInt(i) {
				return reflect.Value{}, fmt.Errorf("%d overflows %s", i, want)
			}
			return reflect.ValueOf(i).Convert(want), nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if i, ok := arg.(int64); ok && i >= 0 {
			if reflect.Zero(want).OverflowUint(uint64(i)) {
				return reflect.Value{}, fmt.Errorf("%d overflows %s", i, want)
			}
			return reflect.ValueOf(i).Convert(want), nil
		}
	case reflect.Float32, reflect.Float64:
		switch n := arg.(type) {
		case float64:
			return reflect.ValueOf(n).Convert(want), nil
		case int64:
			return reflect.ValueOf(float64(n)).Convert(want), nil
		}
	case reflect.String:
		if s, ok := arg.(string); ok {
			return reflect.ValueOf(s).Convert(want), nil
		}
	}
	if v.Type().ConvertibleTo(want) && v.Kind() == want.Kind() {
		return v.Convert(want), nil
	}
	return reflect.Value{}, fmt.Errorf("cannot use %T as %s", arg, want)
}

// normalizeResult folds native result types onto the wire type set: every
// integer kind widens to int64, floats to float64, []string to []any.
func normalizeResult(v any) any {
	switch n := v.(type) {
	case nil, bool, int64, float64, string, []byte, []any:
		return v
	case []string:
		out := make([]any, len(n))
		for i, s := range n {
			out[i] = s
		}
		return out
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int64(rv.Uint())
	case reflect.Float32, reflect.Float64:
		return rv.Float()
	case reflect.Bool:
		return rv.Bool()
	case reflect.String:
		return rv.String()
	default:
		return v
	}
}
