package remote

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

// calculator is a plain service dispatched by reflection.
type calculator struct{}

func (calculator) Add(a, b int64) int64 { return a + b }

func (calculator) Div(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

func (calculator) Upper(s string) string { return strings.ToUpper(s) }

func (calculator) Sum(ns ...int) int64 {
	var total int64
	for _, n := range ns {
		total += int64(n)
	}
	return total
}

func TestCodecRoundtrip(t *testing.T) {
	req := &Request{
		Corr:    42,
		Service: "calc",
		Method:  "Mix",
		Args:    []any{nil, true, false, int64(-7), 3.5, "héllo", []byte{1, 2, 3}, []any{int64(1), "x"}},
	}
	buf, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _, kind, err := DecodeFrame(buf)
	if err != nil || kind != frameRequest {
		t.Fatalf("DecodeFrame: kind=%#x err=%v", kind, err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("request roundtrip:\n got %#v\nwant %#v", got, req)
	}

	resp := &Response{Corr: 42, Status: StatusAppError, Err: "boom", Results: []any{int64(9)}}
	buf, err = EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	_, gotResp, kind, err := DecodeFrame(buf)
	if err != nil || kind != frameResponse {
		t.Fatalf("DecodeFrame: kind=%#x err=%v", kind, err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("response roundtrip:\n got %#v\nwant %#v", gotResp, resp)
	}
}

func TestCodecIntWidening(t *testing.T) {
	req := &Request{Service: "s", Method: "m", Args: []any{7, int32(8), int64(9)}}
	buf, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(7), int64(8), int64(9)}
	if !reflect.DeepEqual(got.Args, want) {
		t.Fatalf("args = %#v, want %#v", got.Args, want)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	if _, _, _, err := DecodeFrame(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, _, _, err := DecodeFrame([]byte{0x7f}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	good, _ := EncodeRequest(&Request{Service: "s", Method: "m", Args: []any{"hello"}})
	for cut := 1; cut < len(good); cut++ {
		if req, _, _, err := DecodeFrame(good[:cut]); err == nil && req != nil && len(req.Args) > 0 {
			if s, ok := req.Args[0].(string); ok && s == "hello" {
				t.Fatalf("truncation at %d decoded full payload", cut)
			}
		}
	}
	if _, err := EncodeRequest(&Request{Service: "s", Method: "m", Args: []any{struct{}{}}}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("struct arg: err = %v", err)
	}
}

func TestInvokeServiceReflection(t *testing.T) {
	svc := calculator{}
	results, err := InvokeService(svc, "Add", []any{int64(2), int64(40)})
	if err != nil || len(results) != 1 || results[0] != int64(42) {
		t.Fatalf("Add = %v, %v", results, err)
	}
	results, err = InvokeService(svc, "Upper", []any{"go"})
	if err != nil || results[0] != "GO" {
		t.Fatalf("Upper = %v, %v", results, err)
	}
	results, err = InvokeService(svc, "Sum", []any{int64(1), int64(2), int64(3)})
	if err != nil || results[0] != int64(6) {
		t.Fatalf("Sum = %v, %v", results, err)
	}
	if _, err = InvokeService(svc, "Div", []any{1.0, 0.0}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Div error = %v", err)
	}
	if _, err = InvokeService(svc, "Nope", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("unknown method: err = %v", err)
	}
	if _, err = InvokeService(svc, "Add", []any{"x", "y"}); !errors.Is(err, ErrBadArguments) {
		t.Fatalf("bad args: err = %v", err)
	}
}

// invocableEcho dispatches through the Invocable fast path.
type invocableEcho struct{ calls int }

func (e *invocableEcho) Invoke(method string, args []any) ([]any, error) {
	e.calls++
	return append([]any{method}, args...), nil
}

func TestInvokeServiceInvocable(t *testing.T) {
	e := &invocableEcho{}
	results, err := InvokeService(e, "Ping", []any{int64(1)})
	if err != nil || e.calls != 1 {
		t.Fatalf("Invoke = %v, %v", results, err)
	}
	if !reflect.DeepEqual(results, []any{"Ping", int64(1)}) {
		t.Fatalf("results = %#v", results)
	}
}

// rig is a two-node simulated deployment: a provider framework exporting
// the calculator on nodeA and a consumer invoker dialing from nodeB.
type rig struct {
	eng      *sim.Engine
	net      *netsim.Network
	provider *module.Framework
	exporter *Exporter
	server   *NetsimServer
	pool     *Pool
	invoker  *Invoker
	resolver *StaticResolver
}

const (
	rigServerAddr  = "10.0.0.1:7100"
	rigServerAddr2 = "10.0.0.2:7100"
	rigClientIP    = "10.0.0.9"
)

func newRig(t *testing.T, callTimeout time.Duration, poolOpts ...PoolOption) *rig {
	t.Helper()
	r := &rig{eng: sim.New(7)}
	r.net = netsim.NewNetwork(r.eng)

	serverNIC := r.net.AttachNode("nodeA")
	if err := r.net.AssignIP("10.0.0.1", "nodeA"); err != nil {
		t.Fatal(err)
	}
	clientNIC := r.net.AttachNode("nodeB")
	if err := r.net.AssignIP(rigClientIP, "nodeB"); err != nil {
		t.Fatal(err)
	}

	r.provider = module.New(module.WithName("provider"))
	if err := r.provider.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.provider.SystemContext().RegisterSingle("calc.Calculator", calculator{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "calc",
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	r.exporter, err = NewExporter(r.provider.SystemContext())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ParseAddr(rigServerAddr)
	if err != nil {
		t.Fatal(err)
	}
	r.server = NewNetsimServer(serverNIC, addr, NewDispatcher(r.exporter))
	if err := r.server.Start(); err != nil {
		t.Fatal(err)
	}

	transport := NewNetsimTransport(r.eng, clientNIC, rigClientIP, WithNetsimCallTimeout(callTimeout))
	r.pool = NewPool(transport, poolOpts...)
	r.resolver = NewStaticResolver()
	r.resolver.Set("calc", Endpoint{Node: "nodeA", Addr: rigServerAddr})
	r.invoker = NewInvoker(r.pool, r.resolver)
	return r
}

func TestNetsimInvocationThroughProxy(t *testing.T) {
	r := newRig(t, 0)

	// Consumer framework imports the service as a proxy registration.
	consumer := module.New(module.WithName("consumer"))
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}
	importer := NewImporter(consumer.SystemContext(), r.invoker)
	if _, err := importer.ImportService("calc.Calculator", "calc"); err != nil {
		t.Fatal(err)
	}

	// The import is a plain service registration to the consumer.
	ref, ok := consumer.SystemContext().ServiceReference("calc.Calculator")
	if !ok {
		t.Fatal("proxy not registered in consumer framework")
	}
	if imported, _ := ref.Property(module.PropServiceImported).(bool); !imported {
		t.Fatal("proxy missing service.imported property")
	}
	svc, err := consumer.SystemContext().GetService(ref)
	if err != nil {
		t.Fatal(err)
	}
	proxy, ok := svc.(*Proxy)
	if !ok {
		t.Fatalf("service is %T, want *Proxy", svc)
	}

	var results []any
	var callErr error
	done := false
	proxy.Go("Add", []any{int64(20), int64(22)}, func(res []any, err error) {
		results, callErr, done = res, err, true
	})
	r.eng.RunFor(50 * time.Millisecond)
	if !done {
		t.Fatal("call never completed")
	}
	if callErr != nil || len(results) != 1 || results[0] != int64(42) {
		t.Fatalf("Add = %v, %v", results, callErr)
	}

	// Application errors cross the wire as AppError.
	done = false
	proxy.Go("Div", []any{1.0, 0.0}, func(res []any, err error) {
		callErr, done = err, true
	})
	r.eng.RunFor(50 * time.Millisecond)
	var appErr *AppError
	if !done || !errors.As(callErr, &appErr) || !strings.Contains(appErr.Msg, "division by zero") {
		t.Fatalf("Div err = %v", callErr)
	}
}

func TestNetsimPipeliningSharesOneConnection(t *testing.T) {
	r := newRig(t, 0, WithMaxConnsPerEndpoint(1), WithMaxInFlight(64))

	const calls = 32
	completed := 0
	for i := 0; i < calls; i++ {
		i := i
		r.invoker.Go("calc", "Add", []any{int64(i), int64(1)}, func(res []any, err error) {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if res[0] != int64(i+1) {
				t.Errorf("call %d = %v", i, res[0])
			}
			completed++
		})
	}
	r.eng.RunFor(100 * time.Millisecond)
	if completed != calls {
		t.Fatalf("completed %d/%d", completed, calls)
	}
	if n := r.pool.ConnCount(rigServerAddr); n != 1 {
		t.Fatalf("ConnCount = %d, want 1 (pipelined)", n)
	}
}

func TestPoolQueuesBeyondMaxInFlight(t *testing.T) {
	r := newRig(t, 0, WithMaxConnsPerEndpoint(1), WithMaxInFlight(2))
	const calls = 10
	completed := 0
	for i := 0; i < calls; i++ {
		r.invoker.Go("calc", "Upper", []any{"x"}, func(res []any, err error) {
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			completed++
		})
	}
	r.eng.RunFor(200 * time.Millisecond)
	if completed != calls {
		t.Fatalf("completed %d/%d", completed, calls)
	}
}

func TestUnknownServiceIsRetryableUnavailable(t *testing.T) {
	r := newRig(t, 0)
	var callErr error
	done := false
	r.invoker.Go("ghost", "X", nil, func(res []any, err error) { callErr, done = err, true })
	r.eng.RunFor(50 * time.Millisecond)
	if !done || !errors.Is(callErr, ErrNoEndpoints) {
		t.Fatalf("unresolved service err = %v", callErr)
	}

	// Known endpoint, unexported service: the server answers
	// StatusUnavailable, which surfaces as retryable.
	r.resolver.Set("ghost", Endpoint{Node: "nodeA", Addr: rigServerAddr})
	done = false
	r.invoker.Go("ghost", "X", nil, func(res []any, err error) { callErr, done = err, true })
	r.eng.RunFor(50 * time.Millisecond)
	if !done || !Retryable(callErr) {
		t.Fatalf("unexported service err = %v (want retryable)", callErr)
	}
}

func TestExporterFollowsRegistryLifecycle(t *testing.T) {
	r := newRig(t, 0)

	var events []ExportEvent
	r.exporter.OnChange(func(ev ExportEvent) { events = append(events, ev) })
	if len(events) != 1 || events[0].Name != "calc" || !events[0].Exported {
		t.Fatalf("replayed events = %#v", events)
	}

	// A late export becomes invocable and visible to hooks.
	reg, err := r.provider.SystemContext().RegisterSingle("echo.Service", &invocableEcho{}, module.Properties{
		module.PropServiceExported: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := r.exporter.Names(); !reflect.DeepEqual(names, []string{"calc", "echo.Service"}) {
		t.Fatalf("Names = %v", names)
	}

	// Unregistering withdraws it.
	if err := reg.Unregister(); err != nil {
		t.Fatal(err)
	}
	if names := r.exporter.Names(); !reflect.DeepEqual(names, []string{"calc"}) {
		t.Fatalf("Names after unregister = %v", names)
	}
	if len(events) != 3 || events[2].Exported {
		t.Fatalf("events = %#v", events)
	}

	// A non-exported registration is invisible.
	if _, err := r.provider.SystemContext().RegisterSingle("local.Only", "x", nil); err != nil {
		t.Fatal(err)
	}
	if names := r.exporter.Names(); len(names) != 1 {
		t.Fatalf("local service leaked into exports: %v", names)
	}
}

func TestViewPruneDropsConnections(t *testing.T) {
	r := newRig(t, 0)
	done := false
	r.invoker.Go("calc", "Add", []any{int64(1), int64(1)}, func([]any, error) { done = true })
	r.eng.RunFor(50 * time.Millisecond)
	if !done || r.pool.ConnCount(rigServerAddr) != 1 {
		t.Fatalf("warm-up: done=%v conns=%d", done, r.pool.ConnCount(rigServerAddr))
	}
	// nodeA leaves the view: the pooled connection must go.
	r.invoker.PruneNodes([]string{"nodeB"}, []Endpoint{{Node: "nodeA", Addr: rigServerAddr}})
	if n := r.pool.ConnCount(rigServerAddr); n != 0 {
		t.Fatalf("ConnCount after prune = %d", n)
	}
}

func TestProxyBlockingInvokeOnRealScheduler(t *testing.T) {
	// The blocking path needs a wall clock; exercised fully in tcp_test.go.
	// Here: Invoke surfaces resolver misses without deadlock.
	r := newRig(t, 0)
	proxy := r.invoker.Proxy("missing")
	if _, err := proxy.Invoke("X", nil); !errors.Is(err, ErrNoEndpoints) {
		t.Fatalf("err = %v", err)
	}
}

func TestRoundRobinSpreadsAcrossReplicas(t *testing.T) {
	r := newRig(t, 0)

	// Second replica on nodeC with its own framework and exporter.
	addReplica(t, r)
	r.resolver.Set("calc",
		Endpoint{Node: "nodeA", Addr: rigServerAddr},
		Endpoint{Node: "nodeC", Addr: rigServerAddr2},
	)

	completed := 0
	for i := 0; i < 10; i++ {
		r.invoker.Go("calc", "Add", []any{int64(i), int64(0)}, func(res []any, err error) {
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			completed++
		})
	}
	r.eng.RunFor(100 * time.Millisecond)
	if completed != 10 {
		t.Fatalf("completed %d/10", completed)
	}
	if a, c := r.pool.ConnCount(rigServerAddr), r.pool.ConnCount(rigServerAddr2); a == 0 || c == 0 {
		t.Fatalf("round-robin left a replica cold: nodeA=%d nodeC=%d", a, c)
	}
}

func TestStaticResolverIsolation(t *testing.T) {
	res := NewStaticResolver()
	res.Set("s", Endpoint{Node: "n", Addr: "a:1"})
	eps := res.Endpoints("s")
	eps[0].Addr = "mutated"
	if got := res.Endpoints("s")[0].Addr; got != "a:1" {
		t.Fatalf("resolver state mutated: %s", got)
	}
}

func TestDispatcherStatuses(t *testing.T) {
	r := newRig(t, 0)
	d := NewDispatcher(r.exporter)
	resp := d.Serve(&Request{Service: "ghost", Method: "X"})
	if resp.Status != StatusUnavailable {
		t.Fatalf("unknown service status = %d", resp.Status)
	}
	resp = d.Serve(&Request{Service: "calc", Method: "Nope"})
	if resp.Status != StatusAppError {
		t.Fatalf("unknown method status = %d", resp.Status)
	}
	resp = d.Serve(&Request{Service: "calc", Method: "Add", Args: []any{int64(1), int64(2)}})
	if resp.Status != StatusOK || resp.Results[0] != int64(3) {
		t.Fatalf("Add resp = %+v", resp)
	}
}

// panicker blows up on demand.
type panicker struct{}

func (panicker) Boom() string { panic("kaboom") }

func (panicker) Fine() string { return "fine" }

// widths returns every integer kind the wire must widen.
type widths struct{}

func (widths) U64() uint64 { return 42 }

func (widths) U8() uint8 { return 7 }

func (widths) I16() int16 { return -3 }

func (widths) F32() float32 { return 1.5 }

func TestDispatcherContainsServicePanic(t *testing.T) {
	r := newRig(t, 0)
	if _, err := r.provider.SystemContext().RegisterSingle("bad.Service", panicker{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "bad",
	}); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(r.exporter)
	resp := d.Serve(&Request{Service: "bad", Method: "Boom"})
	if resp.Status != StatusAppError || !strings.Contains(resp.Err, "kaboom") {
		t.Fatalf("panic resp = %+v", resp)
	}
	// The dispatch plane survives for the next call.
	resp = d.Serve(&Request{Service: "bad", Method: "Fine"})
	if resp.Status != StatusOK || resp.Results[0] != "fine" {
		t.Fatalf("post-panic resp = %+v", resp)
	}
}

func TestResultWideningAllIntegerKinds(t *testing.T) {
	svc := widths{}
	cases := []struct {
		method string
		want   any
	}{
		{"U64", int64(42)},
		{"U8", int64(7)},
		{"I16", int64(-3)},
		{"F32", 1.5},
	}
	for _, tc := range cases {
		results, err := InvokeService(svc, tc.method, nil)
		if err != nil || len(results) != 1 || results[0] != tc.want {
			t.Errorf("%s = %#v, %v (want %#v)", tc.method, results, err, tc.want)
		}
		// And it must survive the codec.
		if _, err := EncodeResponse(&Response{Results: results}); err != nil {
			t.Errorf("%s result unencodable: %v", tc.method, err)
		}
	}
}

func TestExporterDuplicatePromotionDirect(t *testing.T) {
	fw := module.New(module.WithName("dup"))
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := fw.SystemContext()
	first, err := ctx.RegisterSingle("svc.A", "first", module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "svc",
	})
	if err != nil {
		t.Fatal(err)
	}
	exporter, err := NewExporter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSingle("svc.B", "second", module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "svc",
	}); err != nil {
		t.Fatal(err)
	}
	if svc, _ := exporter.Lookup("svc"); svc != "first" {
		t.Fatalf("winner = %v", svc)
	}
	var events []ExportEvent
	exporter.OnChange(func(ev ExportEvent) { events = append(events, ev) })

	// Winner unregisters: the standby registration must be promoted, not
	// silently dropped.
	if err := first.Unregister(); err != nil {
		t.Fatal(err)
	}
	svc, ok := exporter.Lookup("svc")
	if !ok || svc != "second" {
		t.Fatalf("after winner unregister: svc=%v ok=%v", svc, ok)
	}
	// Hooks saw replay(export) + withdraw + re-export.
	if len(events) != 3 || events[1].Exported || !events[2].Exported {
		t.Fatalf("events = %+v", events)
	}
}

func TestOrderedResolutionSticksToFirstEndpoint(t *testing.T) {
	r := newRig(t, 0)
	addReplica(t, r)
	r.resolver.Set("calc",
		Endpoint{Node: "nodeA", Addr: rigServerAddr},
		Endpoint{Node: "nodeC", Addr: rigServerAddr2},
	)
	ordered := NewInvoker(r.pool, r.resolver, WithOrderedResolution())
	completed := 0
	for i := 0; i < 6; i++ {
		ordered.Go("calc", "Upper", []any{"x"}, func(res []any, err error) {
			if err == nil {
				completed++
			}
		})
	}
	r.eng.RunFor(100 * time.Millisecond)
	if completed != 6 {
		t.Fatalf("completed %d/6", completed)
	}
	// Every call stayed on the preferred first endpoint.
	if a, c := r.pool.ConnCount(rigServerAddr), r.pool.ConnCount(rigServerAddr2); a == 0 || c != 0 {
		t.Fatalf("ordered resolution spread: first=%d second=%d", a, c)
	}
}

func TestEncodeErrorDoesNotCondemnSharedConnection(t *testing.T) {
	r := newRig(t, 0, WithMaxConnsPerEndpoint(1), WithMaxInFlight(8))

	// A good call in flight on the shared connection...
	goodDone := false
	var goodErr error
	r.invoker.Go("calc", "Add", []any{int64(1), int64(2)}, func(res []any, err error) {
		goodDone, goodErr = true, err
	})
	// ...must survive a concurrent caller error (unencodable argument).
	err := r.pool.Invoke(rigServerAddr, &Request{Service: "calc", Method: "Add", Args: []any{struct{}{}}},
		func(*Response, error) { t.Error("cb must not fire on synchronous error") })
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad-arg invoke err = %v", err)
	}
	r.eng.RunFor(50 * time.Millisecond)
	if !goodDone || goodErr != nil {
		t.Fatalf("good call: done=%v err=%v (encode error condemned the conn)", goodDone, goodErr)
	}
	if n := r.pool.ConnCount(rigServerAddr); n != 1 {
		t.Fatalf("ConnCount = %d, want 1", n)
	}
}

// blockingTransport stalls Dial for one address until released; other
// addresses dial instantly. Conns echo a canned response immediately.
type blockingTransport struct {
	slowAddr string
	release  chan struct{}
}

type instantConn struct{ addr string }

func (c *instantConn) Call(req *Request, cb func(*Response, error)) error {
	cb(&Response{Corr: req.Corr, Status: StatusOK, Results: []any{"pong"}}, nil)
	return nil
}

func (c *instantConn) InFlight() int { return 0 }

func (c *instantConn) Addr() string { return c.addr }

func (c *instantConn) Close() error { return nil }

func (t *blockingTransport) Dial(addr string) (Conn, error) {
	if addr == t.slowAddr {
		<-t.release
	}
	return &instantConn{addr: addr}, nil
}

// TestSlowDialDoesNotBlockOtherEndpoints pins the dial-outside-lock
// behavior: one endpoint stuck in a 3s-style TCP dial must not stall
// calls routed to healthy endpoints.
func TestSlowDialDoesNotBlockOtherEndpoints(t *testing.T) {
	tr := &blockingTransport{slowAddr: "slow:1", release: make(chan struct{})}
	pool := NewPool(tr)
	defer pool.Close()
	defer close(tr.release)

	slowStarted := make(chan struct{})
	go func() {
		close(slowStarted)
		_ = pool.Invoke("slow:1", &Request{Service: "s", Method: "m"}, func(*Response, error) {})
	}()
	<-slowStarted

	// While the slow dial is parked, a call to a healthy endpoint must
	// complete promptly.
	done := make(chan struct{})
	go func() {
		_ = pool.Invoke("fast:1", &Request{Service: "s", Method: "m"}, func(resp *Response, err error) {
			if err != nil || resp.Results[0] != "pong" {
				t.Errorf("fast call: %+v, %v", resp, err)
			}
			close(done)
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("healthy endpoint blocked behind a slow dial")
	}
}

func TestEncoderRejectsWhatDecoderWould(t *testing.T) {
	// Nesting deeper than the decoder's limit must fail at encode time —
	// a synchronous caller error, not an undecodable frame on the wire.
	v := any("leaf")
	for i := 0; i < maxValueDepth+2; i++ {
		v = []any{v}
	}
	if _, err := EncodeRequest(&Request{Service: "s", Method: "m", Args: []any{v}}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("deep nesting err = %v", err)
	}
	// The decoder's accepted depth is encodable.
	v = any("leaf")
	for i := 0; i < maxValueDepth-1; i++ {
		v = []any{v}
	}
	buf, err := EncodeRequest(&Request{Service: "s", Method: "m", Args: []any{v}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeFrame(buf); err != nil {
		t.Fatalf("decoder rejected encoder-accepted frame: %v", err)
	}
}

func TestOversizedRequestIsSynchronousNonRetryable(t *testing.T) {
	r := newRig(t, 0)
	huge := make([]byte, MaxFrameSize+1)
	err := r.pool.Invoke(rigServerAddr, &Request{Service: "calc", Method: "Add", Args: []any{huge}},
		func(*Response, error) { t.Error("cb must not fire") })
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized err = %v", err)
	}
	if Retryable(err) {
		t.Fatal("oversized frame must not be retryable")
	}
	// The shared connection survives for well-formed calls.
	done := false
	r.invoker.Go("calc", "Add", []any{int64(1), int64(1)}, func(res []any, err error) {
		if err == nil && res[0] == int64(2) {
			done = true
		}
	})
	r.eng.RunFor(50 * time.Millisecond)
	if !done {
		t.Fatal("conn did not survive oversized-request rejection")
	}
}

// narrow has parameters the wire's int64 must range-check into.
type narrow struct{}

func (narrow) SetPercent(p int8) int8 { return p }

func (narrow) SetPort(p uint16) int64 { return int64(p) }

func TestConvertArgRejectsOverflow(t *testing.T) {
	svc := narrow{}
	if res, err := InvokeService(svc, "SetPercent", []any{int64(100)}); err != nil || res[0] != int64(100) {
		t.Fatalf("in-range = %v, %v", res, err)
	}
	if _, err := InvokeService(svc, "SetPercent", []any{int64(300)}); !errors.Is(err, ErrBadArguments) {
		t.Fatalf("int8 overflow err = %v", err)
	}
	if _, err := InvokeService(svc, "SetPort", []any{int64(70000)}); !errors.Is(err, ErrBadArguments) {
		t.Fatalf("uint16 overflow err = %v", err)
	}
	if _, err := InvokeService(svc, "SetPort", []any{int64(-1)}); !errors.Is(err, ErrBadArguments) {
		t.Fatalf("negative-to-uint err = %v", err)
	}
}

// TestPipelinedCallsShareOneHandshake pins what a pooled connection costs
// on the wire, as a count the simulator repeats exactly: one hello + ack
// when the connection opens, then one request and one response per call,
// however many calls are in flight at once. The pool is capped at one
// connection: by default a second call in flight dials a second one.
func TestPipelinedCallsShareOneHandshake(t *testing.T) {
	const calls, window = 2000, 16
	r := newRig(t, 0, WithMaxConnsPerEndpoint(1), WithMaxInFlight(window))

	issued, completed := 0, 0
	var launch func()
	launch = func() {
		if issued == calls {
			return
		}
		issued++
		r.invoker.Go("calc", "Add", []any{int64(issued), int64(1)}, func(_ []any, err error) {
			if err != nil {
				t.Errorf("call: %v", err)
			}
			completed++
			launch() // closed loop: a completion issues the next call
		})
	}
	for i := 0; i < window; i++ {
		launch()
	}
	r.eng.RunFor(10 * time.Second)
	if completed != calls {
		t.Fatalf("completed %d/%d", completed, calls)
	}
	if want := int64(2*calls + 2); r.net.Stats().Delivered != want {
		t.Errorf("delivered %d messages, want %d (one handshake + 2 per call)", r.net.Stats().Delivered, want)
	}
}
