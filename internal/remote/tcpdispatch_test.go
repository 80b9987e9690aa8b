package remote

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/module"
)

// writeFrame writes one length-prefixed frame to w, the way a peer that
// does not coalesce sends a request.
func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(binary.BigEndian.AppendUint32(nil, uint32(len(frame))))
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// readRequests reads n request frames from the scripted server end (a
// Hello is skipped) and returns their decoded requests; on an error, the
// ones read before it.
func readRequests(server net.Conn, n int) []*Request {
	var reqs []*Request
	for len(reqs) < n {
		frame, err := readFrame(server)
		if err != nil {
			return reqs
		}
		req, _, kind, err := DecodeFrame(frame)
		if err != nil {
			return reqs
		}
		if kind == frameRequest {
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// encodeOKs returns one segment of empty OK responses to corrs.
func encodeOKs(t *testing.T, corrs ...uint64) []byte {
	t.Helper()
	var wire []byte
	for _, corr := range corrs {
		out, err := EncodeResponse(&Response{Corr: corr, Status: StatusOK})
		if err != nil {
			t.Fatal(err)
		}
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(out)))
		wire = append(wire, out...)
	}
	return wire
}

// callTwice issues n calls on conn whose callbacks each issue one more
// call, reporting its outcome on next (a synchronous error included).
func callTwice(t *testing.T, conn *tcpConn, n int, next chan<- error) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := conn.Call(&Request{Service: "s", Method: "First"}, func(_ *Response, err error) {
			if err != nil {
				next <- err
				return
			}
			if err := conn.Call(&Request{Service: "s", Method: "Next"}, func(_ *Response, err error) {
				next <- err
			}); err != nil {
				next <- err
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// burstThenCallAgain runs callTwice over a pipe client, answers the first
// n calls in one segment and returns once the scripted server has read
// the n follow-up requests, with the client writes those took.
func burstThenCallAgain(t *testing.T, conn *tcpConn, cc *countingConn, server net.Conn, n int,
	next chan<- error) int64 {
	t.Helper()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		answerInOneWrite(t, server, n)
	}()
	callTwice(t, conn, n, next)
	<-answered
	if got := len(readRequests(server, n)); got != n {
		t.Fatalf("scripted server read %d of %d follow-up calls", got, n)
	}
	return cc.writes.Load() - int64(n)
}

// TestClientBurstCallbacksShareOneWrite: the calls issued by the callbacks
// of responses that arrived in one segment leave in at most two writes —
// the last completion to start writes what the others queued, then its
// own callback's call goes alone — not one write per call.
func TestClientBurstCallbacksShareOneWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	conn, cc, server := pipeClient(t)
	const n = 16
	next := make(chan error, n)
	writes := burstThenCallAgain(t, conn, cc, server, n, next)
	if writes > 2 {
		t.Fatalf("%d client writes for %d follow-up calls of one response burst, want <= 2", writes, n)
	}
	var corrs []uint64
	for corr := uint64(n + 1); corr <= 2*n; corr++ {
		corrs = append(corrs, corr)
	}
	if _, err := server.Write(encodeOKs(t, corrs...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-next; err != nil {
			t.Fatalf("follow-up call: %v", err)
		}
	}
}

// TestClientLoneCallWritesAtOnce: a call with no completion pending is one
// write, made before Call returns.
func TestClientLoneCallWritesAtOnce(t *testing.T) {
	conn, cc, server := pipeClient(t)
	got := make(chan []*Request, 1)
	go func() { got <- readRequests(server, 1) }()
	done := make(chan error, 1)
	if err := conn.Call(&Request{Service: "s", Method: "Lone"}, func(_ *Response, err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w != 1 {
		t.Fatalf("%d writes when Call returned, want 1", w)
	}
	reqs := <-got
	if len(reqs) != 1 {
		t.Fatal("scripted server did not read the call")
	}
	if _, err := server.Write(encodeOKs(t, reqs[0].Corr)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestClientBlockedCallbackStrandsNoQueuedCall: the first callback of a
// burst blocks for good; the calls the later callbacks issue still reach
// the server, because each completion leaves the pending count before it
// runs user code.
func TestClientBlockedCallbackStrandsNoQueuedCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	conn, _, server := pipeClient(t)
	block := make(chan struct{})
	defer close(block)
	const n = 8
	var first atomic.Bool
	go answerInOneWrite(t, server, n)
	for i := 0; i < n; i++ {
		err := conn.Call(&Request{Service: "s", Method: "First"}, func(_ *Response, err error) {
			if first.CompareAndSwap(false, true) {
				<-block
				return
			}
			_ = conn.Call(&Request{Service: "s", Method: "Next"}, func(*Response, error) {})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan int, 1)
	go func() { got <- len(readRequests(server, n-1)) }()
	select {
	case k := <-got:
		if k != n-1 {
			t.Fatalf("server read %d follow-up calls, want %d", k, n-1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up calls stranded behind a blocked callback")
	}
}

// TestPushConnWritesEveryCall: a push-enabled connection completes through
// its serialized queue, so it never queues a request — one write per call.
func TestPushConnWritesEveryCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	conn, cc, server := pipeClient(t)
	hello := make(chan error, 1)
	go func() {
		_, err := readFrame(server)
		hello <- err
	}()
	conn.SetPushHandler(func(*Request) {})
	if err := <-hello; err != nil {
		t.Fatal(err)
	}
	cc.writes.Store(0)
	const n = 8
	next := make(chan error, n)
	if writes := burstThenCallAgain(t, conn, cc, server, n, next); writes != n {
		t.Fatalf("%d client writes for %d follow-up calls on a push connection, want %d", writes, n, n)
	}
}

// failingConn fails every Write once fail is set.
type failingConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestClientFailedFlushFailsPendingRetryably: when the write of queued
// calls fails, every call on the connection fails retryably and the
// connection's goroutines end.
func TestClientFailedFlushFailsPendingRetryably(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseline := runtime.NumGoroutine()
	clientEnd, server := net.Pipe()
	sched := clock.NewReal()
	defer sched.Stop()
	fc := &failingConn{Conn: clientEnd}
	conn := NewTCPTransport(sched, WithTCPCallTimeout(10*time.Second)).newConn("pipe", fc)

	const n = 8
	outcomes := make(chan error, n)
	read := make(chan []*Request, 1)
	go func() { read <- readRequests(server, n) }()
	callTwice(t, conn, n, outcomes)
	var corrs []uint64
	for _, req := range <-read {
		corrs = append(corrs, req.Corr)
	}
	if len(corrs) != n {
		t.Fatalf("scripted server read %d of %d calls", len(corrs), n)
	}
	fc.fail.Store(true)
	if _, err := server.Write(encodeOKs(t, corrs...)); err != nil {
		t.Fatal(err)
	}
	failBy := time.After(5 * time.Second) // half the call timeout: the failure, not a timeout
	for i := 0; i < n; i++ {
		select {
		case err := <-outcomes:
			if err == nil || !Retryable(err) {
				t.Fatalf("follow-up call after a failed write: %v, want retryable", err)
			}
		case <-failBy:
			t.Fatalf("%d follow-up calls still pending after their write failed", n-i)
		}
	}
	_ = conn.Close()
	_ = server.Close()
	waitFor(t, "goroutines to end", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestServerSequentialCallsReuseOneWorker: calls one after another on one
// connection run on a single dispatch worker.
func TestServerSequentialCallsReuseOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	server, _ := serveCounting(t, NewDispatcher(tableSource{"calc": calculator{}}), 0)
	conn := dialTest(t, server.Addr().String())
	done := make(chan error, 1)
	for i := int64(0); i < 1000; i++ {
		err := conn.Call(&Request{Service: "calc", Method: "Add", Args: []any{i, int64(1)}},
			func(resp *Response, err error) {
				if err == nil && (resp.Status != StatusOK || resp.Results[0] != i+1) {
					err = errors.New("wrong sum")
				}
				done <- err
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := server.Stats(); st.WorkersStarted != 1 || st.FramesIn != 1000 {
		t.Fatalf("stats %+v: want 1 worker for 1000 sequential calls", st)
	}
}

// TestServerBlockedHandlersDelayNoOne: 64 handlers blocked at once on one
// connection all run — a new worker starts whenever none is parked — and
// afterwards at most serverKeepIdle stay parked, and are reused. The
// client is a raw socket that starts no goroutines, so the process
// goroutine count is the server's alone.
func TestServerBlockedHandlersDelayNoOne(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := &gateHandler{release: make(chan struct{})}
	server, _ := serveCounting(t, h, 0)
	nc, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// burst writes n calls in one segment and reads their n responses.
	var corr uint64
	burst := func(n int) {
		t.Helper()
		var wire []byte
		for i := 0; i < n; i++ {
			corr++
			frame, err := EncodeRequest(&Request{Corr: corr, Service: "echo", Method: "Echo", Args: []any{int64(i)}})
			if err != nil {
				t.Fatal(err)
			}
			wire = binary.BigEndian.AppendUint32(wire, uint32(len(frame)))
			wire = append(wire, frame...)
		}
		if _, err := nc.Write(wire); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			frame, err := readFrame(nc)
			if err != nil {
				t.Fatalf("response %d of %d: %v", i+1, n, err)
			}
			_, resp, kind, err := decodeClientFrame(frame)
			if err != nil || kind != frameResponse || resp.Status != StatusOK {
				t.Fatalf("call: kind %d, %+v, %v", kind, resp, err)
			}
			putFrameBuf(frame)
		}
	}
	go func() {
		for h.started.Load() < 64 {
			time.Sleep(time.Millisecond)
		}
		close(h.release)
	}()
	// Every goroutine of the connection, and none of its workers, runs now.
	waitFor(t, "the connection to be served", func() bool { return server.Stats().Reads > 0 })
	idle := runtime.NumGoroutine()
	burst(64) // returns only if all 64 handlers were at the gate at once
	started := server.Stats().WorkersStarted
	if started != 64 {
		t.Fatalf("%d workers for 64 blocked handlers, want 64", started)
	}
	waitFor(t, "surplus workers to exit", func() bool {
		return runtime.NumGoroutine() <= idle+serverKeepIdle
	})
	burst(serverKeepIdle)
	if got := server.Stats().WorkersStarted; got != started {
		t.Fatalf("%d workers after a burst the parked ones could serve, want %d", got, started)
	}

	_ = nc.Close()
	server.Close()
	waitFor(t, "goroutines to end", func() bool { return runtime.NumGoroutine() <= baseline })
}

// countingScheduler counts the timers armed through it.
type countingScheduler struct {
	clock.Scheduler
	afters atomic.Int64
}

func (s *countingScheduler) After(delay time.Duration, fn func()) clock.Timer {
	s.afters.Add(1)
	return s.Scheduler.After(delay, fn)
}

// TestSequentialCallsArmOneTimerAndStartOneWorker: a thousand calls one
// after another on one TCP connection arm one deadline timer between them
// and complete on one reused completion worker.
func TestSequentialCallsArmOneTimerAndStartOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	server, _ := serveCounting(t, NewDispatcher(tableSource{"calc": calculator{}}), 0)
	wall := clock.NewReal()
	t.Cleanup(wall.Stop)
	sched := &countingScheduler{Scheduler: wall}
	nc, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewTCPTransport(sched, WithTCPCallTimeout(time.Minute)).newConn("calc", nc)
	t.Cleanup(func() { _ = conn.Close() })
	done := make(chan error, 1)
	for i := int64(0); i < 1000; i++ {
		err := conn.Call(&Request{Service: "calc", Method: "Add", Args: []any{i, int64(1)}},
			func(resp *Response, err error) {
				if err == nil && (resp.Status != StatusOK || resp.Results[0] != i+1) {
					err = errors.New("wrong sum")
				}
				done <- err
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := sched.afters.Load(); got != 1 {
		t.Errorf("1000 sequential calls armed %d timers, want 1", got)
	}
	if got := conn.workersStarted.Load(); got != 1 {
		t.Errorf("1000 sequential calls started %d completion workers, want 1", got)
	}
}

// blockedIn counts the goroutines blocked on a channel receive inside
// function fn.
func blockedIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// TestClientBlockedCallbacksDelayNoOne: 64 callbacks blocked at once on
// one connection all run — a new completion worker starts whenever none is
// parked — and afterwards at most DefaultMaxInFlight stay parked, and are
// reused. Close releases them.
func TestClientBlockedCallbacksDelayNoOne(t *testing.T) {
	baseline := runtime.NumGoroutine()
	conn, _, server := pipeClient(t)
	idle := runtime.NumGoroutine() // the read loop

	// burst makes n calls that the scripted server answers in one
	// segment; with gate set, every callback waits until all n are in.
	burst := func(n int, gate bool) {
		t.Helper()
		var wg sync.WaitGroup
		var in atomic.Int64
		release := make(chan struct{})
		wg.Add(n)
		go answerInOneWrite(t, server, n)
		for i := 0; i < n; i++ {
			err := conn.Call(&Request{Service: "s", Method: "M"}, func(_ *Response, err error) {
				defer wg.Done()
				if err != nil {
					t.Errorf("call: %v", err)
				}
				if !gate {
					return
				}
				if in.Add(1) == int64(n) {
					close(release)
				}
				<-release
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
	}
	burst(64, true) // returns only if all 64 callbacks were in at once
	started := conn.workersStarted.Load()
	if started != 64 {
		t.Fatalf("%d completion workers for 64 blocked callbacks, want 64", started)
	}
	waitFor(t, "surplus completion workers to exit and the rest to park", func() bool {
		return runtime.NumGoroutine() <= idle+DefaultMaxInFlight &&
			blockedIn("completionWorker") == DefaultMaxInFlight
	})
	burst(DefaultMaxInFlight, false)
	if got := conn.workersStarted.Load(); got != started {
		t.Fatalf("%d completion workers after a burst the parked ones could serve, want %d", got, started)
	}

	_ = conn.Close()
	_ = server.Close()
	waitFor(t, "goroutines to end", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestCompositeLookupAllocatesNothing: resolving a host service with three
// instance exporters attached allocates nothing; an instance service still
// resolves, and the host wins a name both export.
func TestCompositeLookupAllocatesNothing(t *testing.T) {
	export := func(name string, svc any, names ...string) *module.Context {
		fw := module.New(module.WithName(name))
		if err := fw.Start(); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, err := fw.SystemContext().RegisterSingle("svc."+n, svc, module.Properties{
				module.PropServiceExported:     true,
				module.PropServiceExportedName: n,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return fw.SystemContext()
	}
	host, err := NewExporter(export("host", calculator{}, "calc"))
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	set := NewExporterSet()
	defer set.CloseAll()
	for _, id := range []string{"i3", "i1", "i2"} {
		set.Attach(id, export(id, id, "calc", "only."+id), nil, nil)
	}
	c := NewCompositeSource(host, set)
	if svc, ok := c.Lookup("calc"); !ok || svc != (calculator{}) {
		t.Fatalf("calc resolved to %v, %v; the host wins", svc, ok)
	}
	if svc, ok := c.Lookup("only.i2"); !ok || svc != "i2" {
		t.Fatalf("only.i2 resolved to %v, %v", svc, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Lookup("calc") }); allocs != 0 {
		t.Fatalf("CompositeSource.Lookup allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkTCPPipelinedCall drives reflective calc.Add over loopback TCP,
// 2 connections x 16 calls in flight, each callback issuing the next call,
// and reports the work per call: client writes, server reads, server
// flushes, dispatch workers started, deadline timers armed and client
// completion workers started.
func BenchmarkTCPPipelinedCall(b *testing.B) {
	const conns, depth = 2, 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	server := ServeTCP(ln, NewDispatcher(tableSource{"calc": calculator{}}))
	defer server.Close()
	wall := clock.NewReal()
	defer wall.Stop()
	sched := &countingScheduler{Scheduler: wall}
	transport := NewTCPTransport(sched)
	counted := make([]*countingConn, conns)
	clients := make([]*tcpConn, conns)
	for i := range clients {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		counted[i] = &countingConn{Conn: nc}
		clients[i] = transport.newConn(ln.Addr().String(), counted[i])
		defer clients[i].Close()
	}
	// run makes n calls in closed loops of conns x depth and returns when
	// all have completed.
	run := func(n int) {
		var left atomic.Int64
		left.Store(int64(n))
		var wg sync.WaitGroup
		wg.Add(n)
		var call func(c *tcpConn)
		call = func(c *tcpConn) {
			a := left.Add(-1)
			if a < 0 {
				return
			}
			err := c.Call(&Request{Service: "calc", Method: "Add", Args: []any{a, int64(1)}},
				func(resp *Response, err error) {
					if err != nil || resp.Status != StatusOK || resp.Results[0] != a+1 {
						b.Errorf("Add(%d, 1) = %+v, %v", a, resp, err)
					}
					wg.Done()
					call(c)
				})
			if err != nil {
				b.Errorf("call: %v", err)
				wg.Done()
			}
		}
		for _, c := range clients {
			for i := 0; i < depth; i++ {
				call(c)
			}
		}
		wg.Wait()
	}
	writes := func() (n int64) {
		for _, c := range counted {
			n += c.writes.Load()
		}
		return n
	}
	workers := func() (n int64) {
		for _, c := range clients {
			n += c.workersStarted.Load()
		}
		return n
	}
	run(conns * depth) // start the dispatch workers and grow their stacks
	w0, st0, t0, cw0 := writes(), server.Stats(), sched.afters.Load(), workers()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	st := server.Stats()
	per := func(d uint64) float64 { return float64(d) / float64(b.N) }
	b.ReportMetric(per(uint64(writes()-w0)), "client_writes/op")
	b.ReportMetric(per(st.Reads-st0.Reads), "server_reads/op")
	b.ReportMetric(per(st.Flushes-st0.Flushes), "server_flushes/op")
	b.ReportMetric(per(st.WorkersStarted-st0.WorkersStarted), "workers/op")
	b.ReportMetric(per(uint64(sched.afters.Load()-t0)), "timers/op")
	b.ReportMetric(per(uint64(workers()-cw0)), "client_workers/op")
}
