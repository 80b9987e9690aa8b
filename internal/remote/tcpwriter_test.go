package remote

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dosgi/internal/clock"
)

// startTestWriter runs a connWriter over nc until the test ends.
func startTestWriter(t *testing.T, nc net.Conn) *connWriter {
	t.Helper()
	w := newConnWriter(nc, &tcpServerCounters{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run()
	}()
	t.Cleanup(func() {
		w.drain()
		_ = nc.Close() // unblocks a write nobody reads
		<-done
	})
	return w
}

// countingConn counts the Write calls and the Read calls that returned
// data on one side of a connection. It is not a *net.TCPConn, so a
// vectored write shows up as one Write per buffer.
type countingConn struct {
	net.Conn
	writes, dataReads atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.dataReads.Add(1)
	}
	return n, err
}

// countingListener hands out countingConns; sndbuf > 0 shrinks each
// accepted socket's send buffer.
type countingListener struct {
	net.Listener
	sndbuf int

	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.sndbuf > 0 {
		_ = nc.(*net.TCPConn).SetWriteBuffer(l.sndbuf)
	}
	c := &countingConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *countingListener) writes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, c := range l.conns {
		n += c.writes.Load()
	}
	return n
}

// gateHandler answers echo requests with their first argument once
// release is closed; started counts the handlers that have reached the
// gate.
type gateHandler struct {
	started atomic.Int64
	release chan struct{}
}

func (h *gateHandler) Serve(req *Request) *Response {
	h.started.Add(1)
	<-h.release
	return &Response{Status: StatusOK, Results: []any{req.Args[0]}}
}

type handlerFunc func(*Request) *Response

func (f handlerFunc) Serve(req *Request) *Response { return f(req) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func serveCounting(t *testing.T, h Handler, sndbuf int) (*TCPServer, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln, sndbuf: sndbuf}
	server := ServeTCP(cl, h)
	t.Cleanup(server.Close)
	return server, cl
}

func dialTest(t *testing.T, addr string) Conn {
	t.Helper()
	sched := clock.NewReal()
	t.Cleanup(sched.Stop)
	conn, err := NewTCPTransport(sched, WithTCPCallTimeout(10*time.Second)).Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestWriterCoalescesBurst: on one P, the responses of handlers that
// become runnable together leave in a few writes, not one each — the
// writer's single yield lets every runnable handler queue first.
func TestWriterCoalescesBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := &gateHandler{release: make(chan struct{})}
	server, ln := serveCounting(t, h, 0)
	conn := dialTest(t, server.Addr().String())

	const n = 32
	results := make(chan int64, n)
	for i := 0; i < n; i++ {
		err := conn.Call(&Request{Service: "echo", Method: "Echo", Args: []any{int64(i)}},
			func(resp *Response, err error) {
				if err != nil || resp.Status != StatusOK || len(resp.Results) != 1 {
					t.Errorf("call: %+v, %v", resp, err)
					results <- -1
					return
				}
				results <- resp.Results[0].(int64)
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every handler at the gate", func() bool { return h.started.Load() == n })
	if w := ln.writes(); w != 0 {
		t.Fatalf("%d server writes before any response", w)
	}
	close(h.release)
	seen := make(map[int64]bool)
	for i := 0; i < n; i++ {
		seen[<-results] = true
	}
	for i := int64(0); i < n; i++ {
		if !seen[i] {
			t.Fatalf("response %d missing or wrong: %v", i, seen)
		}
	}
	st := server.Stats()
	if w := ln.writes(); w > n/4 || uint64(w) != st.Flushes {
		t.Fatalf("%d server writes (%d flushes) for %d responses, want <= %d", w, st.Flushes, n, n/4)
	}
	if st.FramesOut != n || st.FramesIn != n {
		t.Fatalf("stats = %+v, want %d frames each way", st, n)
	}
}

// TestWriterLoneCallOneWriteNoYield: a call with nothing else in flight is
// written at once — one write, no yield.
func TestWriterLoneCallOneWriteNoYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := &gateHandler{release: make(chan struct{})}
	close(h.release)
	server, ln := serveCounting(t, h, 0)
	conn := dialTest(t, server.Addr().String())

	done := make(chan int64, 1)
	err := conn.Call(&Request{Service: "echo", Method: "Echo", Args: []any{int64(7)}},
		func(resp *Response, err error) {
			if err != nil {
				t.Errorf("call: %v", err)
				done <- -1
				return
			}
			done <- resp.Results[0].(int64)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != 7 {
		t.Fatalf("echo = %d", got)
	}
	st := server.Stats()
	if w := ln.writes(); w != 1 || st.Flushes != 1 || st.FramesOut != 1 || st.Yields != 0 {
		t.Fatalf("%d writes, stats %+v; want exactly one write and no yield", w, st)
	}
}

// TestWriterLargeFrameByReference: a 64 KiB response is handed to the
// socket from its own buffer, not copied into the contiguous one.
func TestWriterLargeFrameByReference(t *testing.T) {
	chunk := bytes.Repeat([]byte{0xA5}, 64<<10)
	h := &gateHandler{release: make(chan struct{})}
	close(h.release)
	server, _ := serveCounting(t, h, 0)
	conn := dialTest(t, server.Addr().String())

	done := make(chan bool, 1)
	err := conn.Call(&Request{Service: "echo", Method: "Echo", Args: []any{chunk}},
		func(resp *Response, err error) {
			done <- err == nil && len(resp.Results) == 1 && bytes.Equal(resp.Results[0].([]byte), chunk)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("64 KiB echo came back wrong")
	}
	if got := server.stats.framesByRef.Load(); got != 1 {
		t.Fatalf("framesByRef = %d, want 1 (the chunk response)", got)
	}
	if st := server.Stats(); st.Flushes != 1 || st.Yields != 0 {
		t.Fatalf("stats %+v; a bulk response is one undelayed flush", st)
	}
}

// TestWriterBoundedAgainstStalledReader: a peer that sends 10k requests
// and never reads a response pins about the queue cap, not its backlog —
// the queued bytes never pass the cap by more than one frame; Close still
// returns and every goroutine ends.
func TestWriterBoundedAgainstStalledReader(t *testing.T) {
	baseline := runtime.NumGoroutine()
	payload := bytes.Repeat([]byte{0x5A}, 32<<10)
	h := handlerFunc(func(*Request) *Response {
		return &Response{Status: StatusOK, Results: []any{payload}}
	})
	server, _ := serveCounting(t, h, 64<<10)

	nc, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.(*net.TCPConn).SetReadBuffer(64 << 10)

	const n = 10_000 // x 32 KiB = 320 MB of responses nobody reads
	for i := 0; i < n; i++ {
		frame, err := EncodeRequest(&Request{Corr: uint64(i + 1), Service: "s", Method: "M"})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(nc, frame); err != nil {
			t.Fatal(err)
		}
	}
	largest, err := EncodeResponse(&Response{Corr: n, Status: StatusOK, Results: []any{payload}})
	if err != nil {
		t.Fatal(err)
	}
	maxFrame := 4 + len(largest) // length prefix + the largest response
	waitFor(t, "the queue to fill", func() bool {
		st := server.Stats()
		return st.FramesIn == n && st.QueueWaits > 0
	})
	peak := server.Stats().QueuedPeak
	t.Logf("queued-bytes high-water mark: %d", peak)
	if peak > writerQueueCap+uint64(maxFrame) {
		t.Fatalf("%d bytes queued behind a stalled reader; the cap is %d plus one %d-byte frame",
			peak, writerQueueCap, maxFrame)
	}

	closed := make(chan struct{})
	go func() {
		server.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a stalled reader")
	}
	waitFor(t, "goroutines to end", func() bool { return runtime.NumGoroutine() <= baseline })
}

// pipeClient runs the TCP client protocol over one end of a net.Pipe and
// returns it with the peer end a test scripts as the server.
func pipeClient(t *testing.T) (*tcpConn, *countingConn, net.Conn) {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	sched := clock.NewReal()
	t.Cleanup(sched.Stop)
	cc := &countingConn{Conn: clientEnd}
	conn := NewTCPTransport(sched, WithTCPCallTimeout(10*time.Second)).newConn("pipe", cc)
	t.Cleanup(func() {
		_ = conn.Close()
		_ = serverEnd.Close()
	})
	return conn, cc, serverEnd
}

// answerInOneWrite reads n requests from the scripted server end and
// answers them all — each with its own Method string as the result — in a
// single Write: n response frames back to back in one segment.
func answerInOneWrite(t *testing.T, server net.Conn, n int) {
	t.Helper()
	var wire []byte
	for n > 0 {
		frame, err := readFrame(server)
		if err != nil {
			t.Errorf("scripted server read: %v", err)
			return
		}
		req, _, kind, err := DecodeFrame(frame)
		if err != nil {
			t.Errorf("scripted server decode: %v", err)
			return
		}
		if kind != frameRequest {
			continue // a Hello: nothing to answer
		}
		out, err := EncodeResponse(&Response{Corr: req.Corr, Status: StatusOK, Results: []any{req.Method}})
		if err != nil {
			t.Errorf("scripted server encode: %v", err)
			return
		}
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(out)))
		wire = append(wire, out...)
		n--
	}
	if _, err := server.Write(wire); err != nil {
		t.Errorf("scripted server write: %v", err)
	}
}

// TestClientReadsCoalescedResponses: three responses that arrive in one
// segment complete three calls off a single read — a peer must not assume
// one frame per read (PROTOCOL.md §2).
func TestClientReadsCoalescedResponses(t *testing.T) {
	conn, cc, server := pipeClient(t)
	go answerInOneWrite(t, server, 3)

	results := make(chan string, 3)
	for _, m := range []string{"One", "Two", "Three"} {
		err := conn.Call(&Request{Service: "s", Method: m}, func(resp *Response, err error) {
			if err != nil || len(resp.Results) != 1 {
				t.Errorf("call: %+v, %v", resp, err)
				results <- ""
				return
			}
			results <- resp.Retain().Results[0].(string)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		seen[<-results] = true
	}
	if !seen["One"] || !seen["Two"] || !seen["Three"] {
		t.Fatalf("completions = %v", seen)
	}
	if r := cc.dataReads.Load(); r != 1 {
		t.Fatalf("client made %d reads for three coalesced responses, want 1", r)
	}
}
