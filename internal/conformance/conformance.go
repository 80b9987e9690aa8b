// Package conformance encodes docs/PROTOCOL.md §1–§7 as an executable,
// backend-agnostic check suite: framing and handshake (§1), correlation
// and pipelining (§2), the trace trailer (§3), status-code semantics
// (§4), codec value round-trips (§5), the reserved service planes —
// provisioning §6.1, event streams with replay and backpressure §6.2,
// metrics tuples §6.3, health alerts §6.4 — and the §7 robustness rules
// (size limits, depth limits, panic containment, oversized-result
// degradation).
//
// The same suite runs against every server that claims the protocol:
// the real dosgid daemon (cmd/dosgid) and the protocol simulator
// (internal/protosim). That symmetry is the point — the simulator is
// provably faithful to the daemon, and the daemon provably implements
// the documented spec, because one body of checks pins both.
//
// Checks speak the wire directly: some through the real client
// transport (pipelined calls, push subscriptions), some through raw TCP
// byte-writes that a correct client would never produce (truncated
// varints, oversize length prefixes, over-depth lists) — the frames §7
// exists for.
package conformance

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
)

// Target describes one server under test.
type Target struct {
	// Name labels failures ("dosgid", "dosgi-sim").
	Name string
	// Addr is the remote-protocol listener ("ip:port").
	Addr string
	// Sched drives the client transport's timers.
	Sched clock.Scheduler
	// Echo is an exported service implementing the probe method set:
	// Upper(string) string, Sleep(ms int64), Echo(...any) []any,
	// Boom() (panics), Weird() (unencodable result), Blob(n int64) []byte.
	Echo string
	// Artifact, when set, is an artifact the target serves over
	// dosgi.provision — enables the §6.1 checks.
	Artifact *provision.Artifact
	// InjectHealth, when set, folds one first-hand health observation
	// into the target's view (status "" withdraws the record) — enables
	// the §6.4 exactly-once checks. HealthNode is the Node the records
	// are attributed to.
	InjectHealth func(component, node, status, cause string)
	HealthNode   string
}

// Run executes the full suite against tgt. Section subtests run in
// order; each opens its own connections, so a §7 connection drop never
// bleeds into a later check.
func Run(t *testing.T, tgt Target) {
	if tgt.Addr == "" || tgt.Sched == nil || tgt.Echo == "" {
		t.Fatal("conformance: Target needs Addr, Sched and Echo")
	}
	h := &harness{tgt: tgt, tr: remote.NewTCPTransport(tgt.Sched)}
	t.Run("S1_framing", h.runFraming)
	t.Run("S2_correlation", h.runCorrelation)
	t.Run("S2_1_batching", h.runBatching)
	t.Run("S3_trace", h.runTrace)
	t.Run("S4_status", h.runStatus)
	t.Run("S5_values", h.runValues)
	t.Run("S6_1_provision", h.runProvision)
	t.Run("S6_2_events", h.runEvents)
	t.Run("S6_3_metrics", h.runMetrics)
	t.Run("S6_4_health", h.runHealth)
	t.Run("S7_limits", h.runLimits)
}

// awaitTimeout bounds every single wait in the suite.
const awaitTimeout = 5 * time.Second

type harness struct {
	tgt Target
	tr  *remote.TCPTransport
}

// dial opens a push-capable client connection, closed on test cleanup.
func (h *harness) dial(t *testing.T) remote.PushConn {
	t.Helper()
	conn, err := h.tr.Dial(h.tgt.Addr)
	if err != nil {
		t.Fatalf("%s: dial %s: %v", h.tgt.Name, h.tgt.Addr, err)
	}
	pc, ok := conn.(remote.PushConn)
	if !ok {
		t.Fatalf("%s: transport connection cannot receive pushes", h.tgt.Name)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return pc
}

// invokeErr performs one call and returns the response or error —
// synchronous send errors (e.g. remote.ErrFrameTooLarge) included.
func (h *harness) invokeErr(t *testing.T, conn remote.Conn, service, method string, args ...any) (*remote.Response, error) {
	t.Helper()
	// The transport's own call timeout bounds the wait.
	return remote.Await(func(cb func(*remote.Response, error)) error {
		return conn.Call(&remote.Request{Service: service, Method: method, Args: args}, cb)
	})
}

// invoke performs one call that must complete at the transport level
// (any Status is fine; transport errors fail the test).
func (h *harness) invoke(t *testing.T, conn remote.Conn, service, method string, args ...any) *remote.Response {
	t.Helper()
	resp, err := h.invokeErr(t, conn, service, method, args...)
	if err != nil {
		t.Fatalf("%s: %s.%s: %v", h.tgt.Name, service, method, err)
	}
	return resp
}

// invokeOK performs one call that must answer StatusOK.
func (h *harness) invokeOK(t *testing.T, conn remote.Conn, service, method string, args ...any) *remote.Response {
	t.Helper()
	resp := h.invoke(t, conn, service, method, args...)
	if resp.Status != remote.StatusOK {
		t.Fatalf("%s: %s.%s: status %d (%s), want OK", h.tgt.Name, service, method, resp.Status, resp.Err)
	}
	return resp
}

// assertAlive proves the server still accepts fresh connections and
// serves calls — the "clean close, healthy server" half of every §7
// negative check.
func (h *harness) assertAlive(t *testing.T) {
	t.Helper()
	conn := h.dial(t)
	defer conn.Close()
	resp := h.invokeOK(t, conn, h.tgt.Echo, "Upper", "ping")
	if len(resp.Results) != 1 || resp.Results[0] != "PING" {
		t.Fatalf("%s: liveness echo returned %v", h.tgt.Name, resp.Results)
	}
}

// --- raw wire access -------------------------------------------------

// rawDial opens a raw TCP connection for byte-level checks.
func (h *harness) rawDial(t *testing.T) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", h.tgt.Addr, awaitTimeout)
	if err != nil {
		t.Fatalf("%s: raw dial %s: %v", h.tgt.Name, h.tgt.Addr, err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc
}

// writeRawFrame writes one length-prefixed frame (§1.1: 4-byte
// big-endian length, then the frame bytes).
func writeRawFrame(t *testing.T, nc net.Conn, frame []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatalf("write frame header: %v", err)
	}
	if len(frame) > 0 {
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("write frame body: %v", err)
		}
	}
}

// readRawFrame reads one length-prefixed frame.
func readRawFrame(nc net.Conn, timeout time.Duration) ([]byte, error) {
	if err := nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(nc, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readRawResponse reads one frame and decodes it as a Response.
func readRawResponse(t *testing.T, nc net.Conn) *remote.Response {
	t.Helper()
	frame, err := readRawFrame(nc, awaitTimeout)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	_, resp, _, err := remote.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	if resp == nil {
		t.Fatalf("expected a response frame, got kind %#x", frame[0])
	}
	return resp
}

// rawRequest encodes a request frame with a caller-chosen correlation id.
func rawRequest(t *testing.T, corr uint64, service, method string, trace obs.TraceContext, args ...any) []byte {
	t.Helper()
	frame, err := remote.EncodeRequest(&remote.Request{
		Corr: corr, Service: service, Method: method, Args: args, Trace: trace,
	})
	if err != nil {
		t.Fatalf("encode request: %v", err)
	}
	return frame
}

// expectClosed asserts the server tears the connection down (§1.3/§7:
// an unparseable frame condemns only the connection that carried it) —
// a read must observe EOF/reset, not data and not a deadline.
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(awaitTimeout))
	buf := make([]byte, 64)
	for {
		n, err := nc.Read(buf)
		if err == nil {
			// Data in flight before the close (e.g. a HelloAck already
			// queued) is fine; keep draining until the close shows.
			_ = n
			continue
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Fatalf("server neither answered nor closed the connection")
		}
		return // EOF or reset: the close we wanted
	}
}

// --- push collection -------------------------------------------------

// eventSink collects pushed Notify frames and the wire-order log of
// pushes vs. call completions on one connection.
type eventSink struct {
	service string

	mu     sync.Mutex
	order  []string // "push" / "resp" in arrival order
	events []remote.ServiceEvent
	ch     chan remote.ServiceEvent
}

func newEventSink(service string) *eventSink {
	return &eventSink{service: service, ch: make(chan remote.ServiceEvent, 1024)}
}

// handler is the PushConn push handler feeding the sink.
func (s *eventSink) handler(req *remote.Request) {
	_, ev, err := remote.DecodeNotifyAs(s.service, req)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.order = append(s.order, "push")
	s.events = append(s.events, ev)
	s.mu.Unlock()
	select {
	case s.ch <- ev:
	default:
	}
}

func (s *eventSink) noteResp() {
	s.mu.Lock()
	s.order = append(s.order, "resp")
	s.mu.Unlock()
}

// await returns the next pushed event or fails.
func (s *eventSink) await(t *testing.T) remote.ServiceEvent {
	t.Helper()
	select {
	case ev := <-s.ch:
		return ev
	case <-time.After(awaitTimeout):
		t.Fatalf("no pushed event within %v", awaitTimeout)
		return remote.ServiceEvent{}
	}
}

// awaitNone asserts no event is pushed within d.
func (s *eventSink) awaitNone(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case ev := <-s.ch:
		t.Fatalf("unexpected pushed event %v", ev)
	case <-time.After(d):
	}
}

// snapshot returns copies of the order log and events so far.
func (s *eventSink) snapshot() ([]string, []remote.ServiceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...), append([]remote.ServiceEvent(nil), s.events...)
}

// subscribe opens a fresh connection, installs the sink and issues
// Subscribe(subID, filter[, window]) on the given event-stream service,
// asserting an OK response carrying [leaseMillis, replayWindow].
func (h *harness) subscribe(t *testing.T, service string, subID int64, filter string, window int64) (remote.PushConn, *eventSink, int64, int64) {
	t.Helper()
	conn := h.dial(t)
	sink := newEventSink(service)
	conn.SetPushHandler(sink.handler)
	args := []any{subID, filter}
	if window != 0 {
		args = append(args, window)
	}
	resp, err := remote.Await(func(cb func(*remote.Response, error)) error {
		return conn.Call(&remote.Request{Service: service, Method: remote.MethodSubscribe, Args: args},
			func(resp *remote.Response, err error) {
				sink.noteResp()
				cb(resp, err)
			})
	})
	if err != nil {
		t.Fatalf("%s: Subscribe: %v", h.tgt.Name, err)
	}
	if resp.Status != remote.StatusOK {
		t.Fatalf("%s: Subscribe: status %d (%s)", h.tgt.Name, resp.Status, resp.Err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%s: Subscribe answered %d results, want [leaseMillis, replayWindow]",
			h.tgt.Name, len(resp.Results))
	}
	lease, ok1 := resp.Results[0].(int64)
	ring, ok2 := resp.Results[1].(int64)
	if !ok1 || !ok2 {
		t.Fatalf("%s: Subscribe results %T/%T, want int64/int64",
			h.tgt.Name, resp.Results[0], resp.Results[1])
	}
	return conn, sink, lease, ring
}
