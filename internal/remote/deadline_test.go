package remote

import (
	"errors"
	"testing"
	"time"

	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

// quietRig is a netsim connection to a server that completes the
// handshake and answers nothing on its own: a test answers a request with
// answer, at the virtual instant it chooses.
type quietRig struct {
	eng  *sim.Engine
	conn Conn
	srv  *netsim.NIC
	addr netsim.Addr
	from netsim.Addr // the client's address, learned from its hello
}

func newQuietRig(t *testing.T, callTimeout time.Duration) *quietRig {
	t.Helper()
	r := &quietRig{eng: sim.New(1), addr: netsim.Addr{IP: "10.0.0.1", Port: 7100}}
	fabric := netsim.NewNetwork(r.eng)
	r.srv = fabric.AttachNode("server")
	client := fabric.AttachNode("client")
	if err := fabric.AssignIP("10.0.0.1", "server"); err != nil {
		t.Fatal(err)
	}
	if err := fabric.AssignIP("10.0.0.2", "client"); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Listen(r.addr, func(msg netsim.Message) {
		frame, _ := msg.Payload.([]byte)
		if _, _, kind, err := DecodeFrame(frame); err == nil && kind == frameHello {
			r.from = msg.From
			ack := encodeHello(true)
			_ = r.srv.Send(r.addr, msg.From, ack, len(ack))
		}
	}); err != nil {
		t.Fatal(err)
	}
	transport := NewNetsimTransport(r.eng, client, "10.0.0.2", WithNetsimCallTimeout(callTimeout))
	conn, err := transport.Dial(r.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	r.conn = conn
	r.eng.RunFor(10 * time.Millisecond) // the handshake
	return r
}

// answer sends an OK response to call corr.
func (r *quietRig) answer(t *testing.T, corr uint64) {
	t.Helper()
	out, err := EncodeResponse(&Response{Corr: corr, Status: StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Send(r.addr, r.from, out, len(out)); err != nil {
		t.Fatal(err)
	}
}

// outcome is one call's completion: which call, when and how.
type outcome struct {
	call int
	at   time.Duration
	err  error
}

// issue makes one call tagged i whose completion appends to got, and
// returns its correlation id.
func (r *quietRig) issue(t *testing.T, i int, got *[]outcome) uint64 {
	t.Helper()
	req := &Request{Service: "s", Method: "M"}
	if err := r.conn.Call(req, func(_ *Response, err error) {
		*got = append(*got, outcome{call: i, at: r.eng.Now(), err: err})
	}); err != nil {
		t.Fatal(err)
	}
	return req.Corr
}

// TestCallsTimeOutAtTheirDeadlinesInIssueOrder: calls issued at one
// instant all time out at exactly that instant plus the call timeout, in
// issue order; a second group issued later times out at its own deadline.
func TestCallsTimeOutAtTheirDeadlinesInIssueOrder(t *testing.T) {
	const timeout = 100 * time.Millisecond
	r := newQuietRig(t, timeout)
	var got []outcome
	var issuedAt [2]time.Duration
	for g := range issuedAt {
		issuedAt[g] = r.eng.Now()
		for i := 0; i < 8; i++ {
			r.issue(t, 8*g+i, &got)
		}
		r.eng.RunFor(30 * time.Millisecond)
	}
	r.eng.RunFor(time.Second)
	if len(got) != 16 {
		t.Fatalf("%d of 16 calls completed", len(got))
	}
	for i, o := range got {
		if want := issuedAt[i/8] + timeout; o.call != i || o.at != want || !errors.Is(o.err, ErrTimeout) {
			t.Fatalf("completion %d = call %d at %v (%v), want call %d at %v with ErrTimeout",
				i, o.call, o.at, o.err, i, want)
		}
	}
}

// TestReArmedDeadlineIsTheCallsOwn: the timer armed for a call that then
// completed fires early for the calls issued after it; it re-arms, and
// each of those still times out at exactly its own deadline.
func TestReArmedDeadlineIsTheCallsOwn(t *testing.T) {
	const timeout = time.Second
	r := newQuietRig(t, timeout)
	var got []outcome
	t0 := r.eng.Now()
	first := r.issue(t, 0, &got) // arms the timer for t0 + 1s
	r.eng.RunFor(10 * time.Millisecond)
	r.answer(t, first)
	r.eng.RunFor(490 * time.Millisecond)
	r.issue(t, 1, &got) // at t0 + 500ms
	r.eng.RunFor(700 * time.Millisecond)
	r.issue(t, 2, &got) // at t0 + 1.2s, after the first firing
	r.eng.RunFor(3 * time.Second)

	want := []outcome{
		{call: 0},
		{call: 1, at: t0 + 500*time.Millisecond + timeout, err: ErrTimeout},
		{call: 2, at: t0 + 1200*time.Millisecond + timeout, err: ErrTimeout},
	}
	if len(got) != len(want) || got[0].call != 0 || got[0].err != nil {
		t.Fatalf("completions %+v, want the answered call first", got)
	}
	for i, w := range want[1:] {
		if o := got[i+1]; o.call != w.call || o.at != w.at || !errors.Is(o.err, w.err) {
			t.Fatalf("completion %d = call %d at %v (%v), want call %d at %v with ErrTimeout",
				i+1, o.call, o.at, o.err, w.call, w.at)
		}
	}
}

// TestCloseFailsPendingCallsInIssueOrder: closing a connection fails its
// pending calls in issue order, every run, so the failover work their
// callbacks start on the simulator is the same under one seed.
func TestCloseFailsPendingCallsInIssueOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		r := newQuietRig(t, time.Second)
		var got []outcome
		for i := 0; i < 16; i++ {
			r.issue(t, i, &got)
		}
		r.eng.RunFor(10 * time.Millisecond)
		_ = r.conn.Close()
		if len(got) != 16 {
			t.Fatalf("run %d: %d of 16 calls failed on Close", run, len(got))
		}
		for i, o := range got {
			if o.call != i || !errors.Is(o.err, ErrConnClosed) {
				t.Fatalf("run %d: failure %d was call %d (%v), want call %d with ErrConnClosed",
					run, i, o.call, o.err, i)
			}
		}
	}
}
