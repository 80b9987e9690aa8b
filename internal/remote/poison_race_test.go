//go:build race

package remote

import (
	"strings"
	"testing"
	"time"
)

// TestKeptBorrowedValueReadsAsPoison: a completion callback that keeps a
// response string without Retain breaks the borrow contract, and race
// builds make that loud — the frame is overwritten with 0xDB once the
// callback has returned — while what the Invoker hands out is owned.
func TestKeptBorrowedValueReadsAsPoison(t *testing.T) {
	poison := strings.Repeat("\xdb", len("BORROWED"))

	// The step TCP's read loop takes after a completion: recycle the frame.
	frame, err := EncodeResponse(&Response{Status: StatusOK, Results: []any{"BORROWED"}})
	if err != nil {
		t.Fatal(err)
	}
	buf := append(getFrameBuf(0), frame...)
	_, resp, _, err := DecodeFrameBorrowing(buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := resp.Results[0].(string)
	putFrameBuf(buf)
	if kept != poison {
		t.Fatalf("string kept past putFrameBuf reads %q, want poison", kept)
	}

	// End to end over netsim: the same mistake in a Conn.Call callback,
	// and the same call through the Invoker.
	r := newRig(t, 0)
	conn, err := r.pool.transport.Dial(rigServerAddr)
	if err != nil {
		t.Fatal(err)
	}
	kept = ""
	err = conn.Call(&Request{Service: "calc", Method: "Upper", Args: []any{"borrowed"}},
		func(resp *Response, err error) {
			if err != nil || resp.Status != StatusOK {
				t.Errorf("Upper = %+v, %v", resp, err)
				return
			}
			kept = resp.Results[0].(string) // the bug: no Retain
			if kept != "BORROWED" {
				t.Errorf("inside the callback the value reads %q", kept)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	var owned []any
	r.invoker.Go("calc", "Upper", []any{"owned"}, func(res []any, err error) {
		if err != nil {
			t.Errorf("invoker Upper: %v", err)
		}
		owned = res
	})
	r.eng.Run()
	if kept != poison {
		t.Fatalf("string kept past its callback reads %q, want poison", kept)
	}
	if len(owned) != 1 || owned[0] != "OWNED" {
		t.Fatalf("invoker results = %v, want an owned \"OWNED\"", owned)
	}
}

// TestTCPKeptBorrowReadsAsPoison: reading frames through a buffer did not
// turn them into windows on it — every frame is still its own pooled
// buffer, so over TCP too a string kept past its callback reads as poison
// while the response that arrived in the same segment is intact.
func TestTCPKeptBorrowReadsAsPoison(t *testing.T) {
	conn, _, server := pipeClient(t)
	go answerInOneWrite(t, server, 2)
	// With a push handler, completions run in order on one goroutine, which
	// orders the second callback's read after the first frame's recycling.
	conn.SetPushHandler(func(*Request) {})

	var kept string
	verdict := make(chan [2]string, 1)
	err := conn.Call(&Request{Service: "s", Method: "BORROWED"}, func(resp *Response, err error) {
		if err != nil {
			t.Errorf("first call: %v", err)
			return
		}
		kept = resp.Results[0].(string) // the bug: no Retain
		// Hold this frame until the reader has taken the second one out of
		// the segment, so nothing reuses the buffer once it is recycled.
		for deadline := time.Now().Add(5 * time.Second); conn.PendingPushes() == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = conn.Call(&Request{Service: "s", Method: "INTACT"}, func(resp *Response, err error) {
		if err != nil {
			t.Errorf("second call: %v", err)
			verdict <- [2]string{}
			return
		}
		verdict <- [2]string{strings.Clone(kept), strings.Clone(resp.Results[0].(string))}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := <-verdict
	if want := strings.Repeat("\xdb", len("BORROWED")); got[0] != want {
		t.Fatalf("string kept past its callback reads %q, want poison", got[0])
	}
	if got[1] != "INTACT" {
		t.Fatalf("neighbouring frame reads %q", got[1])
	}
}
