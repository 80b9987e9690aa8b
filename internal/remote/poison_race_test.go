//go:build race

package remote

import (
	"strings"
	"testing"
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
