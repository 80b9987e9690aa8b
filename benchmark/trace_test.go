package main

import (
	"errors"
	"testing"
	"time"

	"dosgi/internal/remote"
)

// failingConn completes every call on the issuing goroutine, as a TCP
// connection does when the send fails because the server died.
type failingConn struct{ remote.Conn }

func (failingConn) Call(_ *remote.Request, cb func(*remote.Response, error)) error {
	cb(nil, errors.New("send failed"))
	return nil
}

// TestTracedCallCompletedOnTheIssuingGoroutine: a call that completes
// before Conn.Call returns is recorded as a failed op under its parent
// span; it must not wait for the section its own caller is in.
func TestTracedCallCompletedOnTheIssuingGoroutine(t *testing.T) {
	tr := newTracer()
	sw := &traceSwitch{}
	sw.set(tr)
	conn := tracedConn{Conn: failingConn{}, sw: sw}

	done := make(chan error, 1) // the retry's outcome
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		root := tr.start("op", 0, 7)
		tr.section(root, func() {
			_ = conn.Call(&remote.Request{}, func(_ *remote.Response, err error) {
				// The callback retries, as the invoker's failover does.
				_ = conn.Call(&remote.Request{}, func(_ *remote.Response, err error) { done <- err })
			})
		})
		tr.end(root)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("a call completed on the issuing goroutine deadlocked the tracer")
	}
	if err := <-done; err == nil {
		t.Fatal("the failed send was reported as a success")
	}
	calls := 0
	for _, s := range tr.spans {
		if s.Name != "remote.conn.call" {
			continue
		}
		calls++
		if s.Parent != 1 || s.Op != 7 || s.End == 0 {
			t.Errorf("conn span %+v: want a finished child of span 1 with op 7", s)
		}
	}
	if calls != 2 {
		t.Errorf("%d conn spans recorded, want 2", calls)
	}
}
