package conformance

import (
	"context"
	"flag"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"dosgi/internal/clock"
)

// wedgedChildArg is the positional argument that makes this test binary
// run the suite against a wedged backend (TestWedgedBackendChild).
const wedgedChildArg = "wedged-backend-child"

// wedgedChecks are one check through each wait that ends on the
// transport's call timeout alone — invokeErr (S4 ok) and subscribe (S6.2)
// have no select of their own. Every other wait in the suite is bounded by
// awaitTimeout or a read deadline.
const wedgedChecks = "^TestWedgedBackendChild$/^(S4_status|S6_2_events)$/^(ok|subscribe_resyncs_before_response)$"

// wedgedSuiteBound is how long those checks may take to fail: several
// times their two call timeouts, far short of the test binary's own
// timeout, so a hang shows up as the child outliving it.
const wedgedSuiteBound = 30 * time.Second

// TestSuiteFailsAgainstWedgedBackend runs the suite in a child process
// against a listener that accepts connections and never answers, and
// asserts that it fails — promptly, on the transport's call timeout, not
// by hanging until the test binary's own timeout.
func TestSuiteFailsAgainstWedgedBackend(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), wedgedSuiteBound)
	defer cancel()
	start := time.Now()
	out, err := exec.CommandContext(ctx, os.Args[0],
		"-test.run="+wedgedChecks, "-test.count=1", "-test.v", wedgedChildArg).CombinedOutput()
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		t.Fatalf("suite still running after %v against a wedged backend:\n%s", wedgedSuiteBound, out)
	}
	if err == nil {
		t.Fatalf("suite passed against a backend that never answers:\n%s", out)
	}
	if !strings.Contains(string(out), "--- FAIL: TestWedgedBackendChild") || strings.Count(string(out), "call timed out") != 2 {
		t.Fatalf("child did not fail both checks on the call timeout (%v):\n%s", err, out)
	}
	t.Logf("suite failed against a wedged backend in %v", elapsed.Round(time.Millisecond))
}

// TestWedgedBackendChild is the child half of
// TestSuiteFailsAgainstWedgedBackend; run directly, it skips.
func TestWedgedBackendChild(t *testing.T) {
	if flag.Arg(0) != wedgedChildArg {
		t.Skip("runs only as TestSuiteFailsAgainstWedgedBackend's child process")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var held []net.Conn // accepted, never read from or written to
		for {
			nc, err := ln.Accept()
			if err != nil {
				for _, c := range held {
					_ = c.Close()
				}
				return
			}
			held = append(held, nc)
		}
	}()
	sched := clock.NewReal()
	defer sched.Stop()
	Run(t, Target{Name: "wedged", Addr: ln.Addr().String(), Sched: sched, Echo: "echo"})
}
