// Command dosgictl is the admin CLI for a dosgid node: it sends one
// command over the TCP admin protocol and prints the response.
//
//	dosgictl status
//	dosgictl create tenant-a
//	dosgictl start tenant-a
//	dosgictl list
//	dosgictl exports
//	dosgictl call echo Upper hello
//	dosgictl call echo Add 40 2
//	dosgictl call app.tenant-a Upper hello
//	dosgictl subscribe 3
//	dosgictl -timeout 60s subscribe 5 'app.*'
//	dosgictl subscribe 5 '*' 127.0.0.1:7790 32
//	dosgictl repo seed
//	dosgictl repo
//	dosgictl deploy app:greeter
//	dosgictl metrics
//	dosgictl metrics obs:self
//	dosgictl trace
//	dosgictl trace 8c736ec100000001
//	dosgictl health
//	dosgictl health 127.0.0.1:7791
//	dosgictl alerts
//	dosgictl -timeout 60s alerts follow 8
//
// call invokes a remotely exported service through the daemon's remote
// invocation stack (see internal/remote); arguments are parsed by the
// daemon as int64, float64, bool, then string. Double-quote an argument
// (shell-escaped, e.g. '"hello world"') to force string typing or embed
// spaces. Exports include services registered inside the daemon's
// virtual instances (listed by `exports` as "name instance=<id>").
//
// repo lists the daemon's artifact repository; every row carries a
// holders= column naming where the artifact can be fetched from: local
// for the daemon's own store plus the addresses of -peers daemons that
// advertise the same install location.
//
// subscribe streams remote service events (the dosgi.events verbs of
// docs/PROTOCOL.md) as EVENT lines until the requested count arrives: a
// synthetic resync of the current exports first, then live
// REGISTERED/MODIFIED/UNREGISTERING deltas. The optional trailing
// arguments select the event server address and the credit window (how
// many pushes the broker may send unacknowledged before it suspends
// delivery; 0 disables flow control). Raise -timeout when waiting for
// live events; the daemon gives up after its own 30s window.
//
// metrics is the one-stop metrics pull: one command prints every
// metrics provider — the hot-path latency histograms (invoker call,
// pool wait, frame round-trip, event ack lag, chunk fetch; each with
// count/p50/p99/p999/max under obs:self), framework counts and
// provisioning counters — of the addressed daemon AND of every peer it
// was started with, each line prefixed by its origin. An optional
// provider name narrows the sweep. trace with no argument lists the
// daemon's recent traces (id, service.method, duration); trace <id>
// prints that trace's spans assembled across the daemon and its peers:
// each client attempt with its failover cause, paired with the
// server-side execution (queue/handler split) it reached.
//
// health prints the daemon's replicated health view — one line per
// component per node (its own records plus every peer's, mirrored over
// dosgi.health pushes, never polled), optionally narrowed to one node's
// remote address. alerts prints the recent health transitions; alerts
// follow streams them live as ALERT lines (resync snapshot first) until
// the count (default 16) arrives — raise -timeout when waiting for a
// fault to happen.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"dosgi/internal/admin"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "dosgid admin address")
	timeout := flag.Duration("timeout", 15*time.Second, "response timeout (a CALL may walk the whole failover chain)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dosgictl [-addr host:port] [-timeout d] <command> [args...]")
		os.Exit(2)
	}
	if err := runWithTimeout(*addr, strings.Join(flag.Args(), " "), *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "dosgictl:", err)
		os.Exit(1)
	}
}

func runWithTimeout(addr, command string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	last, err := admin.Exchange(conn, command, func(line string) { fmt.Println(line) })
	if err != nil {
		return err
	}
	if strings.HasPrefix(last, "ERR") {
		return fmt.Errorf("%s", strings.TrimPrefix(last, "ERR "))
	}
	return nil
}
