package main

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dosgi/internal/module"
	"dosgi/internal/obs"
	"dosgi/internal/services"
)

// startDaemon runs an in-process dosgid on ephemeral ports.
func startDaemon(t *testing.T, peers ...string) *daemon {
	t.Helper()
	d, err := newDaemon("127.0.0.1:0", "127.0.0.1:0", peers, 1, defaultHealthConfig())
	if err != nil {
		t.Fatal(err)
	}
	go d.serveAdmin()
	t.Cleanup(d.close)
	return d
}

// admin sends one admin command and returns the response lines up to and
// including the OK/ERR terminator — the same protocol dosgictl speaks.
func admin(t *testing.T, d *daemon, command string) []string {
	t.Helper()
	return adminAt(t, d.adminLn.Addr().String(), command)
}

func last(lines []string) string { return lines[len(lines)-1] }

func TestAdminCallInvokesOverTCP(t *testing.T) {
	d := startDaemon(t)

	lines := admin(t, d, "CALL echo Upper hello")
	if len(lines) != 2 || lines[0] != "= HELLO" || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("CALL Upper = %q", lines)
	}
	lines = admin(t, d, "CALL echo Add 40 2")
	if lines[0] != "= 42" {
		t.Fatalf("CALL Add = %q", lines)
	}
	lines = admin(t, d, "CALL echo Reverse dosgi")
	if lines[0] != "= igsod" {
		t.Fatalf("CALL Reverse = %q", lines)
	}
	// Unknown method is an application error, reported as ERR.
	lines = admin(t, d, "CALL echo Nope")
	if !strings.HasPrefix(last(lines), "ERR") {
		t.Fatalf("CALL Nope = %q", lines)
	}
	// Unresolvable service.
	lines = admin(t, d, "CALL ghost X")
	if !strings.HasPrefix(last(lines), "ERR") {
		t.Fatalf("CALL ghost = %q", lines)
	}
}

func TestAdminExportsAndStatus(t *testing.T) {
	d := startDaemon(t)
	// The built-in echo service plus the metrics and provisioning services.
	lines := admin(t, d, "EXPORTS")
	if len(lines) != 4 || lines[0] != "dosgi.metrics" || lines[1] != "dosgi.provision" ||
		lines[2] != "echo" || last(lines) != "OK 3 export(s)" {
		t.Fatalf("EXPORTS = %q", lines)
	}
	lines = admin(t, d, "STATUS")
	if !strings.Contains(lines[0], "exports=3") {
		t.Fatalf("STATUS = %q", lines)
	}

	// A service registered with service.exported=true becomes invocable
	// while the daemon runs.
	if _, err := d.host.SystemContext().RegisterSingle("dosgi.Extra", services.Echo{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "extra",
	}); err != nil {
		t.Fatal(err)
	}
	lines = admin(t, d, "CALL extra Upper dyn")
	if lines[0] != "= DYN" {
		t.Fatalf("CALL extra = %q", lines)
	}
}

func TestCallFailsOverToPeerDaemon(t *testing.T) {
	// peer exports a service the front daemon does not have.
	peer := startDaemon(t)
	if _, err := peer.host.SystemContext().RegisterSingle("dosgi.Math", services.Echo{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "math",
	}); err != nil {
		t.Fatal(err)
	}
	front := startDaemon(t, peer.remoteSrv.Addr().String())

	// The service resolves only through the peer endpoint.
	lines := admin(t, front, "CALL math Add 20 22")
	if lines[0] != "= 42" || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("peer CALL = %q", lines)
	}

	// Local exports still resolve locally.
	lines = admin(t, front, "CALL echo Upper local")
	if lines[0] != "= LOCAL" {
		t.Fatalf("local CALL = %q", lines)
	}
}

// TestSubscribeStreamsResyncEvents drives the SUBSCRIBE verb: a new
// subscription first receives the daemon's current exports as synthetic
// REGISTERED events over the dosgi.events wire protocol.
func TestSubscribeStreamsResyncEvents(t *testing.T) {
	d := startDaemon(t)
	lines := admin(t, d, "SUBSCRIBE 3")
	if last(lines) != "OK 3 event(s)" {
		t.Fatalf("SUBSCRIBE = %q", lines)
	}
	if len(lines) != 4 ||
		!strings.HasPrefix(lines[0], "EVENT REGISTERED dosgi.metrics") ||
		!strings.HasPrefix(lines[1], "EVENT REGISTERED dosgi.provision") ||
		!strings.HasPrefix(lines[2], "EVENT REGISTERED echo") {
		t.Fatalf("SUBSCRIBE events = %q", lines)
	}
	// Filters narrow the stream.
	lines = admin(t, d, "SUBSCRIBE 1 echo")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "EVENT REGISTERED echo") {
		t.Fatalf("filtered SUBSCRIBE = %q", lines)
	}
	// An explicit credit window (and addr) rides the same verb.
	lines = admin(t, d, "SUBSCRIBE 1 echo "+d.remoteAddr+" 4")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "EVENT REGISTERED echo") {
		t.Fatalf("windowed SUBSCRIBE = %q", lines)
	}
	if lines := admin(t, d, "SUBSCRIBE zero"); !strings.HasPrefix(last(lines), "ERR") {
		t.Fatalf("bad count = %q", lines)
	}
	if lines := admin(t, d, "SUBSCRIBE 1 echo "+d.remoteAddr+" -3"); !strings.HasPrefix(last(lines), "ERR") {
		t.Fatalf("bad window = %q", lines)
	}
}

// TestInstanceExportsInvocableAndObservable: a service registered inside
// a CREATEd virtual instance is listed, remotely CALLable through the
// daemon's listener, visible as a REGISTERED event with the instance id,
// and withdrawn when the instance stops.
func TestInstanceExportsInvocableAndObservable(t *testing.T) {
	d := startDaemon(t)
	if lines := admin(t, d, "CREATE t1"); !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("CREATE = %q", lines)
	}
	if lines := admin(t, d, "START t1"); !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("START = %q", lines)
	}
	lines := admin(t, d, "EXPORTS")
	found := false
	for _, line := range lines {
		if line == "app.t1 instance=t1" {
			found = true
		}
	}
	if !found || last(lines) != "OK 4 export(s)" {
		t.Fatalf("EXPORTS after START = %q", lines)
	}
	// The instance's service answers through the standard remote stack.
	lines = admin(t, d, "CALL app.t1 Upper vosgi")
	if len(lines) != 2 || lines[0] != "= VOSGI" {
		t.Fatalf("CALL app.t1 = %q", lines)
	}
	// The event stream carries the instance id.
	lines = admin(t, d, "SUBSCRIBE 1 app.t1")
	if len(lines) != 2 || !strings.Contains(lines[0], "instance=t1") {
		t.Fatalf("SUBSCRIBE app.t1 = %q", lines)
	}
	// Stopping the instance withdraws the export.
	if lines := admin(t, d, "STOP t1"); !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("STOP = %q", lines)
	}
	lines = admin(t, d, "EXPORTS")
	if last(lines) != "OK 3 export(s)" {
		t.Fatalf("EXPORTS after STOP = %q", lines)
	}
	if lines := admin(t, d, "CALL app.t1 Upper x"); !strings.HasPrefix(last(lines), "ERR") {
		t.Fatalf("CALL after STOP = %q", lines)
	}
}

func TestCallQuotedMultiwordArgument(t *testing.T) {
	d := startDaemon(t)
	lines := admin(t, d, `CALL echo Upper "hello world"`)
	if len(lines) != 2 || lines[0] != "= HELLO WORLD" || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("quoted CALL = %q", lines)
	}
	// Quotes force string type: "42" reaches Upper as a string, not int64.
	lines = admin(t, d, `CALL echo Upper "42"`)
	if lines[0] != "= 42" || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("forced-string CALL = %q", lines)
	}
}

func TestCallResultsStayOutOfStatusChannel(t *testing.T) {
	// A service result that IS the string "OK" or "ERR ..." must not
	// terminate or fail the admin response.
	d := startDaemon(t)
	lines := admin(t, d, "CALL echo Upper ok")
	if len(lines) != 2 || lines[0] != "= OK" || last(lines) != "OK 1 result(s)" {
		t.Fatalf("result 'OK' broke framing: %q", lines)
	}
	lines = admin(t, d, "CALL echo Upper err")
	if len(lines) != 2 || lines[0] != "= ERR" || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("result 'ERR' broke framing: %q", lines)
	}
}

// TestUnknownVerbListsSupported covers the discoverability contract: any
// unrecognized admin verb answers ERR naming every supported verb.
func TestUnknownVerbListsSupported(t *testing.T) {
	d := startDaemon(t)
	cases := []struct {
		line string
		verb string // what the ERR line should echo back
	}{
		{"FOO", "FOO"},
		{"fetch app:greeter", "FETCH"}, // commands are case-folded
		{"DEPLOYY x", "DEPLOYY"},
		{"HELP", "HELP"},
	}
	for _, tc := range cases {
		lines := admin(t, d, tc.line)
		got := last(lines)
		if !strings.HasPrefix(got, "ERR unknown command "+tc.verb) {
			t.Errorf("%q → %q, want ERR unknown command %s ...", tc.line, got, tc.verb)
			continue
		}
		for _, verb := range d.admin.Names() {
			if !strings.Contains(got, verb) {
				t.Errorf("%q response %q does not list supported verb %s", tc.line, got, verb)
			}
		}
	}
	// Known verbs never hit the unknown-command path.
	if lines := admin(t, d, "STATUS"); strings.Contains(last(lines), "unknown command") {
		t.Fatalf("STATUS misrouted: %q", lines)
	}
}

// TestRepoSeedAndList drives the REPO verb: seeding publishes the signed
// sample artifacts into the local repository and LIST shows them.
func TestRepoSeedAndList(t *testing.T) {
	d := startDaemon(t)
	if lines := admin(t, d, "REPO"); last(lines) != "OK 0 artifact(s)" {
		t.Fatalf("empty REPO = %q", lines)
	}
	if lines := admin(t, d, "REPO SEED"); last(lines) != "OK seeded 2 artifact(s)" {
		t.Fatalf("REPO SEED = %q", lines)
	}
	lines := admin(t, d, "REPO LIST")
	if len(lines) != 3 || last(lines) != "OK 2 artifact(s)" {
		t.Fatalf("REPO LIST = %q", lines)
	}
	if !strings.HasPrefix(lines[0], "app:greeter ") || !strings.Contains(lines[0], "signer=dev") {
		t.Fatalf("REPO LIST row = %q", lines[0])
	}
	// A peer-less daemon is its own only holder.
	if !strings.HasSuffix(lines[0], "holders=local") {
		t.Fatalf("REPO LIST holders column = %q", lines[0])
	}
	if lines := admin(t, d, "REPO NONSENSE"); !strings.HasPrefix(last(lines), "ERR usage: REPO") {
		t.Fatalf("REPO NONSENSE = %q", lines)
	}
}

// TestDeployFetchesFromPeerDaemon is the daemon-side provisioning loop: a
// front daemon that never held the artifacts deploys them by fetching
// chunks from a seeded peer over TCP, verifying, resolving the
// Require-Bundle dependency, installing and starting — after which the
// provisioned service is CALLable locally.
func TestDeployFetchesFromPeerDaemon(t *testing.T) {
	peer := startDaemon(t)
	if lines := admin(t, peer, "REPO SEED"); !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("seeding peer: %q", lines)
	}
	front := startDaemon(t, peer.remoteSrv.Addr().String())

	// Deploying a location the front daemon has never seen resolves the
	// metadata and the bytes through the peer.
	lines := admin(t, front, "DEPLOY app:greeter")
	if !strings.HasPrefix(last(lines), "OK deployed app:greeter") {
		t.Fatalf("DEPLOY = %q", lines)
	}
	if !strings.Contains(lines[0], "com.example.greeter/1.0.0 state=ACTIVE") {
		t.Fatalf("DEPLOY detail = %q", lines[0])
	}
	// The dependency rode along and the fetched copies are now local;
	// the HOLDERS column shows the seeding peer as a second replica.
	lines = admin(t, front, "REPO LIST")
	if last(lines) != "OK 2 artifact(s)" {
		t.Fatalf("front REPO after deploy = %q", lines)
	}
	peerAddr := peer.remoteSrv.Addr().String()
	for _, row := range lines[:2] {
		if !strings.Contains(row, "holders=local,"+peerAddr) {
			t.Fatalf("front REPO row lacks peer holder %s: %q", peerAddr, row)
		}
	}
	// The provisioned bundle's exported service answers through CALL.
	lines = admin(t, front, "CALL greet Hello dosgi")
	if len(lines) != 2 || !strings.Contains(lines[0], "hello, dosgi!") {
		t.Fatalf("CALL greet = %q", lines)
	}

	// Unknown locations still fail cleanly.
	if lines := admin(t, front, "DEPLOY app:ghost"); !strings.HasPrefix(last(lines), "ERR") {
		t.Fatalf("DEPLOY ghost = %q", lines)
	}
}

// bigResult returns a result far beyond bufio.Scanner's 64 KiB default.
type bigResult struct{}

func (bigResult) Blob() string { return strings.Repeat("x", 256<<10) }

func TestCallResultLargerThanScannerDefault(t *testing.T) {
	d := startDaemon(t)
	if _, err := d.host.SystemContext().RegisterSingle("dosgi.Big", bigResult{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "big",
	}); err != nil {
		t.Fatal(err)
	}
	lines := admin(t, d, "CALL big Blob")
	if len(lines) != 2 || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("big CALL framing broke: %d lines, last %q", len(lines), last(lines))
	}
	if len(lines[0]) != len("= ")+256<<10 {
		t.Fatalf("big CALL result truncated: %d bytes", len(lines[0]))
	}
	// A large inbound argument survives the daemon-side scanner too.
	lines = admin(t, d, `CALL echo Upper "`+strings.Repeat("y", 128<<10)+`"`)
	if len(lines) != 2 || !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("big argument framing broke: last %q", last(lines))
	}
	if len(lines[0]) != len("= ")+128<<10 {
		t.Fatalf("big argument result truncated: %d bytes", len(lines[0]))
	}
}

// multiline is registered in the test to return a newline-bearing result.
type multiline struct{}

func (multiline) Lines() string { return "a\nOK 0 result(s)\nb" }

func TestCallQuotesNewlineResults(t *testing.T) {
	d := startDaemon(t)
	if _, err := d.host.SystemContext().RegisterSingle("dosgi.Multi", multiline{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "multi",
	}); err != nil {
		t.Fatal(err)
	}
	lines := admin(t, d, "CALL multi Lines")
	if len(lines) != 2 || last(lines) != "OK 1 result(s)" {
		t.Fatalf("newline result broke framing: %q", lines)
	}
	if lines[0] != `= "a\nOK 0 result(s)\nb"` {
		t.Fatalf("newline result = %q", lines[0])
	}
}

// TestMetricsOneStopPull: METRICS against one daemon of a three-daemon
// cluster returns the histogram percentiles of EVERY provider on EVERY
// node — the local lines plus one origin-prefixed block per peer, read
// over the peers' exported dosgi.metrics service.
func TestMetricsOneStopPull(t *testing.T) {
	a := startDaemon(t)
	b := startDaemon(t)
	front := startDaemon(t, a.remoteSrv.Addr().String(), b.remoteSrv.Addr().String())

	// One call through each daemon's own stack gives every invoker/frame
	// histogram at least one sample.
	for _, d := range []*daemon{a, b, front} {
		if lines := admin(t, d, "CALL echo Upper ping"); !strings.HasPrefix(last(lines), "OK") {
			t.Fatalf("warmup CALL = %q", lines)
		}
	}

	lines := admin(t, front, "METRICS")
	if !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("METRICS = %q", last(lines))
	}
	joined := strings.Join(lines, "\n")
	origins := []string{"local", a.remoteSrv.Addr().String(), b.remoteSrv.Addr().String()}
	providers := []string{"obs:self", "framework:dosgid", "provision:self"}
	for _, origin := range origins {
		for _, prov := range providers {
			if !strings.Contains(joined, origin+" "+prov+" ") {
				t.Fatalf("METRICS missing provider %s of origin %s:\n%s", prov, origin, joined)
			}
		}
		for _, hist := range obs.HistogramNames() {
			for _, q := range []string{".count=", ".p50ns=", ".p99ns=", ".p999ns=", ".maxns="} {
				if !strings.Contains(joined, origin+" obs:self "+hist+q) {
					t.Fatalf("METRICS missing %s%s of origin %s:\n%s", hist, q, origin, joined)
				}
			}
		}
	}
	// The warmed-up invoker histograms actually counted the calls.
	for _, origin := range origins {
		if strings.Contains(joined, origin+" obs:self invoker.count=0") {
			t.Fatalf("origin %s invoker histogram empty after warmup:\n%s", origin, joined)
		}
	}

	// Narrowing to one provider keeps the origin sweep.
	lines = admin(t, front, "METRICS obs:self")
	joined = strings.Join(lines, "\n")
	for _, origin := range origins {
		if !strings.Contains(joined, origin+" invoker.p99ns=") {
			t.Fatalf("METRICS obs:self missing origin %s:\n%s", origin, joined)
		}
	}
}

// TestTraceAssemblesAcrossDaemons: a call served by a peer leaves its
// client spans on the caller and its server span on the peer; TRACE
// lists the trace id and assembles both halves into one response.
func TestTraceAssemblesAcrossDaemons(t *testing.T) {
	peer := startDaemon(t)
	if _, err := peer.host.SystemContext().RegisterSingle("dosgi.Math", services.Echo{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "math",
	}); err != nil {
		t.Fatal(err)
	}
	front := startDaemon(t, peer.remoteSrv.Addr().String())

	if lines := admin(t, front, "CALL math Add 40 2"); lines[0] != "= 42" {
		t.Fatalf("CALL math = %q", lines)
	}

	// TRACE with no argument lists the call, newest first.
	lines := admin(t, front, "TRACE")
	if last(lines) != "OK 1 trace(s)" || !strings.Contains(lines[0], "math.Add") {
		t.Fatalf("TRACE listing = %q", lines)
	}
	tid := strings.Fields(lines[0])[0]

	// TRACE <id> merges the caller's client spans with the peer's server
	// span, each tagged with its owning node (the remote listener addr).
	lines = admin(t, front, "TRACE "+tid)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "client math.Add") {
		t.Fatalf("assembled trace lacks client span:\n%s", joined)
	}
	if !strings.Contains(joined, peer.remoteAddr+" server math.Add") {
		t.Fatalf("assembled trace lacks the peer's server span:\n%s", joined)
	}
	want := 3 // root + attempt on front, server on peer
	if last(lines) != fmt.Sprintf("OK %d span(s)", want) {
		t.Fatalf("TRACE %s = %q", tid, lines)
	}
}

// waitFor polls cond until it holds or the deadline passes — the health
// plane runs on real 500ms ticks, so assertions converge, not insta-hold.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHealthPlaneAcrossDaemons is the ISSUE's three-daemon acceptance
// run over real TCP: an induced latency breach (CALL echo Sleep) flips
// the sick daemon's remote record CRITICAL; HEALTH on another daemon
// shows it from the MIRRORED view (pushed over dosgi.health, not
// polled); the transition lands in the observer's alert log exactly
// once; the autonomic rule demotes the sick daemon's endpoint in the
// observer's invoker; and after quiet windows everything heals — record,
// alert stream, demotion.
func TestHealthPlaneAcrossDaemons(t *testing.T) {
	sick := startDaemon(t)
	b := startDaemon(t, sick.remoteAddr)
	observer := startDaemon(t, sick.remoteAddr, b.remoteAddr)

	// Baseline: the observer's mirrored view converges to OK records for
	// the sick daemon without ever polling it.
	waitFor(t, 5*time.Second, "baseline mirror of the sick daemon", func() bool {
		lines := admin(t, observer, "HEALTH "+sick.remoteAddr)
		return len(lines) == 3 && // remote + events + OK terminator
			strings.Contains(lines[0], "status=OK") && strings.Contains(lines[1], "status=OK")
	})

	// The breach: a 120ms handler sleep lands a sample over the 95ms
	// critical threshold in the sick daemon's own invoker-call window.
	if lines := admin(t, sick, "CALL echo Sleep 120"); last(lines) != "OK 1 result(s)" {
		t.Fatalf("CALL Sleep = %q", lines)
	}

	// The record flips on the sick daemon's next tick and is PUSHED into
	// the observer's view, where the autonomic rule demotes the endpoint.
	waitFor(t, 5*time.Second, "mirrored CRITICAL record", func() bool {
		lines := admin(t, observer, "HEALTH "+sick.remoteAddr)
		for _, l := range lines {
			if strings.HasPrefix(l, "remote ") && strings.Contains(l, "status=CRITICAL") &&
				strings.Contains(l, "cause=call-p99") {
				return true
			}
		}
		return false
	})
	waitFor(t, 3*time.Second, "autonomic demotion", func() bool {
		return observer.invoker.IsDemoted(sick.remoteAddr)
	})

	// Heal: two clean windows clear the record; the mirror and the
	// demotion follow.
	waitFor(t, 5*time.Second, "mirrored heal", func() bool {
		lines := admin(t, observer, "HEALTH "+sick.remoteAddr)
		for _, l := range lines {
			if strings.HasPrefix(l, "remote ") {
				return strings.Contains(l, "status=OK")
			}
		}
		return false
	})
	waitFor(t, 3*time.Second, "demotion lifted", func() bool {
		return !observer.invoker.IsDemoted(sick.remoteAddr)
	})

	// Exactly once: the observer's alert log holds ONE CRITICAL MODIFIED
	// and ONE healing MODIFIED for the sick daemon's remote record, even
	// though daemon b relays the same transitions on its own broker.
	lines := admin(t, observer, "ALERTS")
	criticals, heals := 0, 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "MODIFIED remote node="+sick.remoteAddr+" ") {
			continue
		}
		switch {
		case strings.Contains(l, "status=CRITICAL"):
			criticals++
		case strings.Contains(l, "status=OK"):
			heals++
		}
	}
	if criticals != 1 || heals != 1 {
		t.Fatalf("alert log transitions: %d CRITICAL, %d heal, want 1/1:\n%s",
			criticals, heals, strings.Join(lines, "\n"))
	}

	// ALERTS FOLLOW streams the resync snapshot over the live wire.
	lines = admin(t, observer, "ALERTS FOLLOW 2")
	if last(lines) != "OK 2 alert(s)" || !strings.HasPrefix(lines[0], "ALERT REGISTERED ") {
		t.Fatalf("ALERTS FOLLOW = %q", lines)
	}
}

// TestMetricsAndTraceAnnotateUnreachablePeer: a daemon whose peer is
// gone (partitioned, crashed, never started) still answers METRICS and
// TRACE — the dead peer becomes one annotated "unreachable" line, and
// the local (and any live peer's) data is complete.
func TestMetricsAndTraceAnnotateUnreachablePeer(t *testing.T) {
	// A dead address that is guaranteed unreachable: bind, note, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()

	live := startDaemon(t)
	front := startDaemon(t, deadAddr, live.remoteSrv.Addr().String())

	// Local warmup so the front daemon has a trace to assemble.
	if lines := admin(t, front, "CALL echo Upper ping"); !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("warmup CALL = %q", lines)
	}

	lines := admin(t, front, "METRICS obs:self")
	if !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("METRICS with dead peer = %q", last(lines))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, deadAddr+" unreachable: ") {
		t.Fatalf("METRICS does not annotate the dead peer:\n%s", joined)
	}
	// The live origins still answered in full.
	for _, origin := range []string{"local", live.remoteSrv.Addr().String()} {
		if !strings.Contains(joined, origin+" invoker.p99ns=") {
			t.Fatalf("METRICS missing live origin %s:\n%s", origin, joined)
		}
	}

	// TRACE <id> sweeps the peers for spans; the dead one annotates.
	lines = admin(t, front, "TRACE")
	if !strings.HasPrefix(last(lines), "OK 1") {
		t.Fatalf("TRACE listing = %q", lines)
	}
	tid := strings.Fields(lines[0])[0]
	lines = admin(t, front, "TRACE "+tid)
	joined = strings.Join(lines, "\n")
	if !strings.HasPrefix(last(lines), "OK") {
		t.Fatalf("TRACE with dead peer = %q", last(lines))
	}
	if !strings.Contains(joined, deadAddr+" unreachable: ") {
		t.Fatalf("TRACE does not annotate the dead peer:\n%s", joined)
	}
	if !strings.Contains(joined, "client echo.Upper") {
		t.Fatalf("TRACE lost the local spans:\n%s", joined)
	}
}
