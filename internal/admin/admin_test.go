package admin

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/services"
)

func TestParseCallArg(t *testing.T) {
	cases := []struct {
		tok  string
		want any
	}{
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"2.5", 2.5},
		{"true", true},
		{"hello", "hello"},
		{`"quoted"`, "quoted"},
	}
	for _, tc := range cases {
		if got := ParseCallArg(tc.tok); got != tc.want {
			t.Errorf("ParseCallArg(%q) = %#v, want %#v", tc.tok, got, tc.want)
		}
	}
}

func TestSplitCommand(t *testing.T) {
	cases := []struct {
		line string
		want []string
	}{
		{`CALL echo Upper hello`, []string{"CALL", "echo", "Upper", "hello"}},
		{`CALL echo Upper "hello world"`, []string{"CALL", "echo", "Upper", `"hello world"`}},
		{`  spaced   out  `, []string{"spaced", "out"}},
		{``, nil},
		{`a "b c" d`, []string{"a", `"b c"`, "d"}},
	}
	for _, tc := range cases {
		got := SplitCommand(tc.line)
		if len(got) != len(tc.want) {
			t.Errorf("SplitCommand(%q) = %q, want %q", tc.line, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SplitCommand(%q)[%d] = %q, want %q", tc.line, i, got[i], tc.want[i])
			}
		}
	}
}

// TestRepoListLine table-tests the REPO LIST row format, HOLDERS column
// included — the contract dosgictl users (and both backends' tests) read.
func TestRepoListLine(t *testing.T) {
	art := provision.Artifact{
		Location: "app:greeter",
		Digest:   "abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789",
		Size:     420, Chunks: 7, Signer: "dev",
	}
	small := provision.Artifact{Location: "app:lib", Digest: "0011223344556677", Size: 1, Chunks: 1, Signer: "ops"}
	cases := []struct {
		name    string
		art     provision.Artifact
		holders []string
		want    string
	}{
		{
			name: "local only", art: art, holders: []string{"local"},
			want: "app:greeter abcdef012345 420B chunks=7 signer=dev holders=local",
		},
		{
			name: "local plus one peer", art: art, holders: []string{"local", "127.0.0.1:7790"},
			want: "app:greeter abcdef012345 420B chunks=7 signer=dev holders=local,127.0.0.1:7790",
		},
		{
			name: "several peers", art: small, holders: []string{"local", "10.0.0.2:7790", "10.0.0.3:7790"},
			want: "app:lib 001122334455 1B chunks=1 signer=ops holders=local,10.0.0.2:7790,10.0.0.3:7790",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := RepoListLine(tc.art, tc.holders); got != tc.want {
				t.Fatalf("RepoListLine = %q, want %q", got, tc.want)
			}
		})
	}
}

// source is a fixed remote.ServiceSource.
type source map[string]any

func (s source) Lookup(name string) (any, bool) { v, ok := s[name]; return v, ok }

// startServer runs the shared verbs, plus extra, over a real loopback
// remote stack exporting one echo service, and returns the admin address.
func startServer(t *testing.T, extra ...Verb) (*Server, string) {
	t.Helper()
	sched := clock.NewReal()
	remoteLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := remoteLn.Addr().String()
	plane := obs.NewPlane("test", sched.Now)
	metrics := services.NewMetricsService()
	metrics.RegisterProvider("obs:self", plane.Provider())
	view := NewHealthView(sched)
	broker := remote.NewEventBroker(sched, remote.WithEventSnapshot(func() []remote.ServiceEvent {
		return []remote.ServiceEvent{{Service: "echo", Node: "self", Addr: self}}
	}))
	remoteSrv := remote.ServeTCP(remoteLn, remote.NewEventDispatcher(
		remote.NewDispatcher(source{"echo": services.Echo{}}), broker, view.Broker()))
	transport := remote.NewTCPTransport(sched)
	pool := remote.NewPool(transport)
	resolver := remote.NewStaticResolver()
	resolver.Set("echo", remote.Endpoint{Addr: self})
	b := &Backend{
		Invoker: remote.NewInvoker(pool, resolver,
			remote.WithInvokerObservability(plane.Tracer, plane.InvokerCall)),
		Transport: transport, Sched: sched, Self: self,
		Exports: func() []string { return []string{"echo"} },
		Metrics: services.NewMetricsRemote(metrics, plane.Tracer.Store()),
		Tracer:  plane.Tracer,
		Health:  view,
	}
	srv := NewServer(extra, b.Verbs())
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(adminLn) }()
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
		remoteSrv.Close()
		sched.Stop()
	})
	return srv, adminLn.Addr().String()
}

// do sends one command on a fresh connection and returns the response
// lines, terminator last.
func do(t *testing.T, addr, command string) []string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var lines []string
	if _, err := Exchange(conn, command, func(l string) { lines = append(lines, l) }); err != nil {
		t.Fatalf("%q: no terminator in %q: %v", command, lines, err)
	}
	return lines
}

// TestVerbTable pins what the table promises for every verb in it, the
// shared ones and a backend's own alike.
func TestVerbTable(t *testing.T) {
	extra := []Verb{
		{Name: "PING", Run: func([]string, *Reply) (string, error) { return "", nil }},
		{Name: "PAIR", Usage: "PAIR <a> <b>", Min: 2, Max: 2,
			Run: func(args []string, _ *Reply) (string, error) { return OKf("%s+%s", args[0], args[1]) }},
		{Name: "PICKY", Usage: "PICKY [yes]", Max: 1,
			Run: func(args []string, _ *Reply) (string, error) {
				if len(args) == 1 && args[0] != "yes" {
					return "", ErrUsage
				}
				return "", nil
			}},
		{Name: "SECRET", Hidden: true,
			Run: func([]string, *Reply) (string, error) { return "", errors.New("not here") }},
	}
	srv, addr := startServer(t, extra...)

	t.Run("arity violation answers usage", func(t *testing.T) {
		withUsage := 0
		for _, v := range srv.verbs {
			if v.Usage == "" {
				continue
			}
			withUsage++
			line := v.Name // too few ...
			if v.Min == 0 {
				line += strings.Repeat(" x", v.Max+1) // ... or too many
			}
			if got := do(t, addr, line); len(got) != 1 || got[0] != "ERR usage: "+v.Usage {
				t.Errorf("%q → %q, want ERR usage: %s", line, got, v.Usage)
			}
		}
		if withUsage != 8 { // 6 shared + PAIR + PICKY
			t.Fatalf("only %d verbs carry a usage string", withUsage)
		}
		if got := do(t, addr, "PICKY no"); got[0] != "ERR usage: PICKY [yes]" {
			t.Errorf("ErrUsage from a handler → %q", got)
		}
		if got := do(t, addr, "pair 1 2"); got[0] != "OK 1+2" {
			t.Errorf("in-bounds, case-folded PAIR → %q", got)
		}
		// A verb without a usage string ignores arguments.
		if got := do(t, addr, "PING a b c"); got[0] != "OK" {
			t.Errorf("PING a b c → %q", got)
		}
	})

	t.Run("unknown verb lists exactly the advertised names", func(t *testing.T) {
		want := "ERR unknown command FROB (supported: PING PAIR PICKY QUIT EXPORTS CALL SUBSCRIBE METRICS TRACE HEALTH ALERTS)"
		if got := do(t, addr, "frob x"); len(got) != 1 || got[0] != want {
			t.Errorf("FROB → %q\nwant %q", got, want)
		}
		if got := strings.Join(srv.Names(), " "); !strings.HasSuffix(want, "(supported: "+got+")") {
			t.Errorf("Names() = %q disagrees with the unknown-command answer", got)
		}
		// A hidden verb is answered, not advertised.
		if got := do(t, addr, "SECRET"); got[0] != "ERR not here" {
			t.Errorf("SECRET → %q", got)
		}
	})

	t.Run("result rows stay out of the status channel", func(t *testing.T) {
		if got := do(t, addr, "CALL echo Upper ok"); len(got) != 2 || got[0] != "= OK" || got[1] != "OK 1 result(s)" {
			t.Errorf("result OK → %q", got)
		}
		if got := do(t, addr, `CALL echo Upper "err boom"`); len(got) != 2 || got[0] != "= ERR BOOM" || got[1] != "OK 1 result(s)" {
			t.Errorf("result ERR BOOM → %q", got)
		}
	})

	t.Run("one connection serves commands until QUIT", func(t *testing.T) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for _, step := range []struct{ cmd, want string }{
			{"EXPORTS", "OK 1 export(s)"},
			{"", ""}, // an empty line is not a command
			{"CALL echo Add 40 2", "OK 1 result(s)"},
			{"QUIT", "OK bye"},
		} {
			if step.cmd == "" {
				fmt.Fprintln(conn)
				continue
			}
			if last, err := Exchange(conn, step.cmd, func(string) {}); err != nil || last != step.want {
				t.Fatalf("%s → %q, %v; want %q", step.cmd, last, err, step.want)
			}
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after QUIT the server must hang up; read err = %v", err)
		}
	})
}

// TestExchangeNeedsTerminator: a response cut short is an error, not an
// empty success.
func TestExchangeNeedsTerminator(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		buf := make([]byte, 64)
		_, _ = server.Read(buf)
		fmt.Fprintln(server, "row one")
		_ = server.Close()
	}()
	var lines []string
	_, err := Exchange(client, "STATUS", func(l string) { lines = append(lines, l) })
	if err != io.ErrUnexpectedEOF || len(lines) != 1 {
		t.Fatalf("Exchange = %v with lines %q, want io.ErrUnexpectedEOF after one row", err, lines)
	}
}

// TestServerCloseEndsConnections: Close hangs up on idle clients and
// returns only after their goroutines are gone; a listener handed to a
// closed server is closed, not served.
func TestServerCloseEndsConnections(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if last, err := Exchange(conn, "EXPORTS", func(string) {}); err != nil || last != "OK 1 export(s)" {
		t.Fatalf("EXPORTS → %q, %v", last, err)
	}
	srv.Close()
	srv.mu.Lock()
	live := len(srv.conns)
	srv.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d connection(s) still tracked after Close", live)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle client read err = %v, want EOF", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close = %v, want net.ErrClosed", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener handed to a closed server is still open")
	}
}

func TestHealthView(t *testing.T) {
	sched := clock.NewReal()
	defer sched.Stop()
	v := NewHealthView(sched)
	rec := func(comp, node, status, cause string) remote.ServiceEvent {
		return remote.ServiceEvent{Service: comp, Node: node, Addr: status, Instance: cause}
	}
	published := func() uint64 { return v.Broker().Stats().Published }

	v.Apply(rec("remote", "n2", "OK", ""))
	v.Apply(rec("events", "n2", "OK", ""))
	v.Apply(rec("remote", "n1", "OK", ""))
	if got := v.Alerts(); len(got) != 3 || got[0] != "REGISTERED remote node=n2 status=OK cause=" {
		t.Fatalf("first sightings = %q", got)
	}

	// An unchanged record is silent.
	v.Apply(rec("remote", "n1", "OK", ""))
	if len(v.Alerts()) != 3 || published() != 3 {
		t.Fatalf("unchanged record was not deduplicated: %q, published %d", v.Alerts(), published())
	}

	// A change is exactly one MODIFIED.
	v.Apply(rec("remote", "n1", "CRITICAL", "call-p99"))
	if got := v.Alerts(); len(got) != 4 || got[3] != "MODIFIED remote node=n1 status=CRITICAL cause=call-p99" || published() != 4 {
		t.Fatalf("transition = %q, published %d", got, published())
	}

	// Withdrawing an unknown key is silent; a known one is UNREGISTERING.
	gone := rec("ghost", "n9", "", "")
	gone.Type = remote.ServiceUnregistering
	v.Apply(gone)
	if len(v.Alerts()) != 4 || published() != 4 {
		t.Fatalf("withdrawal of an unknown record was not silent: %q", v.Alerts())
	}
	gone = rec("events", "n2", "", "")
	gone.Type = remote.ServiceUnregistering
	v.Apply(gone)
	if got := v.Alerts(); len(got) != 5 || !strings.HasPrefix(got[4], "UNREGISTERING events node=n2 ") {
		t.Fatalf("withdrawal = %q", got)
	}

	// The resync snapshot is untyped and ordered by node, then component.
	v.Apply(rec("events", "n1", "OK", ""))
	var order []string
	for _, ev := range v.Snapshot() {
		if ev.Type != "" {
			t.Fatalf("snapshot record carries type %q", ev.Type)
		}
		order = append(order, ev.Service+"@"+ev.Node)
	}
	if got, want := strings.Join(order, " "), "events@n1 remote@n1 remote@n2"; got != want {
		t.Fatalf("snapshot order = %q, want %q", got, want)
	}

	// The alert ring is bounded and keeps the newest.
	for i := 0; i < 3*alertRingCap; i++ {
		v.Apply(rec("remote", "n1", "DEGRADED", fmt.Sprintf("flap-%d", i)))
	}
	got := v.Alerts()
	if len(got) != alertRingCap || !strings.HasSuffix(got[len(got)-1], fmt.Sprintf("cause=flap-%d", 3*alertRingCap-1)) {
		t.Fatalf("ring holds %d rows ending %q", len(got), got[len(got)-1])
	}
}
