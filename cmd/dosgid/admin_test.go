package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	adminproto "dosgi/internal/admin"
	"dosgi/internal/protosim"
	"dosgi/internal/remote"
)

// adminAt sends one command to the admin listener at addr — a daemon's
// or a simulator's — and returns the response lines, terminator last.
func adminAt(t *testing.T, addr, command string) []string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var lines []string
	if _, err := adminproto.Exchange(conn, command, func(l string) { lines = append(lines, l) }); err != nil {
		t.Fatalf("%q: no terminator in response %q (err=%v)", command, lines, err)
	}
	return lines
}

func startSim(t *testing.T) *protosim.Sim {
	t.Helper()
	sim, err := protosim.New(protosim.Config{Seed: 5, Nodes: 8, Artifacts: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	return sim
}

// TestLogRejectsBadCount: LOG -1 used to slice entries[len:0] in the
// connection goroutine and take the whole daemon down.
func TestLogRejectsBadCount(t *testing.T) {
	d := startDaemon(t)
	for _, line := range []string{"LOG -1", "LOG 0", "LOG many", "LOG 1 2"} {
		if lines := admin(t, d, line); len(lines) != 1 || lines[0] != "ERR usage: LOG [n]" {
			t.Errorf("%s → %q, want ERR usage: LOG [n]", line, lines)
		}
	}
	for _, line := range []string{"LOG", "LOG 3"} {
		if lines := admin(t, d, line); last(lines) != "OK" {
			t.Errorf("%s → %q", line, lines)
		}
	}
}

// TestHangupReleasesSubscription: a client that hangs up in the middle
// of SUBSCRIBE must not keep its subscription (and its connection and
// renews) alive until the 30 s stream deadline. One body, both backends;
// the subscriber count is read the way an operator would, from the
// broker's metrics provider.
func TestHangupReleasesSubscription(t *testing.T) {
	for _, backend := range []struct {
		name, provider string
		adminAddr      func(*testing.T) string
	}{
		{"dosgid", "events:self", func(t *testing.T) string { return startDaemon(t).adminLn.Addr().String() }},
		{"dosgi-sim", "events:sim", func(t *testing.T) string { return startSim(t).AdminAddr() }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			addr := backend.adminAddr(t)
			subscribers := func() string {
				for _, l := range adminAt(t, addr, "METRICS "+backend.provider) {
					if strings.HasPrefix(l, "local subscribers=") {
						return strings.TrimPrefix(l, "local subscribers=")
					}
				}
				t.Fatalf("METRICS %s has no subscribers line", backend.provider)
				return ""
			}

			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			rows := make(chan string, 1)
			go func() { // the resync rows; the stream never reaches its terminator
				_, _ = adminproto.Exchange(conn, "SUBSCRIBE 1000", func(l string) {
					select {
					case rows <- l:
					default:
					}
				})
			}()
			select {
			case row := <-rows:
				if !strings.HasPrefix(row, "EVENT REGISTERED ") {
					t.Fatalf("first row = %q", row)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no resync row")
			}
			if n := subscribers(); n != "1" {
				t.Fatalf("subscribers while streaming = %s, want 1", n)
			}

			_ = conn.Close()
			deadline := time.Now().Add(time.Second)
			for subscribers() != "0" {
				if time.Now().After(deadline) {
					t.Fatalf("subscription still held 1 s after the client hung up")
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestCloseEndsAdminConnections: close() hangs up on live admin clients
// and leaves no goroutine of theirs behind.
func TestCloseEndsAdminConnections(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := newDaemon("127.0.0.1:0", "127.0.0.1:0", nil, defaultHealthConfig())
	if err != nil {
		t.Fatal(err)
	}
	go d.serveAdmin()
	conn, err := net.DialTimeout("tcp", d.adminLn.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if last, err := adminproto.Exchange(conn, "STATUS", func(string) {}); err != nil || last != "OK" {
		t.Fatalf("STATUS → %q, %v", last, err)
	}

	d.close() // with the connection idle and open
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle admin client read err = %v, want EOF from the daemon's close", err)
	}
	waitFor(t, 2*time.Second, "the daemon's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

var digits = regexp.MustCompile(`\d+`)

// TestAdminParityWithSimulator plays one script of shared verbs against
// an in-process daemon and an in-process simulator. Both are served by
// the same handlers, so the terminators must agree (modulo counts that
// depend on population) and every row must have the documented shape.
func TestAdminParityWithSimulator(t *testing.T) {
	d := startDaemon(t)
	d.health.Apply(remote.ServiceEvent{Service: "remote", Node: d.remoteAddr, Addr: "OK"})
	backends := []struct{ name, addr string }{
		{"dosgid", d.adminLn.Addr().String()},
		{"dosgi-sim", startSim(t).AdminAddr()},
	}
	script := []struct {
		cmd string
		row string // shape of every non-terminator row; "" = no rows at all
	}{
		{"EXPORTS", `^\S+( instance=\S+)?$`},
		{"CALL echo Add 40 2", `^= 42$`},
		{`CALL echo Upper "hello world"`, `^= HELLO WORLD$`},
		{"CALL ghost X", ""},
		{"SUBSCRIBE 1 echo", `^EVENT REGISTERED echo node=\S+ addr=\S+ instance= seq=\d+$`},
		{"SUBSCRIBE zero", ""},
		{"METRICS obs:self", `^local \S+=\S+$`},
		{"TRACE", `^[0-9a-f]{16} \S+\.\S+ \S+( err=.*)?$`},
		{"TRACE zz", ""},
		{"HEALTH", `^\S+ node=\S+ status=\S+ cause=.*$`},
		{"ALERTS", `^(REGISTERED|MODIFIED|UNREGISTERING) \S+ node=\S+ status=\S* cause=.*$`},
		{"ALERTS FOLLOW x", ""},
		{"FROB", ""},
	}
	for _, step := range script {
		shape := regexp.MustCompile(step.row)
		var terminators []string
		for _, b := range backends {
			lines := adminAt(t, b.addr, step.cmd)
			rows, term := lines[:len(lines)-1], last(lines)
			if step.row == "" && len(rows) != 0 {
				t.Errorf("%s on %s: unexpected rows %q", step.cmd, b.name, rows)
			}
			if step.row != "" && len(rows) == 0 {
				t.Errorf("%s on %s: no rows, terminator %q", step.cmd, b.name, term)
			}
			for _, row := range rows {
				if !shape.MatchString(row) {
					t.Errorf("%s on %s: row %q does not match %s", step.cmd, b.name, row, step.row)
				}
			}
			// The advertised verbs differ by design; everything before them
			// must not.
			term, _, _ = strings.Cut(term, " (supported:")
			terminators = append(terminators, digits.ReplaceAllString(term, "N"))
		}
		if terminators[0] != terminators[1] {
			t.Errorf("%s: dosgid answers %q, dosgi-sim %q", step.cmd, terminators[0], terminators[1])
		}
	}
}

// TestAnnexBListsVerbs fails when a verb of the shared table or of this
// daemon's own — or its usage string — is missing from the protocol
// annex.
func TestAnnexBListsVerbs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, annex, ok := strings.Cut(string(doc), "## Annex B.")
	if !ok {
		t.Fatal("docs/PROTOCOL.md has no Annex B")
	}
	d := startDaemon(t)
	for _, v := range append(d.verbs(), (&adminproto.Backend{}).Verbs()...) {
		want := v.Usage
		if want == "" {
			want = v.Name
		}
		if !strings.Contains(annex, fmt.Sprintf("`%s`", want)) {
			t.Errorf("annex B does not list `%s`", want)
		}
	}
}
