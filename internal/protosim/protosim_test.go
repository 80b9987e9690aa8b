package protosim

import (
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"dosgi/internal/admin"
)

// adminCmd sends one admin line and returns the response lines up to and
// including the OK/ERR terminator — exactly the protocol dosgictl speaks,
// so every assertion here is a dosgictl compatibility check.
func adminCmd(t *testing.T, addr, command string) []string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var lines []string
	if _, err := admin.Exchange(conn, command, func(l string) { lines = append(lines, l) }); err != nil {
		t.Fatalf("no terminator in response to %q: %q (err=%v)", command, lines, err)
	}
	return lines
}

func lastLine(lines []string) string { return lines[len(lines)-1] }

// anyLineContains reports whether any non-terminator line contains want.
func anyLineContains(lines []string, want string) bool {
	for _, l := range lines[:len(lines)-1] {
		if strings.Contains(l, want) {
			return true
		}
	}
	return false
}

// TestSimDeterministicPopulation pins the simulator's contract that the
// seed fully determines the fake cluster: same seed, same node names,
// service population and artifact digests — so a failure found against a
// seeded sim reproduces anywhere.
func TestSimDeterministicPopulation(t *testing.T) {
	mk := func() *Sim {
		sim, err := New(Config{Seed: 42, Nodes: 24, Artifacts: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sim.Close)
		return sim
	}
	a, b := mk(), mk()

	if got, want := a.NodeNames(), b.NodeNames(); !equalStrings(got, want) {
		t.Fatalf("node names differ between same-seed sims")
	}
	if got, want := a.ServiceNames(), b.ServiceNames(); !equalStrings(got, want) {
		t.Fatalf("service names differ between same-seed sims")
	}
	aArts, bArts := a.Artifacts(), b.Artifacts()
	if len(aArts) != len(bArts) {
		t.Fatalf("artifact counts differ: %d vs %d", len(aArts), len(bArts))
	}
	for i := range aArts {
		if aArts[i].Digest != bArts[i].Digest {
			t.Fatalf("artifact %d digest differs: the payload bytes are not seed-determined", i)
		}
	}

	c, err := New(Config{Seed: 43, Nodes: 24, Artifacts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if aArts[0].Digest == c.Artifacts()[0].Digest {
		t.Fatalf("different seeds produced identical artifact payloads")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSimAdminVerbs drives the full dosgictl-visible verb set against a
// 200-node simulator over the admin line protocol — the acceptance shape
// of ISSUE.md: EXPORTS/CALL/SUBSCRIBE/REPO LIST/METRICS/HEALTH work with
// no client changes, plus the sim-only NODES and FAULT directives.
func TestSimAdminVerbs(t *testing.T) {
	sim, err := New(Config{Seed: 9, Nodes: 200, Artifacts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	addr := sim.AdminAddr()

	t.Run("status", func(t *testing.T) {
		lines := adminCmd(t, addr, "STATUS")
		if !anyLineContains(lines, "nodes=200") || !anyLineContains(lines, "live=200") {
			t.Fatalf("STATUS = %q", lines)
		}
	})

	t.Run("nodes", func(t *testing.T) {
		lines := adminCmd(t, addr, "NODES 5")
		if len(lines) != 6 || lastLine(lines) != "OK 5 of 200 node(s)" {
			t.Fatalf("NODES 5 = %q", lines)
		}
		if !strings.Contains(lines[0], "node-000") || !strings.Contains(lines[0], "state=live") {
			t.Fatalf("NODES row = %q", lines[0])
		}
	})

	t.Run("exports", func(t *testing.T) {
		lines := adminCmd(t, addr, "EXPORTS")
		for _, want := range []string{"echo", "dosgi.metrics", "dosgi.provision", "app.svc-"} {
			if !anyLineContains(lines, want) {
				t.Fatalf("EXPORTS missing %q: %d line(s), %q", want, len(lines), lastLine(lines))
			}
		}
	})

	t.Run("call", func(t *testing.T) {
		lines := adminCmd(t, addr, "CALL echo Upper hello")
		if !anyLineContains(lines, "= HELLO") || lastLine(lines) != "OK 1 result(s)" {
			t.Fatalf("CALL echo Upper = %q", lines)
		}
		lines = adminCmd(t, addr, "CALL echo Add 2 3")
		if !anyLineContains(lines, "= 5") {
			t.Fatalf("CALL echo Add = %q", lines)
		}
		// A synthetic endpoint answers calls too — the fake population is
		// invocable, not just listed.
		svc := sim.ServiceNames()[0]
		lines = adminCmd(t, addr, "CALL "+svc+" Upper synthetic")
		if !anyLineContains(lines, "= SYNTHETIC") {
			t.Fatalf("CALL %s Upper = %q", svc, lines)
		}
	})

	t.Run("subscribe", func(t *testing.T) {
		lines := adminCmd(t, addr, "SUBSCRIBE 1 echo")
		if lastLine(lines) != "OK 1 event(s)" || !anyLineContains(lines, "EVENT REGISTERED echo") {
			t.Fatalf("SUBSCRIBE 1 echo = %q", lines)
		}
	})

	t.Run("repo_list", func(t *testing.T) {
		lines := adminCmd(t, addr, "REPO LIST")
		if lastLine(lines) != "OK 3 artifact(s)" || !anyLineContains(lines, "holders=") {
			t.Fatalf("REPO LIST = %q", lines)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		lines := adminCmd(t, addr, "METRICS sim:cluster")
		if !anyLineContains(lines, "local nodes=200") {
			t.Fatalf("METRICS sim:cluster = %q", lines)
		}
		if lines = adminCmd(t, addr, "METRICS"); !anyLineContains(lines, "=") {
			t.Fatalf("METRICS snapshot = %q", lines)
		}
	})

	t.Run("trace", func(t *testing.T) {
		// The CALLs above went through the traced invoker, so recent
		// root traces exist to discover.
		lines := adminCmd(t, addr, "TRACE")
		if !strings.HasPrefix(lastLine(lines), "OK") {
			t.Fatalf("TRACE = %q", lines)
		}
		if len(lines) < 2 {
			t.Fatalf("TRACE listed no recent traces after traced CALLs: %q", lines)
		}
		tid := strings.Fields(lines[0])[0]
		lines = adminCmd(t, addr, "TRACE "+tid)
		if !strings.HasPrefix(lastLine(lines), "OK") || len(lines) < 2 {
			t.Fatalf("TRACE %s = %q", tid, lines)
		}
	})

	t.Run("health", func(t *testing.T) {
		lines := adminCmd(t, addr, "HEALTH node-000")
		if lastLine(lines) != "OK 3 record(s)" || !anyLineContains(lines, "node=node-000") {
			t.Fatalf("HEALTH node-000 = %q", lines)
		}
	})

	t.Run("fault_kill_revive", func(t *testing.T) {
		if lines := adminCmd(t, addr, "FAULT KILL node-003"); lastLine(lines) != "OK kill node-003" {
			t.Fatalf("FAULT KILL = %q", lines)
		}
		if lines := adminCmd(t, addr, "STATUS"); !anyLineContains(lines, "live=199") {
			t.Fatalf("STATUS after kill = %q", lines)
		}
		if lines := adminCmd(t, addr, "HEALTH node-003"); lastLine(lines) != "OK 0 record(s)" {
			t.Fatalf("HEALTH after kill = %q: a dead node must withdraw its records", lines)
		}
		if lines := adminCmd(t, addr, "FAULT REVIVE node-003"); lastLine(lines) != "OK revive node-003" {
			t.Fatalf("FAULT REVIVE = %q", lines)
		}
		if lines := adminCmd(t, addr, "STATUS"); !anyLineContains(lines, "live=200") {
			t.Fatalf("STATUS after revive = %q", lines)
		}
		if lines := adminCmd(t, addr, "FAULT KILL node-999"); !strings.HasPrefix(lastLine(lines), "ERR") {
			t.Fatalf("FAULT KILL unknown node = %q", lines)
		}
	})

	t.Run("fault_health", func(t *testing.T) {
		if lines := adminCmd(t, addr, "FAULT HEALTH node-001 remote CRITICAL probe"); lastLine(lines) != "OK health remote@node-001" {
			t.Fatalf("FAULT HEALTH = %q", lines)
		}
		if lines := adminCmd(t, addr, "HEALTH node-001"); !anyLineContains(lines, "status=CRITICAL") {
			t.Fatalf("HEALTH after FAULT HEALTH = %q", lines)
		}
		if lines := adminCmd(t, addr, "ALERTS"); !anyLineContains(lines, "remote") {
			t.Fatalf("ALERTS after transition = %q", lines)
		}
		if lines := adminCmd(t, addr, "FAULT HEALTH node-001 remote CLEAR"); !strings.HasPrefix(lastLine(lines), "OK") {
			t.Fatalf("FAULT HEALTH CLEAR = %q", lines)
		}
	})

	t.Run("fault_storm_drop_roll", func(t *testing.T) {
		if lines := adminCmd(t, addr, "FAULT STORM 50"); lastLine(lines) != "OK storm at 50.0 event(s)/s" {
			t.Fatalf("FAULT STORM = %q", lines)
		}
		if lines := adminCmd(t, addr, "STATUS"); !anyLineContains(lines, "storm=50.0/s") {
			t.Fatalf("STATUS under storm = %q", lines)
		}
		if lines := adminCmd(t, addr, "FAULT STORM 0"); !strings.HasPrefix(lastLine(lines), "OK") {
			t.Fatalf("FAULT STORM 0 = %q", lines)
		}
		if lines := adminCmd(t, addr, "FAULT DROP 2"); lastLine(lines) != "OK next 2 push(es) will drop" {
			t.Fatalf("FAULT DROP = %q", lines)
		}
		if lines := adminCmd(t, addr, "FAULT ROLL"); !strings.HasPrefix(lastLine(lines), "OK rolled replay windows") {
			t.Fatalf("FAULT ROLL = %q", lines)
		}
	})

	t.Run("lifecycle_verbs_refused", func(t *testing.T) {
		lines := adminCmd(t, addr, "DEPLOY com.example.greeter")
		if !strings.HasPrefix(lastLine(lines), "ERR") || !strings.Contains(lastLine(lines), "real framework") {
			t.Fatalf("DEPLOY = %q", lines)
		}
	})

	t.Run("unknown_verb", func(t *testing.T) {
		lines := adminCmd(t, addr, "FROBNICATE")
		if !strings.HasPrefix(lastLine(lines), "ERR unknown command") {
			t.Fatalf("FROBNICATE = %q", lines)
		}
	})
}

// TestSimShardedPopulation: a sharded simulator routes its seeded
// population deterministically over the configured shard count and
// reports the topology through STATUS and the sim:shards provider.
func TestSimShardedPopulation(t *testing.T) {
	sim, err := New(Config{Seed: 7, Nodes: 48, Artifacts: 3, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	lines := adminCmd(t, sim.AdminAddr(), "STATUS")
	if !anyLineContains(lines, "shards=8") {
		t.Fatalf("STATUS = %q", lines)
	}

	// Every service routes in-range, the placement is a pure function of
	// the name, and the population touches more than one shard.
	hit := make(map[int]int)
	for _, svc := range sim.ServiceNames() {
		s := sim.ShardOf(svc)
		if s < 0 || s >= 8 {
			t.Fatalf("service %s routed to shard %d", svc, s)
		}
		if again := sim.ShardOf(svc); again != s {
			t.Fatalf("service %s routed to %d then %d", svc, s, again)
		}
		hit[s]++
	}
	if len(hit) < 2 {
		t.Fatalf("population landed on %d shard(s): %v", len(hit), hit)
	}

	lines = adminCmd(t, sim.AdminAddr(), "METRICS sim:shards")
	counted := 0
	for s, n := range hit {
		want := fmt.Sprintf("shard%02d-services=%d", s, n)
		if anyLineContains(lines, want) {
			counted++
		}
	}
	if counted != len(hit) {
		t.Fatalf("sim:shards reported %d of %d shard counts: %q", counted, len(hit), lines)
	}
}

// TestAnnexBListsSimVerbs fails when a verb of the simulator's own table,
// or its usage string, is missing from the protocol annex.
func TestAnnexBListsSimVerbs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, annex, ok := strings.Cut(string(doc), "## Annex B.")
	if !ok {
		t.Fatal("docs/PROTOCOL.md has no Annex B")
	}
	sim, err := New(Config{Nodes: 4, Artifacts: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for _, v := range sim.verbs() {
		want := v.Usage
		if want == "" {
			want = v.Name
		}
		if !strings.Contains(annex, fmt.Sprintf("`%s`", want)) {
			t.Errorf("annex B does not list `%s`", want)
		}
	}
}
