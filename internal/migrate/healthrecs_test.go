package migrate

import (
	"reflect"
	"testing"
	"time"

	"dosgi/internal/health"
)

func hrec(component, node string, status health.Status, cause string) health.Record {
	return health.Record{Component: component, Node: node, Status: status, Cause: cause}
}

func TestDirectoryHealthRecords(t *testing.T) {
	d := NewDirectory()
	d.healths.put(hrec("remote", "n2", health.StatusOK, ""))
	d.healths.put(hrec("remote", "n1", health.StatusDegraded, "p99>5ms"))
	d.healths.put(hrec("resources", "n1", health.StatusOK, ""))

	got := d.HealthFor("remote")
	want := []health.Record{
		hrec("remote", "n1", health.StatusDegraded, "p99>5ms"),
		hrec("remote", "n2", health.StatusOK, ""),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HealthFor(remote) = %+v", got)
	}
	if on := d.HealthOn("n1"); len(on) != 2 || on[0].Component != "remote" || on[1].Component != "resources" {
		t.Fatalf("HealthOn(n1) = %+v", on)
	}
	all := d.HealthRecords()
	if len(all) != 3 || all[0].Node != "n1" || all[1].Node != "n2" || all[2].Component != "resources" {
		t.Fatalf("HealthRecords() = %+v", all)
	}

	d.healths.remove("remote", "n2")
	if got := d.HealthFor("remote"); len(got) != 1 {
		t.Fatalf("after RemoveHealth = %+v", got)
	}
	d.healths.prune(map[string]bool{"n2": true}, nil)
	if got := d.HealthRecords(); len(got) != 0 {
		t.Fatalf("after RemoveHealthOf = %+v", got)
	}

	// Exact-delta resync, like the other two families.
	d.healths.put(hrec("remote", "n1", health.StatusOK, ""))
	added, updated, removed := d.healths.replaceOf("n1", []health.Record{
		hrec("remote", "n1", health.StatusCritical, "pool"),
		hrec("sla", "n1", health.StatusOK, ""),
	}, nil)
	if len(added) != 1 || added[0].Component != "sla" ||
		len(updated) != 1 || updated[0].Status != health.StatusCritical ||
		len(removed) != 0 {
		t.Fatalf("resync deltas: +%v ~%v -%v", added, updated, removed)
	}
	// Converged replay is silent — what makes health anti-entropy safe.
	added, updated, removed = d.healths.replaceOf("n1", []health.Record{
		hrec("remote", "n1", health.StatusCritical, "pool"),
		hrec("sla", "n1", health.StatusOK, ""),
	}, nil)
	if len(added)+len(updated)+len(removed) != 0 {
		t.Fatalf("replay deltas: +%v ~%v -%v", added, updated, removed)
	}
}

// TestHealthReplicationAndPruning proves the third family rides the same
// engine end to end: announced records replicate to every node with
// exact-delta hooks, steady state is silent through anti-entropy ticks,
// and a crashed node's health records are pruned deterministically on
// the view change — no phantom health for dead nodes.
func TestHealthReplicationAndPruning(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()

	var changes []HealthChange
	tc.nodes["node02"].mod.OnHealthChange(func(ch HealthChange) { changes = append(changes, ch) })

	tc.nodes["node00"].mod.AnnounceHealth(health.Record{Component: "remote", Status: health.StatusOK})
	tc.nodes["node01"].mod.AnnounceHealth(health.Record{Component: "remote", Status: health.StatusOK})
	tc.settle()

	for id, n := range tc.nodes {
		recs := n.mod.Directory().HealthFor("remote")
		if len(recs) != 2 || recs[0].Node != "node00" || recs[1].Node != "node01" {
			t.Fatalf("%s sees remote health %+v", id, recs)
		}
	}
	if len(changes) != 2 {
		t.Fatalf("observer changes = %+v", changes)
	}

	// Steady state across several anti-entropy periods: silent.
	before := len(changes)
	tc.eng.RunFor(3 * DefaultResyncEvery)
	if len(changes) != before {
		t.Fatalf("steady-state anti-entropy fired hooks: %+v", changes[before:])
	}
	if st := tc.nodes["node02"].mod.HealthStats(); st.SilentSyncs == 0 {
		t.Fatalf("no silent health syncs counted: %+v", st)
	}

	// A transition replicates as an exact Updated delta.
	tc.nodes["node00"].mod.AnnounceHealth(health.Record{
		Component: "remote", Status: health.StatusDegraded, Cause: "p99>5ms",
	})
	tc.settle()
	last := changes[len(changes)-1]
	if last.Type != Updated || last.Info.Status != health.StatusDegraded || last.Info.Cause != "p99>5ms" {
		t.Fatalf("transition change = %+v", last)
	}
	for id, n := range tc.nodes {
		recs := n.mod.Directory().HealthFor("remote")
		if recs[0].Status != health.StatusDegraded {
			t.Fatalf("%s did not converge on DEGRADED: %+v", id, recs)
		}
	}

	// Crash the degraded node: its health records vanish everywhere via
	// deterministic dead-holder pruning, with Removed deltas.
	before = len(changes)
	tc.crash("node00")
	tc.eng.RunFor(5 * time.Second)
	for _, id := range []string{"node01", "node02"} {
		recs := tc.nodes[id].mod.Directory().HealthFor("remote")
		if len(recs) != 1 || recs[0].Node != "node01" {
			t.Fatalf("%s still sees phantom health: %+v", id, recs)
		}
	}
	sawRemove := false
	for _, ch := range changes[before:] {
		if ch.Type == Removed && ch.Info.Node == "node00" {
			sawRemove = true
		}
	}
	if !sawRemove {
		t.Fatalf("no Removed delta for the crashed node: %+v", changes[before:])
	}
	if st := tc.nodes["node02"].mod.HealthStats(); st.Pruned == 0 {
		t.Fatalf("prune not counted: %+v", st)
	}

	// Withdraw clears the surviving node's record cluster-wide.
	tc.nodes["node01"].mod.WithdrawHealth("remote")
	tc.settle()
	if recs := tc.nodes["node02"].mod.Directory().HealthFor("remote"); len(recs) != 0 {
		t.Fatalf("withdrawn record survived: %+v", recs)
	}
}
