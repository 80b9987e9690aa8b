package migrate

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dosgi/internal/gcs"
	"dosgi/internal/health"
)

// familyCase drives one declared record family: its public announce
// path, typed wire records for injected messages, the directory listing
// and the module's subscriber hooks.
type familyCase struct {
	name     string
	tag      func(m *Module) int
	announce func(m *Module, key string)
	record   func(key, holder string) any
	records  func(holder string, keys ...string) any
	list     func(d *Directory) []string // "key@holder", sorted by key then holder
	onChange func(m *Module, fn func())
}

func newFamilyCase[V comparable](fam *family[V], pick func(*Module) *recordFamily[V],
	mk func(key, holder string) V, announce func(m *Module, v V), all func(d *Directory) []V) familyCase {
	return familyCase{
		name:     fam.name,
		tag:      func(m *Module) int { return pick(m).tag },
		announce: func(m *Module, key string) { announce(m, mk(key, "")) },
		record:   func(key, holder string) any { return mk(key, holder) },
		records: func(holder string, keys ...string) any {
			vs := make([]V, 0, len(keys))
			for _, k := range keys {
				vs = append(vs, mk(k, holder))
			}
			return vs
		},
		list: func(d *Directory) []string {
			var out []string
			for _, v := range all(d) {
				out = append(out, fam.key(v)+"@"+fam.holder(v))
			}
			return out
		},
		onChange: func(m *Module, fn func()) {
			pick(m).subscribe(func(Change[V]) { fn() })
		},
	}
}

// familyCases lists every declared record family.
func familyCases() []familyCase {
	return []familyCase{
		newFamilyCase(endpointFamily, func(m *Module) *recordFamily[EndpointInfo] { return m.eps },
			func(key, holder string) EndpointInfo {
				return EndpointInfo{Service: key, Node: holder, Addr: "ip:7100"}
			},
			func(m *Module, e EndpointInfo) { m.AnnounceEndpoint(e.Service, e.Addr) },
			(*Directory).Endpoints),
		newFamilyCase(artifactFamily, func(m *Module) *recordFamily[ArtifactInfo] { return m.arts },
			art, (*Module).AnnounceArtifact, (*Directory).Artifacts),
		newFamilyCase(healthFamily, func(m *Module) *recordFamily[health.Record] { return m.hlth },
			func(key, holder string) health.Record { return hrec(key, holder, health.StatusOK, "") },
			(*Module).AnnounceHealth, (*Directory).HealthRecords),
	}
}

// TestRecordFamilies runs every declared record family through the shared
// engine: the deliver-side membership filter, silent converged
// anti-entropy, deterministic dead-holder pruning, and a holder's
// authoritative sync. A family the module's engine loops (onDeliver,
// onView, antiEntropy, DirectoryStats) leave out fails here.
func TestRecordFamilies(t *testing.T) {
	for _, fc := range familyCases() {
		t.Run(fc.name, func(t *testing.T) { testRecordFamily(t, fc) })
	}
}

func testRecordFamily(t *testing.T, fc familyCase) {
	tc := newTestCluster(t, 4)
	tc.settle()
	mod := tc.nodes["node00"].mod
	stats := func(id string) FamilyStats { return tc.nodes[id].mod.DirectoryStats()[fc.name] }

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%02d", i)
	}
	for _, n := range tc.nodes {
		for _, k := range keys {
			fc.announce(n.mod, k)
		}
	}
	tc.settle()
	// Stop the anti-entropy timers and drain the syncs in flight: the
	// syncs below are forced or come from view changes, so each phase can
	// count them exactly.
	for _, n := range tc.nodes {
		n.mod.Stop()
	}
	tc.eng.RunFor(100 * time.Millisecond)
	var changes int
	fc.onChange(mod, func() { changes++ })
	if got := fc.list(mod.Directory()); len(got) != len(keys)*len(tc.nodes) {
		t.Fatalf("replicated %d records, want %d: %v", len(got), len(keys)*len(tc.nodes), got)
	}

	// A put, remove or sync from a holder outside the view is dropped
	// and counted as Filtered.
	listed, before := fc.list(mod.Directory()), stats("node00")
	mod.onDeliver(gcs.Message{Body: recordPut{Family: fc.tag(mod), Info: fc.record("ghost", "node99")}})
	mod.onDeliver(gcs.Message{Body: recordRemove{Family: fc.tag(mod), Key: keys[0], Node: "node99"}})
	mod.onDeliver(gcs.Message{Body: recordSync{Family: fc.tag(mod), Node: "node99", Infos: fc.records("node99", "ghost")}})
	after := stats("node00")
	if after.Filtered != before.Filtered+3 {
		t.Fatalf("Filtered %d -> %d, want +3", before.Filtered, after.Filtered)
	}
	if after.Puts != before.Puts || after.Removes != before.Removes || after.Syncs != before.Syncs {
		t.Fatalf("dead holder's mutations applied: before %+v, after %+v", before, after)
	}
	if got := fc.list(mod.Directory()); !reflect.DeepEqual(got, listed) || changes != 0 {
		t.Fatalf("dead holder's mutations changed the directory (%d changes): %v", changes, got)
	}

	// A converged sync is silent: one anti-entropy round applies one
	// sync per node, every one silent, and no delta reaches a subscriber.
	before = stats("node00")
	for _, n := range tc.nodes {
		n.mod.antiEntropy()
	}
	tc.eng.RunFor(100 * time.Millisecond)
	after = stats("node00")
	if syncs := int64(len(tc.nodes)); after.Syncs-before.Syncs != syncs || after.SilentSyncs-before.SilentSyncs != syncs {
		t.Fatalf("want %d silent syncs: before %+v, after %+v", syncs, before, after)
	}
	if after.Added != before.Added || after.Updated != before.Updated || after.Removed != before.Removed || changes != 0 {
		t.Fatalf("converged syncs emitted deltas (%d changes): before %+v, after %+v", changes, before, after)
	}

	// A crashed holder's records are pruned identically on every
	// survivor, one Removed delta per record, and the view change makes
	// every survivor resync.
	survivors := []string{"node00", "node01", "node02"}
	prior := make(map[string]FamilyStats)
	for _, id := range survivors {
		prior[id] = stats(id)
	}
	tc.crash("node03")
	tc.eng.RunFor(3 * time.Second)
	ref := fc.list(mod.Directory())
	if len(ref) != len(keys)*len(survivors) {
		t.Fatalf("survivor directory after crash = %v", ref)
	}
	for _, id := range survivors {
		if got := fc.list(tc.nodes[id].mod.Directory()); !reflect.DeepEqual(got, ref) {
			t.Fatalf("directories diverged after prune:\nnode00: %v\n%s: %v", ref, id, got)
		}
		st := stats(id)
		if got := st.Pruned - prior[id].Pruned; got != int64(len(keys)) {
			t.Fatalf("%s pruned %d records, want %d", id, got, len(keys))
		}
		if st.Syncs == prior[id].Syncs {
			t.Fatalf("%s applied no view-change sync", id)
		}
	}
	if changes != len(keys) {
		t.Fatalf("subscriber saw %d deltas for the prune, want %d", changes, len(keys))
	}

	// An authoritative sync replaces the holder's whole set: an empty
	// sync for node01 erases every node01 record and nothing else.
	mod.onDeliver(gcs.Message{Body: recordSync{Family: fc.tag(mod), Node: "node01", Infos: fc.records("node01")}})
	held := make(map[string]bool)
	for _, rec := range fc.list(mod.Directory()) {
		held[rec] = true
	}
	for _, k := range keys {
		if held[k+"@node01"] || !held[k+"@node00"] || !held[k+"@node02"] {
			t.Fatalf("after node01's empty sync, records of %s = %v", k, held)
		}
	}
}
