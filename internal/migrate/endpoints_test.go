package migrate

import (
	"reflect"
	"testing"
)

func TestDirectoryEndpointRecords(t *testing.T) {
	d := NewDirectory()
	d.PutEndpoint(EndpointInfo{Service: "kv", Node: "n2", Addr: "10.0.0.2:7100"})
	d.PutEndpoint(EndpointInfo{Service: "kv", Node: "n1", Addr: "10.0.0.1:7100"})
	d.PutEndpoint(EndpointInfo{Service: "auth", Node: "n1", Addr: "10.0.0.1:7100"})

	got := d.EndpointsFor("kv")
	want := []EndpointInfo{
		{Service: "kv", Node: "n1", Addr: "10.0.0.1:7100"},
		{Service: "kv", Node: "n2", Addr: "10.0.0.2:7100"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EndpointsFor(kv) = %+v", got)
	}

	// Upsert replaces in place.
	d.PutEndpoint(EndpointInfo{Service: "kv", Node: "n1", Addr: "10.0.0.9:7100"})
	if got := d.EndpointsFor("kv")[0].Addr; got != "10.0.0.9:7100" {
		t.Fatalf("upsert addr = %s", got)
	}

	// Full listing is sorted by service then node.
	all := d.Endpoints()
	if len(all) != 3 || all[0].Service != "auth" || all[1].Node != "n1" || all[2].Node != "n2" {
		t.Fatalf("Endpoints() = %+v", all)
	}

	if removed, ok := d.endpoints.remove("kv", "n2"); !ok || removed.Node != "n2" {
		t.Fatalf("RemoveEndpoint = %+v, %v", removed, ok)
	}
	if got := d.EndpointsFor("kv"); len(got) != 1 {
		t.Fatalf("after RemoveEndpoint = %+v", got)
	}
	if removed := d.endpoints.prune(map[string]bool{"n2": true}, nil); len(removed) != 2 {
		t.Fatalf("RemoveEndpointsOf = %+v", removed)
	}
	if got := d.Endpoints(); len(got) != 0 {
		t.Fatalf("after RemoveEndpointsOf = %+v", got)
	}
	// Removing from an empty directory is a no-op.
	if _, ok := d.endpoints.remove("ghost", "n1"); ok {
		t.Fatal("ghost removal reported a record")
	}
	if removed := d.endpoints.prune(map[string]bool{"n1": true, "n2": true}, nil); len(removed) != 0 {
		t.Fatalf("empty RemoveEndpointsOf = %+v", removed)
	}
}

// TestReplaceEndpointsOfReportsExactDeltas pins the resync contract the
// event stream depends on: unchanged records produce no delta, so a
// healed partition's replayed sync emits no spurious service events.
func TestReplaceEndpointsOfReportsExactDeltas(t *testing.T) {
	d := NewDirectory()
	if existed := d.PutEndpoint(EndpointInfo{Service: "kv", Node: "n1", Addr: "a:1"}); existed {
		t.Fatal("first put reported existing")
	}
	if existed := d.PutEndpoint(EndpointInfo{Service: "kv", Node: "n1", Addr: "a:1"}); !existed {
		t.Fatal("re-put did not report existing")
	}
	d.PutEndpoint(EndpointInfo{Service: "auth", Node: "n1", Addr: "a:1"})
	d.PutEndpoint(EndpointInfo{Service: "kv", Node: "n2", Addr: "b:1"})

	// n1's new authoritative set: kv unchanged, auth gone, web new, and
	// an instance-stamped record replacing nothing.
	added, updated, removed := d.ReplaceEndpointsOf("n1", []EndpointInfo{
		{Service: "kv", Node: "n1", Addr: "a:1"},
		{Service: "web", Node: "n1", Addr: "a:1", Instance: "tenant-a"},
	})
	if len(added) != 1 || added[0].Service != "web" || added[0].Instance != "tenant-a" {
		t.Fatalf("added = %+v", added)
	}
	if len(updated) != 0 {
		t.Fatalf("updated = %+v (unchanged record must not appear)", updated)
	}
	if len(removed) != 1 || removed[0].Service != "auth" {
		t.Fatalf("removed = %+v", removed)
	}
	// Identical replay: no deltas at all.
	added, updated, removed = d.ReplaceEndpointsOf("n1", []EndpointInfo{
		{Service: "kv", Node: "n1", Addr: "a:1"},
		{Service: "web", Node: "n1", Addr: "a:1", Instance: "tenant-a"},
	})
	if len(added)+len(updated)+len(removed) != 0 {
		t.Fatalf("replay deltas: +%v ~%v -%v", added, updated, removed)
	}
	// A content change surfaces as updated.
	_, updated, _ = d.ReplaceEndpointsOf("n1", []EndpointInfo{
		{Service: "kv", Node: "n1", Addr: "a:1"},
		{Service: "web", Node: "n1", Addr: "a:1", Instance: "tenant-b"},
	})
	if len(updated) != 1 || updated[0].Instance != "tenant-b" {
		t.Fatalf("updated = %+v", updated)
	}
	// Other nodes' records were never touched.
	if eps := d.EndpointsFor("kv"); len(eps) != 2 {
		t.Fatalf("kv endpoints = %+v", eps)
	}
	// EndpointsAt maps an address back to everything it serves.
	if at := d.EndpointsAt("a:1"); len(at) != 2 {
		t.Fatalf("EndpointsAt(a:1) = %+v", at)
	}
	if at := d.EndpointsAt("ghost:9"); len(at) != 0 {
		t.Fatalf("EndpointsAt(ghost) = %+v", at)
	}
}
