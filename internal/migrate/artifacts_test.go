package migrate

import (
	"reflect"
	"testing"
)

func art(digest, node string) ArtifactInfo {
	return ArtifactInfo{
		Digest: digest, Location: "app:" + digest, SymbolicName: "com." + digest,
		Version: "1.0.0", Size: 100, ChunkSize: 64, Chunks: 2, Signer: "dev", Node: node,
	}
}

func TestDirectoryArtifactRecords(t *testing.T) {
	d := NewDirectory()
	d.artifacts.put(art("aaa", "n2"))
	d.artifacts.put(art("aaa", "n1"))
	d.artifacts.put(art("bbb", "n1"))

	got := d.ArtifactReplicas("aaa")
	want := []ArtifactInfo{art("aaa", "n1"), art("aaa", "n2")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ArtifactReplicas(aaa) = %+v", got)
	}

	// Lookup by install location.
	rec, ok := d.ArtifactByLocation("app:bbb")
	if !ok || rec.Digest != "bbb" {
		t.Fatalf("ArtifactByLocation = %+v (ok=%v)", rec, ok)
	}
	if _, ok := d.ArtifactByLocation("app:ghost"); ok {
		t.Fatal("found a ghost artifact")
	}

	// Full listing sorted by digest then node.
	all := d.Artifacts()
	if len(all) != 3 || all[0].Node != "n1" || all[1].Node != "n2" || all[2].Digest != "bbb" {
		t.Fatalf("Artifacts() = %+v", all)
	}

	d.artifacts.remove("aaa", "n2")
	if got := d.ArtifactReplicas("aaa"); len(got) != 1 {
		t.Fatalf("after RemoveArtifact = %+v", got)
	}
	d.artifacts.prune(map[string]bool{"n2": true})
	if got := d.Artifacts(); len(got) != 0 {
		t.Fatalf("after RemoveArtifactsOf = %+v", got)
	}
	// Removing from an empty directory is a no-op.
	d.artifacts.remove("ghost", "n1")
	d.artifacts.prune(map[string]bool{"n1": true, "n2": true})
}

func TestDirectoryReplaceArtifactsOf(t *testing.T) {
	d := NewDirectory()
	if existed := d.artifacts.put(art("aaa", "n1")); existed {
		t.Fatal("first put reported existing")
	}
	if existed := d.artifacts.put(art("aaa", "n1")); !existed {
		t.Fatal("re-put did not report existing")
	}
	d.artifacts.put(art("bbb", "n1"))
	d.artifacts.put(art("aaa", "n2"))

	// The anti-entropy resync: n1 now holds only ccc; its stale aaa/bbb
	// records vanish, other nodes' records survive. Deltas are exact.
	added, updated, removed := d.artifacts.replaceOf("n1", []ArtifactInfo{art("ccc", "n1")})
	if len(added) != 1 || added[0].Digest != "ccc" {
		t.Fatalf("added = %+v", added)
	}
	if len(updated) != 0 {
		t.Fatalf("updated = %+v", updated)
	}
	if len(removed) != 2 || removed[0].Digest != "aaa" || removed[1].Digest != "bbb" {
		t.Fatalf("removed = %+v", removed)
	}
	all := d.Artifacts()
	if len(all) != 2 || all[0].Digest != "aaa" || all[0].Node != "n2" || all[1].Digest != "ccc" {
		t.Fatalf("after replace = %+v", all)
	}
	// Identical replay: no deltas at all — the property that makes
	// periodic artifact anti-entropy silent when converged.
	added, updated, removed = d.artifacts.replaceOf("n1", []ArtifactInfo{art("ccc", "n1")})
	if len(added)+len(updated)+len(removed) != 0 {
		t.Fatalf("replay deltas: +%v ~%v -%v", added, updated, removed)
	}
	// A content change surfaces as updated.
	changed := art("ccc", "n1")
	changed.Location = "app:moved"
	_, updated, _ = d.artifacts.replaceOf("n1", []ArtifactInfo{changed})
	if len(updated) != 1 || updated[0].Location != "app:moved" {
		t.Fatalf("updated = %+v", updated)
	}
	// Records claiming another node are ignored (a node only speaks for
	// itself in a sync).
	added, updated, removed = d.artifacts.replaceOf("n2", []ArtifactInfo{art("ddd", "n3")})
	if got := d.Artifacts(); len(got) != 1 || got[0].Digest != "ccc" {
		t.Fatalf("forged sync applied: %+v", got)
	}
	// The forged record contributes no delta; n2's vanished aaa does.
	if len(added) != 0 || len(updated) != 0 || len(removed) != 1 || removed[0].Digest != "aaa" {
		t.Fatalf("forged sync deltas: +%v ~%v -%v", added, updated, removed)
	}
}
