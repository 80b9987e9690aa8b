package migrate

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dosgi/internal/gcs"
)

// TestArtifactAntiEntropyHealsBlip: an artifact announcement lost to a
// partition blip too short to change the membership view has no view
// change to trigger a resync — the periodic anti-entropy replay (which
// artifacts now share with endpoints) converges it. The blip cuts the
// announcer off from the coordinator, so the order request itself is
// lost: gap retransmission cannot help (nothing was sequenced) and only
// the periodic sync carries the record out.
func TestArtifactAntiEntropyHealsBlip(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()

	var changes []ArtifactChange
	tc.nodes["node02"].mod.OnArtifactChange(func(ch ArtifactChange) {
		changes = append(changes, ch)
	})
	viewsBefore := tc.nodes["node01"].member.ViewChanges()

	// node01 announces while cut off from the coordinator: the orderReq
	// is lost in flight, so no replica ever sequences the put.
	tc.net.Partition("node00", "node01")
	tc.nodes["node01"].mod.AnnounceArtifact(art("blip", "node01"))
	tc.eng.RunFor(50 * time.Millisecond) // well inside FailTimeout
	tc.net.Heal("node00", "node01")
	tc.eng.RunFor(50 * time.Millisecond)

	if got := tc.nodes["node02"].mod.Directory().ArtifactReplicas("blip"); len(got) != 0 {
		t.Fatalf("put survived the blip (%+v); the test would prove nothing", got)
	}

	// Within 2×ResyncEvery the periodic sync must have replayed it.
	tc.eng.RunFor(2 * DefaultResyncEvery)
	for id, n := range tc.nodes {
		reps := n.mod.Directory().ArtifactReplicas("blip")
		if len(reps) != 1 || reps[0].Node != "node01" {
			t.Fatalf("%s replicas after anti-entropy = %+v", id, reps)
		}
	}
	if tc.nodes["node01"].member.ViewChanges() != viewsBefore {
		t.Fatal("healed through a view change instead of anti-entropy")
	}
	// The subscriber saw exactly one real change: the Added.
	if len(changes) != 1 || changes[0].Type != Added || changes[0].Info.Digest != "blip" {
		t.Fatalf("artifact changes = %+v, want exactly one Added", changes)
	}

	// Converged directory: further resync rounds replay the same sets and
	// must emit nothing — the exact-delta property that makes periodic
	// artifact anti-entropy safe.
	before := tc.nodes["node02"].mod.ArtifactStats()
	tc.eng.RunFor(3 * DefaultResyncEvery)
	after := tc.nodes["node02"].mod.ArtifactStats()
	if after.Syncs <= before.Syncs {
		t.Fatalf("no further syncs applied (before %+v, after %+v)", before, after)
	}
	if after.SilentSyncs <= before.SilentSyncs {
		t.Fatalf("converged resyncs not silent (before %+v, after %+v)", before, after)
	}
	if after.Added != before.Added || after.Updated != before.Updated || after.Removed != before.Removed {
		t.Fatalf("converged resyncs emitted deltas (before %+v, after %+v)", before, after)
	}
	if len(changes) != 1 {
		t.Fatalf("hooks fired on converged resync: %+v", changes)
	}
}

// TestDeadHolderMutationsFiltered pins the deliver-side membership
// filter: a record mutation whose holder already left the view — the
// view-install flush can apply messages sequenced before a departure —
// must be dropped on every replica, or dead-holder pruning would be
// nondeterministic (resurrected records only on the replicas that
// buffered the message across the view change).
func TestDeadHolderMutationsFiltered(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.settle()
	mod := tc.nodes["node00"].mod

	ghostArt := art("ghost-digest", "node99")
	mod.shards[0].onDeliver(gcs.Message{Body: recordPut{Family: mod.shards[0].arts.tag, Info: ghostArt}})
	mod.shards[0].onDeliver(gcs.Message{Body: recordSync{Family: mod.shards[0].arts.tag, Node: "node99", Infos: []ArtifactInfo{ghostArt}}})
	if got := mod.Directory().Artifacts(); len(got) != 0 {
		t.Fatalf("dead holder's artifact records applied: %+v", got)
	}
	mod.shards[0].onDeliver(gcs.Message{Body: recordPut{Family: mod.shards[0].eps.tag, Info: EndpointInfo{Service: "svc", Node: "node99", Addr: "x:1"}}})
	if got := mod.Directory().Endpoints(); len(got) != 0 {
		t.Fatalf("dead holder's endpoint record applied: %+v", got)
	}
	if st := mod.ArtifactStats(); st.Filtered != 2 {
		t.Fatalf("artifact Filtered = %d, want 2", st.Filtered)
	}
	if st := mod.EndpointStats(); st.Filtered != 1 {
		t.Fatalf("endpoint Filtered = %d, want 1", st.Filtered)
	}
	// Mutations from live members still apply.
	liveArt := art("live-digest", "node01")
	mod.shards[0].onDeliver(gcs.Message{Body: recordPut{Family: mod.shards[0].arts.tag, Info: liveArt}})
	if got := mod.Directory().ArtifactReplicas("live-digest"); len(got) != 1 {
		t.Fatalf("live holder's record dropped: %+v", got)
	}
}

// TestArtifactPruningDeterministicUnderChurn is the seeded regression
// for artifactSync dead-holder pruning: a holder that announces and
// resyncs right up to its crash, across several seeds (different
// interleavings of in-flight broadcasts, failure detection and view
// installation), must leave every survivor with the identical artifact
// directory and no record naming the dead holder.
func TestArtifactPruningDeterministicUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := newTestClusterSeed(t, 4, seed)
			tc.settle()
			for id, n := range tc.nodes {
				n.mod.AnnounceArtifact(art("base-"+id, id))
			}
			tc.settle()

			// The victim announces fresh records and forces a resync
			// broadcast, then crashes a seed-dependent instant later —
			// the messages race the failure detection.
			victim := tc.nodes["node03"]
			victim.mod.AnnounceArtifact(art("late-a", "node03"))
			victim.mod.AnnounceArtifact(art("late-b", "node03"))
			victim.mod.antiEntropy()
			tc.eng.RunFor(time.Duration(seed) * 700 * time.Microsecond)
			tc.crash("node03")
			tc.eng.RunFor(3 * time.Second)

			survivors := []string{"node00", "node01", "node02"}
			ref := tc.nodes[survivors[0]].mod.Directory().Artifacts()
			for _, rec := range ref {
				if rec.Node == "node03" {
					t.Fatalf("phantom record of dead holder survived: %+v", rec)
				}
			}
			if len(ref) != 3 { // one base artifact per survivor
				t.Fatalf("reference directory = %+v", ref)
			}
			for _, id := range survivors[1:] {
				got := tc.nodes[id].mod.Directory().Artifacts()
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("directories diverged after churn:\n%s: %+v\n%s: %+v",
						survivors[0], ref, id, got)
				}
			}
		})
	}
}

// TestWithdrawArtifactConvergesAndNotifies: the withdraw path through
// the shared engine — owned-set removal and broadcast submit under the
// module lock, every replica emits exactly one Removed delta, and later
// anti-entropy replays do not resurrect the record.
func TestWithdrawArtifactConvergesAndNotifies(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()
	var changes []ArtifactChange
	tc.nodes["node02"].mod.OnArtifactChange(func(ch ArtifactChange) {
		changes = append(changes, ch)
	})

	tc.nodes["node01"].mod.AnnounceArtifact(art("w", "node01"))
	tc.settle()
	if len(changes) != 1 || changes[0].Type != Added {
		t.Fatalf("after announce: %+v", changes)
	}
	tc.nodes["node01"].mod.WithdrawArtifact(art("w", "node01").Digest)
	tc.settle()
	if len(changes) != 2 || changes[1].Type != Removed {
		t.Fatalf("after withdraw: %+v", changes)
	}
	tc.eng.RunFor(2 * DefaultResyncEvery)
	for id, n := range tc.nodes {
		if got := n.mod.Directory().Artifacts(); len(got) != 0 {
			t.Fatalf("%s resurrected withdrawn artifact: %+v", id, got)
		}
	}
	if len(changes) != 2 {
		t.Fatalf("spurious changes after withdraw: %+v", changes)
	}
}
