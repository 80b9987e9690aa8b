package migrate

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dosgi/internal/gcs"
	"dosgi/internal/health"
)

// TestShardRouterDeterministic pins the routing contract the whole
// sharded directory rests on: the router is a pure function of
// (key, shard count) — two independently constructed routers agree on
// every key, and re-scoring a key any number of times never moves it
// while the shard count is fixed.
func TestShardRouterDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16} {
		a, b := NewShardRouter(n), NewShardRouter(n)
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("svc-%04d", i)
			sa := a.Shard(key)
			if sa < 0 || sa >= n {
				t.Fatalf("shards=%d key=%s routed out of range: %d", n, key, sa)
			}
			if sb := b.Shard(key); sb != sa {
				t.Fatalf("shards=%d key=%s: routers disagree (%d vs %d)", n, key, sa, sb)
			}
			if again := a.Shard(key); again != sa {
				t.Fatalf("shards=%d key=%s moved: %d then %d", n, key, sa, again)
			}
		}
	}
}

// TestShardRouterBalance: rendezvous hashing must spread keys roughly
// evenly — no shard may own more than twice or less than half its fair
// share over a 16-shard split of 10k keys.
func TestShardRouterBalance(t *testing.T) {
	const n, keys = 16, 10000
	r := NewShardRouter(n)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.Shard(fmt.Sprintf("endpoint-%05d", i))]++
	}
	fair := keys / n
	for s, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("shard %d owns %d of %d keys (fair share %d): %v", s, c, keys, fair, counts)
		}
	}
}

// TestShardRoutingAgreesAcrossNodesAndViews: every node of a sharded
// cluster computes the same placement for the same key, and a view
// change (node crash) moves no keys — placement depends on the shard
// count alone, never on membership.
func TestShardRoutingAgreesAcrossNodesAndViews(t *testing.T) {
	tc := newShardedTestClusterSeed(t, 3, 4, 1)
	tc.settle()

	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("svc-%03d", i)
	}
	want := make([]int, len(keys))
	for i, k := range keys {
		want[i] = tc.nodes["node00"].mod.ShardOf(k)
		for id, n := range tc.nodes {
			if got := n.mod.ShardOf(k); got != want[i] {
				t.Fatalf("%s routes %s to %d, node00 to %d", id, k, got, want[i])
			}
		}
	}

	tc.crash("node02")
	tc.eng.RunFor(3 * time.Second)
	for i, k := range keys {
		for _, id := range []string{"node00", "node01"} {
			if got := tc.nodes[id].mod.ShardOf(k); got != want[i] {
				t.Fatalf("after view change %s routes %s to %d, was %d", id, k, got, want[i])
			}
		}
	}
}

// TestShardedDirectoryConverges runs the full announce/withdraw flow on
// a sharded cluster: records spanning every shard converge on every
// node, the per-family counters aggregate across shards, subscribers
// see the merged exact-delta stream, and each shard's stats line shows
// its own membership.
func TestShardedDirectoryConverges(t *testing.T) {
	const shards = 4
	tc := newShardedTestClusterSeed(t, 3, shards, 1)
	tc.settle()

	var changes []EndpointChange
	tc.nodes["node02"].mod.OnEndpointChange(func(ch EndpointChange) {
		changes = append(changes, ch)
	})

	// Enough keys to land on every shard with overwhelming probability.
	const keys = 32
	hit := make(map[int]bool)
	for i := 0; i < keys; i++ {
		svc := fmt.Sprintf("svc-%02d", i)
		hit[tc.nodes["node00"].mod.ShardOf(svc)] = true
		tc.nodes["node00"].mod.AnnounceEndpoint(svc, fmt.Sprintf("10.0.0.1:%d", 8000+i))
		tc.nodes["node01"].mod.AnnounceArtifact(art(fmt.Sprintf("digest-%02d", i), "node01"))
	}
	tc.nodes["node01"].mod.AnnounceHealth(hrec("comp", "node01", health.StatusOK, ""))
	if len(hit) != shards {
		t.Fatalf("test keys cover only %d of %d shards", len(hit), shards)
	}
	tc.settle()

	for id, n := range tc.nodes {
		if got := len(n.mod.Directory().Endpoints()); got != keys {
			t.Fatalf("%s sees %d endpoints, want %d", id, got, keys)
		}
		if got := len(n.mod.Directory().Artifacts()); got != keys {
			t.Fatalf("%s sees %d artifacts, want %d", id, got, keys)
		}
		if got := len(n.mod.Directory().HealthRecords()); got != 1 {
			t.Fatalf("%s sees %d health records, want 1", id, got)
		}
	}
	if len(changes) != keys {
		t.Fatalf("subscriber saw %d endpoint changes, want %d", len(changes), keys)
	}

	// Shard stats: every shard reports full membership, per-shard Added
	// sums to the family total.
	st := tc.nodes["node02"].mod.ShardStats()
	if len(st) != shards {
		t.Fatalf("ShardStats returned %d entries, want %d", len(st), shards)
	}
	var added int64
	for _, s := range st {
		if s.Members != 3 {
			t.Fatalf("shard %d membership = %d, want 3", s.Shard, s.Members)
		}
		added += s.Endpoints.Added
	}
	if total := tc.nodes["node02"].mod.EndpointStats().Added; added != total {
		t.Fatalf("per-shard Added sums to %d, family total %d", added, total)
	}

	// Withdraw half the endpoints; exact deltas across all shards.
	for i := 0; i < keys; i += 2 {
		tc.nodes["node00"].mod.WithdrawEndpoint(fmt.Sprintf("svc-%02d", i))
	}
	tc.settle()
	for id, n := range tc.nodes {
		if got := len(n.mod.Directory().Endpoints()); got != keys/2 {
			t.Fatalf("%s sees %d endpoints after withdraw, want %d", id, got, keys/2)
		}
	}
	// Converged sharded directory stays silent through anti-entropy.
	before := len(changes)
	tc.eng.RunFor(3 * DefaultResyncEvery)
	if len(changes) != before {
		t.Fatalf("converged sharded resync emitted %d spurious deltas", len(changes)-before)
	}
}

// TestShardedPruningDeterministicUnderChurn is the sharded matrix run of
// the record engine's churn regression: for shard counts 1 and 4 and
// several seeds, a holder announcing records across all shards right up
// to its crash must leave every survivor with the identical directory
// and no record naming the dead holder — each shard's view-driven
// pruning must be as deterministic as the single group's was.
func TestShardedPruningDeterministicUnderChurn(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				tc := newShardedTestClusterSeed(t, 4, shards, seed)
				tc.settle()
				for id, n := range tc.nodes {
					n.mod.AnnounceArtifact(art("base-"+id, id))
				}
				tc.settle()

				victim := tc.nodes["node03"]
				for i := 0; i < 8; i++ { // spread late records across shards
					victim.mod.AnnounceArtifact(art(fmt.Sprintf("late-%d", i), "node03"))
					victim.mod.AnnounceEndpoint(fmt.Sprintf("late-svc-%d", i), "x:1")
				}
				victim.mod.antiEntropy()
				tc.eng.RunFor(time.Duration(seed) * 700 * time.Microsecond)
				tc.crash("node03")
				tc.eng.RunFor(3 * time.Second)

				survivors := []string{"node00", "node01", "node02"}
				refArts := tc.nodes[survivors[0]].mod.Directory().Artifacts()
				refEps := tc.nodes[survivors[0]].mod.Directory().Endpoints()
				for _, rec := range refArts {
					if rec.Node == "node03" {
						t.Fatalf("phantom artifact of dead holder survived: %+v", rec)
					}
				}
				for _, rec := range refEps {
					if rec.Node == "node03" {
						t.Fatalf("phantom endpoint of dead holder survived: %+v", rec)
					}
				}
				if len(refArts) != 3 { // one base artifact per survivor
					t.Fatalf("reference artifact directory = %+v", refArts)
				}
				for _, id := range survivors[1:] {
					if got := tc.nodes[id].mod.Directory().Artifacts(); !reflect.DeepEqual(got, refArts) {
						t.Fatalf("artifact directories diverged:\n%s: %+v\n%s: %+v",
							survivors[0], refArts, id, got)
					}
					if got := tc.nodes[id].mod.Directory().Endpoints(); !reflect.DeepEqual(got, refEps) {
						t.Fatalf("endpoint directories diverged:\n%s: %+v\n%s: %+v",
							survivors[0], refEps, id, got)
					}
				}
			})
		}
	}
}

// TestShardSyncScoping pins the cross-shard isolation property of
// per-shard authoritative syncs: one shard's sync (an empty replacement
// for a holder) must not erase the holder's records that live in other
// shards, and a sync carrying keys outside the shard's subset must not
// apply them.
func TestShardSyncScoping(t *testing.T) {
	tc := newShardedTestClusterSeed(t, 2, 4, 1)
	tc.settle()
	mod := tc.nodes["node00"].mod

	// node01 announces records across shards, normally.
	var digests []string
	for i := 0; i < 8; i++ {
		d := fmt.Sprintf("scope-%02d", i)
		digests = append(digests, d)
		tc.nodes["node01"].mod.AnnounceArtifact(art(d, "node01"))
	}
	tc.settle()
	if got := len(mod.Directory().Artifacts()); got != len(digests) {
		t.Fatalf("replicated %d artifacts, want %d", got, len(digests))
	}

	// Inject an empty authoritative sync for node01 into shard 0 only:
	// node01's records in shards 1..3 must survive.
	victimShard := 0
	var inShard, outShard int
	for _, d := range digests {
		if mod.ShardOf(d) == victimShard {
			inShard++
		} else {
			outShard++
		}
	}
	if outShard == 0 {
		t.Skip("all test keys landed in shard 0; adjust key set")
	}
	mod.shards[victimShard].onDeliver(gcs.Message{Body: recordSync{Family: mod.shards[victimShard].arts.tag, Node: "node01", Infos: []ArtifactInfo(nil)}})
	if got := len(mod.Directory().Artifacts()); got != outShard {
		t.Fatalf("shard-0 sync erased other shards' records: %d left, want %d", got, outShard)
	}

	// A sync delivered to shard 0 claiming a key owned by another shard
	// must be ignored: a shard only speaks for its own keys.
	var foreign string
	for _, d := range digests {
		if mod.ShardOf(d) != victimShard {
			foreign = d
			break
		}
	}
	mod.shards[victimShard].onDeliver(gcs.Message{Body: recordSync{
		Family: mod.shards[victimShard].arts.tag, Node: "node01", Infos: []ArtifactInfo{art(foreign, "node01"), art("smuggled", "node01")}}})
	if mod.ShardOf("smuggled") != victimShard {
		// Whatever shard owns "smuggled", shard 0's sync must not have
		// applied it.
		for _, rec := range mod.Directory().Artifacts() {
			if rec.Digest == "smuggled" {
				t.Fatal("shard applied a key outside its subset")
			}
		}
	}
}
