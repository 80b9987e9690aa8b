package migrate

import (
	"fmt"
	"testing"
)

// TestShardRouterDeterministic pins the routing contract: the router is
// a pure function of (key, shard count) — two independently constructed
// routers agree on every key, and re-scoring a key any number of times
// never moves it while the shard count is fixed.
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
