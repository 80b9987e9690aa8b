// Rendezvous routing of record keys onto N partitions. The directory
// runs as one group, so nothing in it routes keys; the router remains
// as a measured primitive (the benchmark's migrate.shard.route_ns probe
// times it).

package migrate

import "hash/fnv"

// ShardRouter deterministically maps record keys onto directory shards
// with rendezvous (highest-random-weight) hashing: every key scores
// each shard and picks the highest score. All nodes compute the same
// placement from (key, shard count) alone — no coordination, no
// placement table — and a fixed shard count never rebalances: a key's
// winning shard cannot change unless shards are added or removed.
type ShardRouter struct {
	n int
}

// NewShardRouter returns a router over n shards (n < 1 is treated as 1).
func NewShardRouter(n int) ShardRouter {
	if n < 1 {
		n = 1
	}
	return ShardRouter{n: n}
}

// Shard returns the shard owning key.
func (r ShardRouter) Shard(key string) int {
	if r.n <= 1 {
		return 0
	}
	best, bestScore := 0, rendezvousScore(key, 0)
	for s := 1; s < r.n; s++ {
		if score := rendezvousScore(key, s); score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// rendezvousScore is the (key, shard) weight: FNV-1a over the key and
// the shard index, stable across processes and Go versions.
func rendezvousScore(key string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0, byte(shard), byte(shard >> 8), byte(shard >> 16), byte(shard >> 24)})
	return h.Sum64()
}
