// The sharded record engine: the replicated directory's three record
// families can be partitioned into N rendezvous-hashed shards, each
// backed by its own total-order GCS group with its own coordinator,
// epoch log, membership view and anti-entropy timer. A record key lives
// in exactly one shard, so per-key mutation order is still pinned by one
// sequencer, while sequencing load, retransmission-log pressure and
// slow-member blast radius divide across shards. The ShardRouter is a
// pure function of (key, shard count) — identical on every node, and
// adding records never moves existing keys while the shard count is
// fixed. Module stays the single public surface: announce/withdraw calls
// route to the owning shard, subscriber hooks observe the merged
// exact-delta stream of all shards, and the single-shard layout (the
// default) degenerates to the original one-group engine with no extra
// machinery.

package migrate

import (
	"hash/fnv"
	"sync"

	"dosgi/internal/clock"
	"dosgi/internal/gcs"
	"dosgi/internal/health"
)

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

// Shards returns the shard count.
func (r ShardRouter) Shards() int { return r.n }

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

// dirShard is one partition of the module's record engine: the GCS
// member carrying this shard's broadcasts, the per-shard lock that pins
// broadcast submission order to local mutation order (the same
// invariant the single-group engine held module-wide, now held per
// shard), and this shard's slice of every record family. match reports
// whether a key belongs to this shard (nil on the single-shard layout:
// every key does).
type dirShard struct {
	id     int
	nodeID string
	m      *Module
	member *gcs.Member
	match  func(key string) bool

	mu          sync.Mutex
	announced   bool
	resyncTimer clock.Timer

	// fams holds every family in wire-tag order; eps, arts and hlth are
	// the same families, typed for the module's per-family API.
	fams []familyEngine
	eps  *recordFamily[EndpointInfo]
	arts *recordFamily[ArtifactInfo]
	hlth *recordFamily[health.Record]
}

// newDirShard builds one shard with fresh record families.
func newDirShard(m *Module, id int, member *gcs.Member, match func(string) bool) *dirShard {
	s := &dirShard{id: id, nodeID: m.cfg.NodeID, m: m, member: member, match: match}
	s.eps = addFamily(s, m.dir.endpoints)
	s.arts = addFamily(s, m.dir.artifacts)
	s.hlth = addFamily(s, m.dir.healths)
	return s
}

// broadcast sends a totally-ordered message on this shard's group,
// silently dropping it when the member is not yet in a view (the first
// per-shard view announce re-publishes everything).
func (s *dirShard) broadcast(body any) {
	_ = s.member.Broadcast(body, gcs.Total)
}

// viewNodeSet maps a shard view's member ids (possibly ranked) to the
// plain node-id set used for dead-holder pruning.
func viewNodeSet(v gcs.View) map[string]bool {
	set := make(map[string]bool, len(v.Members))
	for _, id := range v.Members {
		set[gcs.NodeOf(id)] = true
	}
	return set
}

// onView handles this shard's membership changes: mark the shard
// announced, re-broadcast the authoritative per-shard record sets
// (anti-entropy against partitioned withdrawals) and deterministically
// prune records whose holders left the shard view. Each shard's
// membership drives its own pruning — a node partitioned out of one
// shard group loses only that shard's records until the heal.
func (s *dirShard) onView(v gcs.View) {
	s.mu.Lock()
	s.announced = true
	// Snapshot and broadcast under the shard lock: a sync submitted
	// after a concurrent announce/withdraw must reflect it, or per-shard
	// total-order sequencing could apply the stale snapshot last.
	for _, f := range s.fams {
		s.broadcast(f.syncMsg())
	}
	s.mu.Unlock()

	live := viewNodeSet(v)
	for _, f := range s.fams {
		f.prune(live)
	}
}

// onDeliver applies this shard's replicated record mutations. Instance,
// node and migration traffic stays on the main group; only the record
// families ride shard groups.
func (s *dirShard) onDeliver(msg gcs.Message) {
	switch body := msg.Body.(type) {
	case recordPut:
		s.fams[body.Family].applyPut(body.Info)
	case recordRemove:
		s.fams[body.Family].applyRemove(body.Key, body.Node)
	case recordSync:
		s.fams[body.Family].applySync(body.Node, body.Infos)
	}
}

// antiEntropy re-broadcasts this shard's authoritative record sets on
// the shard's own timer. Exact deltas mean a converged shard produces
// no events; per-shard timers mean one slow shard group never delays
// another shard's convergence.
func (s *dirShard) antiEntropy() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.announced {
		return
	}
	for _, f := range s.fams {
		s.broadcast(f.syncMsg())
	}
}

// ShardStats is one shard's view of the three family counters plus the
// shard group's membership size — the per-shard health line operators
// read off the metrics plane.
type ShardStats struct {
	Shard     int
	Members   int
	Endpoints FamilyStats
	Artifacts FamilyStats
	Health    FamilyStats
}
