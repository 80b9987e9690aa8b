// The unified replicated-directory record layer: one generic engine
// under ALL record families the directory replicates per holder node —
// service endpoints (key = service name), artifact holdings (key =
// content digest) and component health records (key = component name).
// Everything a family needs to stay convergent and observable is
// defined once here:
//
//   - storage of each record key's few records as one slice sorted by
//     holder node, beside an index of every holder's keys, with
//     total-order put/remove and authoritative per-holder sync — a
//     lookup is one probe, and a holder's sync or prune touches only
//     that holder's records;
//   - exact delta computation — an unchanged record replayed by a resync
//     appears in no delta list, so a converged anti-entropy replay is
//     silent and subscribers never see spurious events;
//   - deterministic dead-holder pruning on view changes, plus a
//     deliver-side membership filter so a mutation sequenced before a
//     holder's departure but applied after it (the view-install flush
//     path) cannot resurrect a dead holder's records on some replicas;
//   - per-family counters for the cluster metrics plane.
//
// Each family is declared once (family[V]: name, key, holder). The
// Directory's recordTable and every shard's recordFamily are built from
// that declaration; a shard drives its families through familyEngine, and
// the three wire messages carry the family's tag.

package migrate

import (
	"slices"
	"strings"

	"dosgi/internal/health"
)

// ChangeType enumerates replicated record-change kinds, shared by every
// record family of the directory.
type ChangeType int

// Record changes, derived from totally-ordered directory mutations (and
// from deterministic view-change pruning), so every node observes the
// same sequence.
const (
	// Added: a new (key, holder) record appeared.
	Added ChangeType = iota + 1
	// Updated: an existing record re-announced (content changed, or an
	// identical incremental re-put — how a holder signals MODIFIED).
	Updated
	// Removed: a record withdrew or its holder node departed.
	Removed
)

func (t ChangeType) String() string {
	switch t {
	case Added:
		return "ADDED"
	case Updated:
		return "UPDATED"
	case Removed:
		return "REMOVED"
	}
	return "UNKNOWN"
}

// Change reports one replicated record change of family V — the exact
// deltas subscribers consume.
type Change[V any] struct {
	Type ChangeType
	Info V
}

// Endpoint-record changes keep their established names; they are the
// same types the artifact family now shares.
type (
	// EndpointChangeType aliases the shared change kind.
	EndpointChangeType = ChangeType
	// EndpointChange reports one replicated endpoint-record change — the
	// feed the remote event brokers push to subscribed importers.
	EndpointChange = Change[EndpointInfo]
	// ArtifactChange reports one replicated artifact-record change — the
	// feed replication duty and provisioning hooks consume. Exact deltas:
	// a converged resync produces none.
	ArtifactChange = Change[ArtifactInfo]
	// HealthChange reports one replicated health-record change — the feed
	// the health alert bridges and autonomic rules consume. Exact deltas:
	// a converged resync produces none, so steady-state health is silent.
	HealthChange = Change[health.Record]
)

// Endpoint-change kinds (aliases of the shared kinds).
const (
	EndpointAdded   = Added
	EndpointUpdated = Updated
	EndpointRemoved = Removed
)

// family declares one record family: its name (the attribute prefix
// under the directory:<node> metrics provider), the record key and the
// node holding the record.
type family[V comparable] struct {
	name   string
	key    func(V) string
	holder func(V) string
}

// The directory's record families. Health causes are stable rule
// descriptions, so a converged health sync compares equal and is silent.
var (
	endpointFamily = &family[EndpointInfo]{name: "endpoint",
		key:    func(e EndpointInfo) string { return e.Service },
		holder: func(e EndpointInfo) string { return e.Node }}
	artifactFamily = &family[ArtifactInfo]{name: "artifact",
		key:    func(a ArtifactInfo) string { return a.Digest },
		holder: func(a ArtifactInfo) string { return a.Node }}
	healthFamily = &family[health.Record]{name: "health",
		key:    func(h health.Record) string { return h.Component },
		holder: func(h health.Record) string { return h.Node }}
)

// Record wire messages, broadcast with Total ordering on the owning
// shard's group and tagged with the family's index in dirShard.fams.
// put/remove are incremental; sync replaces a holder's complete record
// set within the shard's keys (view changes and anti-entropy ticks).
type (
	recordPut struct {
		Family int
		Info   any // the family's V
	}
	recordRemove struct {
		Family    int
		Key, Node string
	}
	recordSync struct {
		Family int
		Node   string
		Infos  any // the family's []V
	}
)

// recordTable is the storage half of the engine: one family's records,
// each key's few records in a slice sorted by holder, plus the index of
// every holder's keys that per-holder syncs and dead-holder prunes walk
// instead of the whole table. It is not self-locking — the Directory
// guards every table with its single mutex so cross-family reads stay
// consistent.
type recordTable[V comparable] struct {
	*family[V]
	recs map[string][]V                 // key → records, sorted by holder
	held map[string]map[string]struct{} // holder → keys it has a record of
}

func newRecordTable[V comparable](f *family[V]) *recordTable[V] {
	return &recordTable[V]{family: f, recs: make(map[string][]V), held: make(map[string]map[string]struct{})}
}

// find returns the index of holder's record in rs (sorted by holder) and
// whether it is there; when it is not, the index is where it belongs.
func (t *recordTable[V]) find(rs []V, holder string) (int, bool) {
	for i, v := range rs {
		if h := t.holder(v); h >= holder {
			return i, h == holder
		}
	}
	return len(rs), false
}

// put upserts a record, reporting whether a record for (key, holder)
// already existed — callers turn the result into Added vs Updated.
func (t *recordTable[V]) put(v V) (existed bool) {
	key, holder := t.key(v), t.holder(v)
	rs := t.recs[key]
	i, existed := t.find(rs, holder)
	if existed {
		rs[i] = v
		return true
	}
	t.recs[key] = slices.Insert(rs, i, v)
	keys := t.held[holder]
	if keys == nil {
		keys = make(map[string]struct{})
		t.held[holder] = keys
	}
	keys[key] = struct{}{}
	return false
}

// remove deletes holder's record for key, returning the removed record
// (ok=false when there was none).
func (t *recordTable[V]) remove(key, holder string) (V, bool) {
	rs := t.recs[key]
	i, ok := t.find(rs, holder)
	if !ok {
		var zero V
		return zero, false
	}
	v := rs[i]
	if len(rs) == 1 {
		delete(t.recs, key)
	} else {
		t.recs[key] = slices.Delete(rs, i, i+1)
	}
	keys := t.held[holder]
	delete(keys, key)
	if len(keys) == 0 {
		delete(t.held, holder)
	}
	return v, true
}

// prune deletes every record, among keys satisfying match (nil matches
// everything), whose holder is not in live — the view-change dead-holder
// prune, scoped so a holder departing one shard's view loses only that
// shard's records — and returns them sorted by holder then key. Only the
// dead holders' keys are visited.
func (t *recordTable[V]) prune(live map[string]bool, match func(string) bool) []V {
	var dead []string
	for holder := range t.held {
		if !live[holder] {
			dead = append(dead, holder)
		}
	}
	slices.Sort(dead)
	var removed []V
	for _, holder := range dead {
		var keys []string
		for key := range t.held[holder] {
			if match == nil || match(key) {
				keys = append(keys, key)
			}
		}
		slices.Sort(keys)
		for _, key := range keys {
			v, _ := t.remove(key, holder)
			removed = append(removed, v)
		}
	}
	return removed
}

// replaceOf makes vs the complete record set of holder within the keys
// satisfying match (nil matches everything), dropping any stale records —
// the authoritative resync each node broadcasts on view change and
// anti-entropy ticks. The returned deltas are exact (an unchanged record
// appears in neither list), so a replayed sync of a converged directory
// produces no events. Records claiming another holder are ignored: a node
// only speaks for itself in a sync. Records outside the match subset are
// neither applied nor erased, which is what makes per-shard syncs safe —
// a shard only speaks for its own keys.
func (t *recordTable[V]) replaceOf(holder string, vs []V, match func(string) bool) (added, updated, removed []V) {
	// prev holds holder's records in scope, each marked once vs names it;
	// the unmarked ones are stale.
	type prevRec struct {
		v     V
		named bool
	}
	own := t.held[holder]
	prev := make(map[string]prevRec, len(own))
	for key := range own {
		if match == nil || match(key) {
			rs := t.recs[key]
			i, _ := t.find(rs, holder)
			prev[key] = prevRec{v: rs[i]}
		}
	}
	for _, v := range vs {
		key := t.key(v)
		if t.holder(v) != holder || (match != nil && !match(key)) {
			continue
		}
		p, existed := prev[key]
		switch {
		case !existed:
			added = append(added, v)
		case p.v != v:
			updated = append(updated, v)
		}
		if existed && !p.named {
			prev[key] = prevRec{v: p.v, named: true}
			if p.v == v {
				continue // first mention of an unchanged record: the table holds it
			}
		}
		t.put(v)
	}
	for key, p := range prev {
		if !p.named {
			removed = append(removed, p.v)
			t.remove(key, holder)
		}
	}
	t.sortByKey(added)
	t.sortByKey(updated)
	t.sortByKey(removed)
	return added, updated, removed
}

// forKey returns the records of key, sorted by holder.
func (t *recordTable[V]) forKey(key string) []V {
	rs := t.recs[key]
	return append(make([]V, 0, len(rs)), rs...)
}

// all returns every record, sorted by key then holder.
func (t *recordTable[V]) all() []V {
	if len(t.recs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(t.recs))
	n := 0
	for key, rs := range t.recs {
		keys = append(keys, key)
		n += len(rs)
	}
	slices.Sort(keys)
	out := make([]V, 0, n)
	for _, key := range keys {
		out = append(out, t.recs[key]...)
	}
	return out
}

func (t *recordTable[V]) sortByKey(vs []V) {
	slices.SortFunc(vs, func(a, b V) int { return strings.Compare(t.key(a), t.key(b)) })
}

// FamilyStats counts one record family's replicated-directory activity
// on one node: wire messages applied, exact deltas emitted, silent
// (already-converged) resyncs, records pruned with a departed holder and
// mutations filtered because their holder had already left the view.
type FamilyStats struct {
	Puts, Removes, Syncs    int64
	Added, Updated, Removed int64
	// SilentSyncs counts applied syncs that changed nothing — the
	// signature of converged anti-entropy.
	SilentSyncs int64
	// Pruned counts records dropped deterministically with a dead holder
	// on view changes.
	Pruned int64
	// Filtered counts put/remove/sync messages dropped because the
	// holder was no longer a view member at apply time.
	Filtered int64
}

func (a FamilyStats) plus(b FamilyStats) FamilyStats {
	a.Puts += b.Puts
	a.Removes += b.Removes
	a.Syncs += b.Syncs
	a.Added += b.Added
	a.Updated += b.Updated
	a.Removed += b.Removed
	a.SilentSyncs += b.SilentSyncs
	a.Pruned += b.Pruned
	a.Filtered += b.Filtered
	return a
}

// familyEngine is one record family as its shard drives it, whatever the
// record type. syncMsg and counters run under the shard lock.
type familyEngine interface {
	applyPut(info any)
	applyRemove(key, holder string)
	applySync(holder string, infos any)
	prune(live map[string]bool)
	syncMsg() recordSync
	counters() (name string, st FamilyStats)
}

// recordFamily is the shard-side half of the engine for one family: the
// records this node owns (re-broadcast by every sync), the exact-delta
// hooks and the counters, guarded by the shard lock, over the
// Directory's table for the family, guarded by the Directory's lock.
type recordFamily[V comparable] struct {
	tag   int // index in s.fams: the family's wire tag
	s     *dirShard
	dir   *Directory
	t     *recordTable[V]
	owned map[string]V
	hooks []func(Change[V])
	stats FamilyStats
}

// addFamily builds s's engine half of the family stored in t and
// registers it in s.fams.
func addFamily[V comparable](s *dirShard, t *recordTable[V]) *recordFamily[V] {
	f := &recordFamily[V]{tag: len(s.fams), s: s, dir: s.m.dir, t: t, owned: make(map[string]V)}
	s.fams = append(s.fams, f)
	return f
}

// announce records info as locally owned and broadcasts the put on the
// shard's group. The broadcast submits under the shard lock: record
// broadcasts must sequence in the same order the local state mutates, or
// a concurrent anti-entropy sync whose snapshot predates this change
// could be sequenced after it and briefly erase the record cluster-wide
// (shard mu → member internals is a safe lock order; deliveries run with
// both released). This holds on a real clock, not just the
// single-threaded simulator. Per-shard locks mean the ordering is pinned
// per shard — exactly as strong as the per-key guarantee consumers rely
// on, since a key never changes shards.
func (f *recordFamily[V]) announce(info V) {
	f.s.mu.Lock()
	f.owned[f.t.key(info)] = info
	f.s.broadcast(recordPut{Family: f.tag, Info: info})
	f.s.mu.Unlock()
}

// withdraw drops local ownership of key, if this node owns a record of
// it that mine (nil: any) accepts, and broadcasts the removal under the
// shard lock for the same submission-order reason as announce.
func (f *recordFamily[V]) withdraw(key string, mine func(V) bool) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if v, owned := f.owned[key]; owned && (mine == nil || mine(v)) {
		delete(f.owned, key)
		f.s.broadcast(recordRemove{Family: f.tag, Key: key, Node: f.s.nodeID})
	}
}

// subscribe adds a subscriber to the family's exact deltas. hooks is
// copy-on-write: subscribe installs a new slice, so a slice notify read
// stays valid while its hooks run.
func (f *recordFamily[V]) subscribe(fn func(Change[V])) {
	f.s.mu.Lock()
	f.hooks = append(f.hooks[:len(f.hooks):len(f.hooks)], fn)
	f.s.mu.Unlock()
}

// syncMsg snapshots the owned records, sorted by key, as this node's
// authoritative sync.
func (f *recordFamily[V]) syncMsg() recordSync {
	infos := make([]V, 0, len(f.owned))
	for _, v := range f.owned {
		infos = append(infos, v)
	}
	f.t.sortByKey(infos)
	return recordSync{Family: f.tag, Node: f.s.nodeID, Infos: infos}
}

func (f *recordFamily[V]) counters() (string, FamilyStats) { return f.t.name, f.stats }

// notify fans exact deltas out to the family's subscribers, counting
// them. Hooks run with no locks held.
func (f *recordFamily[V]) notify(kind ChangeType, infos ...V) {
	if len(infos) == 0 {
		return
	}
	f.s.mu.Lock()
	switch kind {
	case Added:
		f.stats.Added += int64(len(infos))
	case Updated:
		f.stats.Updated += int64(len(infos))
	case Removed:
		f.stats.Removed += int64(len(infos))
	}
	hooks := f.hooks
	f.s.mu.Unlock()
	for _, fn := range hooks {
		for _, v := range infos {
			fn(Change[V]{Type: kind, Info: v})
		}
	}
}

// admit reports whether a replicated mutation's holder is still a member
// of the shard's current view, counting the mutation in applied when it
// is and as Filtered when it is not. Mutations from departed holders are
// dropped: a message sequenced before the holder's departure but applied
// after it — the view-install flush path — would otherwise resurrect
// dead records on exactly the replicas that buffered it, making
// dead-holder pruning nondeterministic under concurrent view changes. By
// apply time every member has the new view installed, so every member
// drops (or keeps) the same mutations. The check runs against the OWNING
// shard's view — shard views change independently, and only the shard
// sequencing a key decides its fate. Shard groups may run under ranked
// member ids (see gcs.RankedID), so membership is compared on the plain
// node id.
func (f *recordFamily[V]) admit(holder string, applied *int64) bool {
	live := f.s.member.HasNode(holder)
	f.s.mu.Lock()
	if live {
		*applied++
	} else {
		f.stats.Filtered++
	}
	f.s.mu.Unlock()
	return live
}

// applyPut applies a replicated incremental put. A re-announcement of an
// existing record (even with identical content) is deliberately an
// Updated change: it is how a holder signals a MODIFIED service to
// remote listeners.
func (f *recordFamily[V]) applyPut(info any) {
	v := info.(V)
	if !f.admit(f.t.holder(v), &f.stats.Puts) {
		return
	}
	f.dir.mu.Lock()
	existed := f.t.put(v)
	f.dir.mu.Unlock()
	kind := Added
	if existed {
		kind = Updated
	}
	f.notify(kind, v)
}

// applyRemove applies a replicated incremental removal.
func (f *recordFamily[V]) applyRemove(key, holder string) {
	if !f.admit(holder, &f.stats.Removes) {
		return
	}
	f.dir.mu.Lock()
	v, ok := f.t.remove(key, holder)
	f.dir.mu.Unlock()
	if ok {
		f.notify(Removed, v)
	}
}

// applySync applies a replicated authoritative per-holder sync, scoped
// to the shard's keys, emitting only the exact deltas. A converged
// replay is silent.
func (f *recordFamily[V]) applySync(holder string, infos any) {
	if !f.admit(holder, &f.stats.Syncs) {
		return
	}
	f.dir.mu.Lock()
	added, updated, removed := f.t.replaceOf(holder, infos.([]V), f.s.match)
	f.dir.mu.Unlock()
	if len(added)+len(updated)+len(removed) == 0 {
		f.s.mu.Lock()
		f.stats.SilentSyncs++
		f.s.mu.Unlock()
	}
	f.notify(Added, added...)
	f.notify(Updated, updated...)
	f.notify(Removed, removed...)
}

// prune removes, in one pass over the shard's keys, every record whose
// holder left the shard's view, then notifies the exact Removed deltas
// holder by holder in (holder, key) order. Every replica prunes the same
// records from the same view in the same order, so directories converge
// without a broadcast, and one shard's view change never disturbs
// records sequenced by another shard's group.
func (f *recordFamily[V]) prune(live map[string]bool) {
	f.dir.mu.Lock()
	removed := f.t.prune(live, f.s.match)
	f.dir.mu.Unlock()
	for len(removed) > 0 {
		n := 1
		for n < len(removed) && f.t.holder(removed[n]) == f.t.holder(removed[0]) {
			n++
		}
		f.s.mu.Lock()
		f.stats.Pruned += int64(n)
		f.s.mu.Unlock()
		f.notify(Removed, removed[:n]...)
		removed = removed[n:]
	}
}
