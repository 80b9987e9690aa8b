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
// Directory's recordTable and the Module's recordFamily are built from
// that declaration; the Module drives its families through familyEngine,
// and the three wire messages carry the family's tag.

package migrate

import (
	"maps"
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

// Record wire messages, broadcast with Total ordering on the node's
// group and tagged with the family's index in Module.fams. put/remove
// are incremental; sync replaces a holder's complete record set (view
// changes and anti-entropy ticks).
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

// prune deletes every record whose holder is not in live — the
// view-change dead-holder prune — and returns them sorted by holder then
// key. Only the dead holders' keys are visited.
func (t *recordTable[V]) prune(live map[string]bool) []V {
	var dead []string
	for holder := range t.held {
		if !live[holder] {
			dead = append(dead, holder)
		}
	}
	slices.Sort(dead)
	var removed []V
	for _, holder := range dead {
		keys := slices.Sorted(maps.Keys(t.held[holder]))
		for _, key := range keys {
			v, _ := t.remove(key, holder)
			removed = append(removed, v)
		}
	}
	return removed
}

// replaceOf makes vs the complete record set of holder, dropping any
// stale records — the authoritative resync each node broadcasts on view
// change and anti-entropy ticks. The returned deltas are exact (an
// unchanged record appears in neither list), so a replayed sync of a
// converged directory produces no events. Records claiming another
// holder are ignored: a node only speaks for itself in a sync.
func (t *recordTable[V]) replaceOf(holder string, vs []V) (added, updated, removed []V) {
	// prev holds holder's records, each marked once vs names it; the
	// unmarked ones are stale.
	type prevRec struct {
		v     V
		named bool
	}
	own := t.held[holder]
	prev := make(map[string]prevRec, len(own))
	for key := range own {
		rs := t.recs[key]
		i, _ := t.find(rs, holder)
		prev[key] = prevRec{v: rs[i]}
	}
	for _, v := range vs {
		key := t.key(v)
		if t.holder(v) != holder {
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

// familyEngine is one record family as the Module drives it, whatever
// the record type. syncMsg and counters run under Module.recMu.
type familyEngine interface {
	applyPut(info any)
	applyRemove(key, holder string)
	applySync(holder string, infos any)
	prune(live map[string]bool)
	syncMsg() recordSync
	counters() (name string, st FamilyStats)
}

// recordFamily is the Module's half of the engine for one family: the
// records this node owns (re-broadcast by every sync), the exact-delta
// hooks and the counters, guarded by Module.recMu, over the Directory's
// table for the family, guarded by the Directory's lock.
type recordFamily[V comparable] struct {
	tag   int // index in m.fams: the family's wire tag
	m     *Module
	t     *recordTable[V]
	owned map[string]V
	hooks []func(Change[V])
	stats FamilyStats
}

// addFamily builds m's engine half of the family stored in t and
// registers it in m.fams.
func addFamily[V comparable](m *Module, t *recordTable[V]) *recordFamily[V] {
	f := &recordFamily[V]{tag: len(m.fams), m: m, t: t, owned: make(map[string]V)}
	m.fams = append(m.fams, f)
	return f
}

// announce records info as locally owned and broadcasts the put. The
// broadcast submits under recMu: record broadcasts must sequence in the
// same order the local state mutates, or a concurrent anti-entropy sync
// whose snapshot predates this change could be sequenced after it and
// briefly erase the record cluster-wide (recMu → member internals is a
// safe lock order; deliveries run with both released). This holds on a
// real clock, not just the single-threaded simulator.
func (f *recordFamily[V]) announce(info V) {
	f.m.recMu.Lock()
	f.owned[f.t.key(info)] = info
	f.m.broadcast(recordPut{Family: f.tag, Info: info})
	f.m.recMu.Unlock()
}

// withdraw drops local ownership of key, if this node owns a record of
// it that mine (nil: any) accepts, and broadcasts the removal under
// recMu for the same submission-order reason as announce.
func (f *recordFamily[V]) withdraw(key string, mine func(V) bool) {
	f.m.recMu.Lock()
	defer f.m.recMu.Unlock()
	if v, owned := f.owned[key]; owned && (mine == nil || mine(v)) {
		delete(f.owned, key)
		f.m.broadcast(recordRemove{Family: f.tag, Key: key, Node: f.m.cfg.NodeID})
	}
}

// subscribe adds a subscriber to the family's exact deltas. hooks is
// copy-on-write: subscribe installs a new slice, so a slice notify read
// stays valid while its hooks run.
func (f *recordFamily[V]) subscribe(fn func(Change[V])) {
	f.m.recMu.Lock()
	f.hooks = append(f.hooks[:len(f.hooks):len(f.hooks)], fn)
	f.m.recMu.Unlock()
}

// syncMsg snapshots the owned records, sorted by key, as this node's
// authoritative sync.
func (f *recordFamily[V]) syncMsg() recordSync {
	infos := make([]V, 0, len(f.owned))
	for _, v := range f.owned {
		infos = append(infos, v)
	}
	f.t.sortByKey(infos)
	return recordSync{Family: f.tag, Node: f.m.cfg.NodeID, Infos: infos}
}

func (f *recordFamily[V]) counters() (string, FamilyStats) { return f.t.name, f.stats }

// notify fans exact deltas out to the family's subscribers, counting
// them. Hooks run with no locks held.
func (f *recordFamily[V]) notify(kind ChangeType, infos ...V) {
	if len(infos) == 0 {
		return
	}
	f.m.recMu.Lock()
	switch kind {
	case Added:
		f.stats.Added += int64(len(infos))
	case Updated:
		f.stats.Updated += int64(len(infos))
	case Removed:
		f.stats.Removed += int64(len(infos))
	}
	hooks := f.hooks
	f.m.recMu.Unlock()
	for _, fn := range hooks {
		for _, v := range infos {
			fn(Change[V]{Type: kind, Info: v})
		}
	}
}

// admit reports whether a replicated mutation's holder is still a member
// of the current view, counting the mutation in applied when it is and
// as Filtered when it is not. Mutations from departed holders are
// dropped: a message sequenced before the holder's departure but applied
// after it — the view-install flush path — would otherwise resurrect
// dead records on exactly the replicas that buffered it, making
// dead-holder pruning nondeterministic under concurrent view changes. By
// apply time every member has the new view installed, so every member
// drops (or keeps) the same mutations.
func (f *recordFamily[V]) admit(holder string, applied *int64) bool {
	live := f.m.cfg.Member.HasNode(holder)
	f.m.recMu.Lock()
	if live {
		*applied++
	} else {
		f.stats.Filtered++
	}
	f.m.recMu.Unlock()
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
	f.m.dir.mu.Lock()
	existed := f.t.put(v)
	f.m.dir.mu.Unlock()
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
	f.m.dir.mu.Lock()
	v, ok := f.t.remove(key, holder)
	f.m.dir.mu.Unlock()
	if ok {
		f.notify(Removed, v)
	}
}

// applySync applies a replicated authoritative per-holder sync, emitting
// only the exact deltas. A converged replay is silent.
func (f *recordFamily[V]) applySync(holder string, infos any) {
	if !f.admit(holder, &f.stats.Syncs) {
		return
	}
	f.m.dir.mu.Lock()
	added, updated, removed := f.t.replaceOf(holder, infos.([]V))
	f.m.dir.mu.Unlock()
	if len(added)+len(updated)+len(removed) == 0 {
		f.m.recMu.Lock()
		f.stats.SilentSyncs++
		f.m.recMu.Unlock()
	}
	f.notify(Added, added...)
	f.notify(Updated, updated...)
	f.notify(Removed, removed...)
}

// prune removes, in one pass, every record whose holder left the view,
// then notifies the exact Removed deltas holder by holder in (holder,
// key) order. Every replica prunes the same records from the same view in
// the same order, so directories converge without a broadcast.
func (f *recordFamily[V]) prune(live map[string]bool) {
	f.m.dir.mu.Lock()
	removed := f.t.prune(live)
	f.m.dir.mu.Unlock()
	for len(removed) > 0 {
		n := 1
		for n < len(removed) && f.t.holder(removed[n]) == f.t.holder(removed[0]) {
			n++
		}
		f.m.recMu.Lock()
		f.stats.Pruned += int64(n)
		f.m.recMu.Unlock()
		f.notify(Removed, removed[:n]...)
		removed = removed[n:]
	}
}
