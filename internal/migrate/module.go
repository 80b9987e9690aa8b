package migrate

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/health"
	"dosgi/internal/san"
)

// EventType enumerates migration-module events.
type EventType int

// Migration events.
const (
	// EventNodeLost fires when a view change removes a node.
	EventNodeLost EventType = iota + 1
	// EventRedeployed fires when this node restored a failed instance.
	EventRedeployed
	// EventMigratedOut fires when a planned migration left this node.
	EventMigratedOut
	// EventMigratedIn fires when a planned migration arrived here.
	EventMigratedIn
	// EventUnplaceable fires when placement found no node for an instance.
	EventUnplaceable
	// EventRestoreFailed fires when this node was assigned a restore but
	// could not make the instance's bundles available (provisioning fetch
	// or verification failed); the instance stays down until the next
	// view change retries placement.
	EventRestoreFailed
)

func (t EventType) String() string {
	switch t {
	case EventNodeLost:
		return "NODE_LOST"
	case EventRedeployed:
		return "REDEPLOYED"
	case EventMigratedOut:
		return "MIGRATED_OUT"
	case EventMigratedIn:
		return "MIGRATED_IN"
	case EventUnplaceable:
		return "UNPLACEABLE"
	case EventRestoreFailed:
		return "RESTORE_FAILED"
	}
	return "UNKNOWN"
}

// Event reports a migration occurrence.
type Event struct {
	Type     EventType
	Instance core.InstanceID
	From     string
	To       string
	At       time.Duration
	// Err carries the cause of a RESTORE_FAILED event.
	Err error
}

// Wire messages (broadcast with Total ordering so every replica applies
// the same directory mutations in the same order).

type instancePut struct{ Info InstanceInfo }

type instanceRemove struct{ ID core.InstanceID }

type nodeAnnounce struct{ Info NodeInfo }

type migrationAnnounce struct {
	Info InstanceInfo // Node already set to the target
	From string
}

// Config wires a migration module into its node.
type Config struct {
	NodeID  string
	Sched   clock.Scheduler
	Member  *gcs.Member
	Store   *san.Store
	Manager *core.Manager
	// CPUCapacity/MemCapacity are announced to the cluster for placement.
	CPUCapacity int64
	MemCapacity int64
	// Mode selects the shortage policy (default BestEffort).
	Mode PlacementMode
	// ResyncEvery is the directory anti-entropy period: the node
	// re-broadcasts its authoritative endpoint AND artifact-holding sets
	// so records lost to a partition blip too short to change the
	// membership view still converge (view changes remain the immediate
	// resync trigger). Replaying an unchanged set fires no hooks in
	// either family, so a converged directory stays silent. 0 means
	// DefaultResyncEvery; negative disables.
	ResyncEvery time.Duration
	// EnsureBundles, when set, runs before a restore to make the given
	// bundle install locations available locally — the provisioning
	// subsystem fetches missing artifacts on demand here, so failover to
	// a node that never held a bundle's artifact transparently fetches
	// first. done must be invoked exactly once; a non-nil error aborts
	// the restore.
	EnsureBundles func(locations []string, done func(error))
}

// DefaultResyncEvery is the default directory anti-entropy period.
const DefaultResyncEvery = 2 * time.Second

// Errors returned by the module.
var (
	// ErrNotStarted is returned for operations before Start.
	ErrNotStarted = errors.New("migrate: module not started")
	// ErrMigrationInProgress is returned when the instance is already
	// moving.
	ErrMigrationInProgress = errors.New("migrate: migration already in progress")
)

// Module is one node's migration agent, and the engine of the
// directory's record families: every family rides cfg.Member beside the
// instance, node and migration traffic.
type Module struct {
	cfg Config
	dir *Directory

	// recMu pins record broadcasts' submission order to local mutation
	// order (see recordFamily.announce) and guards the families' owned
	// sets, hooks and counters, announced and resyncTimer.
	recMu       sync.Mutex
	announced   bool
	resyncTimer clock.Timer
	// fams holds every record family in wire-tag order; eps, arts and
	// hlth are the same families, typed for the per-family API.
	fams []familyEngine
	eps  *recordFamily[EndpointInfo]
	arts *recordFamily[ArtifactInfo]
	hlth *recordFamily[health.Record]

	mu        sync.Mutex
	started   bool
	migrating map[core.InstanceID]bool
	listeners []func(Event)
}

// NewModule builds the module; call Start *before* starting the group
// member so no view change is missed.
func NewModule(cfg Config) (*Module, error) {
	if cfg.NodeID == "" || cfg.Sched == nil || cfg.Member == nil || cfg.Store == nil || cfg.Manager == nil {
		return nil, errors.New("migrate: incomplete config")
	}
	if cfg.Mode == 0 {
		cfg.Mode = BestEffort
	}
	if cfg.ResyncEvery == 0 {
		cfg.ResyncEvery = DefaultResyncEvery
	}
	m := &Module{
		cfg:       cfg,
		dir:       NewDirectory(),
		migrating: make(map[core.InstanceID]bool),
	}
	m.eps = addFamily(m, m.dir.endpoints)
	m.arts = addFamily(m, m.dir.artifacts)
	m.hlth = addFamily(m, m.dir.healths)
	return m, nil
}

// Directory returns this node's replica of the cluster directory.
func (m *Module) Directory() *Directory { return m.dir }

// OnEvent subscribes to migration events.
func (m *Module) OnEvent(fn func(Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, fn)
}

func (m *Module) emit(ev Event) {
	m.mu.Lock()
	listeners := append(make([]func(Event), 0, len(m.listeners)), m.listeners...)
	m.mu.Unlock()
	for _, fn := range listeners {
		fn(ev)
	}
}

// Start hooks the module into the group member and the instance manager
// and starts the record families' anti-entropy timer.
func (m *Module) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return nil
	}
	m.started = true
	m.mu.Unlock()

	m.cfg.Member.OnViewChange(m.onView)
	m.cfg.Member.OnDeliver(m.onDeliver)
	m.cfg.Manager.OnEvent(m.onInstanceEvent)
	if m.cfg.ResyncEvery > 0 {
		m.recMu.Lock()
		m.resyncTimer = m.cfg.Sched.Every(m.cfg.ResyncEvery, m.antiEntropy)
		m.recMu.Unlock()
	}
	return nil
}

// Stop halts the anti-entropy timer (the group member is stopped
// separately, usually through Shutdown).
func (m *Module) Stop() {
	m.mu.Lock()
	m.started = false
	m.mu.Unlock()
	m.recMu.Lock()
	if m.resyncTimer != nil {
		m.resyncTimer.Cancel()
		m.resyncTimer = nil
	}
	m.recMu.Unlock()
}

// CheckpointPath returns the SAN location of an instance's state.
func CheckpointPath(id core.InstanceID) string {
	return san.Join("instances", string(id), "checkpoint")
}

// buildInfo derives the directory record from a live instance.
func (m *Module) buildInfo(inst *core.Instance) InstanceInfo {
	desc := inst.Descriptor()
	return InstanceInfo{
		ID:             desc.ID,
		Node:           m.cfg.NodeID,
		CPU:            desc.Resources.CPUMillicores,
		Memory:         desc.Resources.MemoryBytes,
		Priority:       desc.Resources.Priority,
		CheckpointPath: CheckpointPath(desc.ID),
		Running:        inst.State() == core.InstanceRunning,
	}
}

// broadcast sends a totally-ordered message on the group, silently
// dropping it when the member is not yet in a view (the first view
// announce re-publishes everything).
func (m *Module) broadcast(body any) {
	_ = m.cfg.Member.Broadcast(body, gcs.Total)
}

// broadcastSyncsLocked broadcasts every family's authoritative record
// set. It runs under recMu: a sync submitted after a concurrent announce
// or withdraw must reflect it, or total-order sequencing could apply the
// stale snapshot last.
func (m *Module) broadcastSyncsLocked() {
	for _, f := range m.fams {
		m.broadcast(f.syncMsg())
	}
}

// antiEntropy re-broadcasts the authoritative record sets on the
// module's timer, once the first view has announced them. Exact deltas
// mean a converged directory produces no events.
func (m *Module) antiEntropy() {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	if m.announced {
		m.broadcastSyncsLocked()
	}
}

// AnnounceEndpoint records and broadcasts a remotely invocable service
// exported by this node's host framework (the remote.Exporter hook calls
// it). Addr is the node's remote-services listener, "ip:port".
func (m *Module) AnnounceEndpoint(service, addr string) {
	m.AnnounceEndpointFor(service, addr, "")
}

// AnnounceEndpointFor records and broadcasts a remotely invocable service
// exported by the named virtual instance on this node ("" for host-level
// exports). Re-announcing an existing (service, node) record surfaces as
// an UPDATED endpoint change — a MODIFIED service event — on every node.
func (m *Module) AnnounceEndpointFor(service, addr, instance string) {
	m.eps.announce(EndpointInfo{Service: service, Node: m.cfg.NodeID, Addr: addr, Instance: instance})
}

// WithdrawEndpoint broadcasts that this node's host framework stopped
// exporting service.
func (m *Module) WithdrawEndpoint(service string) {
	m.WithdrawEndpointFor(service, "")
}

// WithdrawEndpointFor withdraws service only when this node's current
// record is owned by instance. Host and instance exports share the
// per-node service namespace (the directory keys records by (service,
// node)); the ownership check keeps a stale withdrawal — say, a stopped
// instance whose export name collides with a live host export — from
// erasing the surviving owner's record cluster-wide.
func (m *Module) WithdrawEndpointFor(service, instance string) {
	m.eps.withdraw(service, func(e EndpointInfo) bool { return e.Instance == instance })
}

// AnnounceArtifact records and broadcasts that this node holds a copy of
// the artifact (the provisioning repository calls it after a publish or a
// verified fetch).
func (m *Module) AnnounceArtifact(info ArtifactInfo) {
	info.Node = m.cfg.NodeID
	m.arts.announce(info)
}

// WithdrawArtifact broadcasts that this node no longer holds the artifact.
func (m *Module) WithdrawArtifact(digest string) {
	m.arts.withdraw(digest, nil)
}

// AnnounceHealth records and broadcasts this node's health for one
// component (the health evaluator's transition bridge calls it). The
// node field is stamped here: a node only ever speaks for itself.
func (m *Module) AnnounceHealth(rec health.Record) {
	rec.Node = m.cfg.NodeID
	m.hlth.announce(rec)
}

// WithdrawHealth broadcasts that this node no longer reports health for
// component (e.g. the watched subsystem was torn down).
func (m *Module) WithdrawHealth(component string) {
	m.hlth.withdraw(component, nil)
}

// OnArtifactChange subscribes to replicated artifact-record changes. The
// deltas are exact — a converged anti-entropy resync fires nothing — so
// subscribers (replication duty, provisioning caches) can trust every
// delivered change to be a real one instead of re-scanning the whole
// index on every hook.
func (m *Module) OnArtifactChange(fn func(ArtifactChange)) {
	m.arts.subscribe(fn)
}

// OnEndpointChange subscribes to replicated endpoint-record changes. The
// deltas are exact: resyncs replaying unchanged records fire nothing, so
// a subscriber bridging these changes onto the remote event stream never
// emits duplicates after a partition heals.
func (m *Module) OnEndpointChange(fn func(EndpointChange)) {
	m.eps.subscribe(fn)
}

// OnHealthChange subscribes to replicated health-record changes. The
// deltas are exact — steady-state health and converged resyncs fire
// nothing — so subscribers (alert bridges, autonomic rules) can treat
// every delivered change as a real state transition or arrival.
func (m *Module) OnHealthChange(fn func(HealthChange)) {
	m.hlth.subscribe(fn)
}

// DirectoryStats returns every record family's directory counters, keyed
// by family name ("endpoint", "artifact", "health") — the attribute
// prefixes of the directory:<node> metrics.
func (m *Module) DirectoryStats() map[string]FamilyStats {
	out := make(map[string]FamilyStats, len(m.fams))
	m.recMu.Lock()
	for _, f := range m.fams {
		name, st := f.counters()
		out[name] = st
	}
	m.recMu.Unlock()
	return out
}

// EndpointStats returns the endpoint family's directory counters.
func (m *Module) EndpointStats() FamilyStats { return m.DirectoryStats()[endpointFamily.name] }

// ArtifactStats returns the artifact family's directory counters.
func (m *Module) ArtifactStats() FamilyStats { return m.DirectoryStats()[artifactFamily.name] }

// HealthStats returns the health family's directory counters.
func (m *Module) HealthStats() FamilyStats { return m.DirectoryStats()[healthFamily.name] }

// onView reacts to membership changes. The record families go first:
// every family re-broadcasts its authoritative set (anti-entropy against
// partitioned withdrawals) and deterministically prunes records whose
// holders left the view, so placement below reads a resynced directory.
// Then (re-)announcement and crash redeployment: announcing on every
// view keeps directories convergent across the singleton-view merges
// that happen at cluster startup and after healed partitions.
func (m *Module) onView(v gcs.View) {
	memberSet := make(map[string]bool, len(v.Members))
	for _, id := range v.Members {
		memberSet[id] = true
	}
	m.recMu.Lock()
	m.announced = true
	m.broadcastSyncsLocked()
	m.recMu.Unlock()
	for _, f := range m.fams {
		f.prune(memberSet)
	}

	m.broadcast(nodeAnnounce{Info: NodeInfo{
		Node:        m.cfg.NodeID,
		CPUCapacity: m.cfg.CPUCapacity,
		MemCapacity: m.cfg.MemCapacity,
	}})
	for _, inst := range m.cfg.Manager.List() {
		m.mu.Lock()
		moving := m.migrating[inst.ID()]
		m.mu.Unlock()
		if moving {
			continue
		}
		m.broadcast(instancePut{Info: m.buildInfo(inst)})
		m.writeCheckpoint(inst.ID())
	}

	// Which hosting nodes disappeared?
	lostNodes := make(map[string]bool)
	var failed []InstanceInfo
	for _, info := range m.dir.Instances() {
		if info.Node != "" && !memberSet[info.Node] {
			lostNodes[info.Node] = true
			failed = append(failed, info)
		}
	}
	if len(failed) == 0 {
		return
	}
	now := m.cfg.Sched.Now()
	for node := range lostNodes {
		m.emit(Event{Type: EventNodeLost, From: node, At: now})
	}

	// Decentralized placement: every survivor computes the same assignment
	// from the same directory and view.
	loads := m.dir.Loads(v.Members)
	assigned, unplaced := Place(failed, loads, m.cfg.Mode)
	for _, info := range failed {
		if target, ok := assigned[info.ID]; ok {
			moved := info
			moved.Node = target
			m.dir.PutInstance(moved)
			if target == m.cfg.NodeID {
				m.restoreFromStore(moved, EventRedeployed, info.Node)
			}
		}
	}
	for _, id := range unplaced {
		info, _ := m.dir.Instance(id)
		info.Node = ""
		info.Running = false
		m.dir.PutInstance(info)
		m.emit(Event{Type: EventUnplaceable, Instance: id, At: now})
	}
}

// restoreFromStore pulls the checkpoint from the SAN and revives the
// instance locally.
func (m *Module) restoreFromStore(info InstanceInfo, kind EventType, from string) {
	m.cfg.Store.GetAsync(info.CheckpointPath, func(data []byte, err error) {
		if err != nil {
			return
		}
		chk, err := core.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		revive := func() {
			if _, exists := m.cfg.Manager.Get(info.ID); exists {
				return
			}
			start := chk.Running || info.Running
			if _, err := m.cfg.Manager.RestoreInstance(chk, start); err != nil {
				return
			}
			m.emit(Event{Type: kind, Instance: info.ID, From: from, To: m.cfg.NodeID, At: m.cfg.Sched.Now()})
		}
		if m.cfg.EnsureBundles == nil {
			revive()
			return
		}
		// Fetch missing bundle artifacts before the restore: the union of
		// the descriptor's bundle list and the snapshot's installed set
		// covers bundles installed after creation.
		m.cfg.EnsureBundles(checkpointLocations(chk), func(err error) {
			if err != nil {
				m.emit(Event{
					Type: EventRestoreFailed, Instance: info.ID,
					From: from, To: m.cfg.NodeID,
					At: m.cfg.Sched.Now(), Err: err,
				})
				return
			}
			revive()
		})
	})
}

// checkpointLocations returns the bundle install locations a checkpoint
// needs, deduplicated, in first-seen order.
func checkpointLocations(chk *core.Checkpoint) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(loc string) {
		if loc != "" && !seen[loc] {
			seen[loc] = true
			out = append(out, loc)
		}
	}
	for _, b := range chk.Descriptor.Bundles {
		add(b.Location)
	}
	if chk.Snapshot != nil {
		for _, b := range chk.Snapshot.Bundles {
			add(b.Location)
		}
	}
	return out
}

// onDeliver applies replicated record mutations, instance and node
// updates and migration handoffs.
func (m *Module) onDeliver(msg gcs.Message) {
	switch body := msg.Body.(type) {
	case recordPut:
		m.fams[body.Family].applyPut(body.Info)
	case recordRemove:
		m.fams[body.Family].applyRemove(body.Key, body.Node)
	case recordSync:
		m.fams[body.Family].applySync(body.Node, body.Infos)
	case nodeAnnounce:
		m.dir.PutNode(body.Info)
	case instancePut:
		m.dir.PutInstance(body.Info)
	case instanceRemove:
		m.dir.RemoveInstance(body.ID)
	case migrationAnnounce:
		m.dir.PutInstance(body.Info)
		if body.From == m.cfg.NodeID {
			// Self-delivery: the handoff is sequenced and fanned out to
			// every member; the outbound migration is complete.
			m.clearMigrating(body.Info.ID)
			m.emit(Event{
				Type:     EventMigratedOut,
				Instance: body.Info.ID,
				From:     m.cfg.NodeID,
				To:       body.Info.Node,
				At:       m.cfg.Sched.Now(),
			})
			return
		}
		if body.Info.Node == m.cfg.NodeID {
			m.restoreFromStore(body.Info, EventMigratedIn, body.From)
		}
	}
}

// onInstanceEvent mirrors local lifecycle changes into the replicated
// directory and the SAN.
func (m *Module) onInstanceEvent(ev core.Event) {
	id := ev.Instance.ID()
	m.mu.Lock()
	moving := m.migrating[id]
	m.mu.Unlock()
	if moving {
		return // handoff messages carry the truth during migration
	}
	switch ev.Type {
	case core.EventCreated, core.EventStarted, core.EventStopped, core.EventRestored:
		m.broadcast(instancePut{Info: m.buildInfo(ev.Instance)})
		m.writeCheckpoint(id)
	case core.EventDestroyed:
		m.broadcast(instanceRemove{ID: id})
	}
}

// writeCheckpoint persists an instance's current state to the SAN.
func (m *Module) writeCheckpoint(id core.InstanceID) {
	chk, err := m.cfg.Manager.Checkpoint(id)
	if err != nil {
		return
	}
	data, err := chk.Encode()
	if err != nil {
		return
	}
	m.cfg.Store.PutAsync(CheckpointPath(id), data, nil)
}

// Migrate performs a planned stop-and-copy migration of a local instance
// to target: checkpoint → SAN → local destroy → totally-ordered handoff →
// target restore. The call is asynchronous; completion surfaces as
// MigratedOut here and MigratedIn on the target.
func (m *Module) Migrate(id core.InstanceID, target string) error {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return ErrNotStarted
	}
	if m.migrating[id] {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrMigrationInProgress, id)
	}
	m.migrating[id] = true
	m.mu.Unlock()

	inst, ok := m.cfg.Manager.Get(id)
	if !ok {
		m.clearMigrating(id)
		return fmt.Errorf("%w: %s", core.ErrInstanceNotFound, id)
	}
	info := m.buildInfo(inst)
	chk, err := m.cfg.Manager.Checkpoint(id)
	if err != nil {
		m.clearMigrating(id)
		return err
	}
	data, err := chk.Encode()
	if err != nil {
		m.clearMigrating(id)
		return err
	}
	m.cfg.Store.PutAsync(info.CheckpointPath, data, func(int64) {
		// Downtime begins: the instance stops serving here. MigratedOut is
		// emitted on self-delivery of the handoff broadcast, which proves
		// the announcement was sequenced before any group teardown.
		_ = m.cfg.Manager.Destroy(id)
		handoff := info
		handoff.Node = target
		m.broadcast(migrationAnnounce{Info: handoff, From: m.cfg.NodeID})
	})
	return nil
}

func (m *Module) clearMigrating(id core.InstanceID) {
	m.mu.Lock()
	delete(m.migrating, id)
	m.mu.Unlock()
}

// Shutdown gracefully drains the node: every local instance migrates to
// the least-loaded other member, then the group member leaves cleanly, so
// the remaining nodes never see these instances as failed. onDone fires
// after the member has left.
func (m *Module) Shutdown(onDone func()) error {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return ErrNotStarted
	}
	m.mu.Unlock()

	view := m.cfg.Member.View()
	var others []string
	for _, id := range view.Members {
		if id != m.cfg.NodeID {
			others = append(others, id)
		}
	}
	local := m.cfg.Manager.List()
	finish := func() {
		_ = m.cfg.Member.Stop()
		m.Stop()
		if onDone != nil {
			onDone()
		}
	}
	if len(local) == 0 || len(others) == 0 {
		// Nothing to drain (or nowhere to drain to — instances stay down
		// but their checkpoints survive on the SAN).
		finish()
		return nil
	}

	remaining := len(local)
	var mu sync.Mutex
	m.OnEvent(func(ev Event) {
		if ev.Type != EventMigratedOut {
			return
		}
		mu.Lock()
		remaining--
		last := remaining == 0
		mu.Unlock()
		if last {
			finish()
		}
	})
	loads := m.dir.Loads(others)
	for _, inst := range local {
		target := LeastLoaded(loads)
		if target == "" {
			target = others[0]
		}
		// Track the drain target's growing load locally for sensible
		// spreading.
		for i := range loads {
			if loads[i].Node == target {
				loads[i].CPUUsed += inst.Descriptor().Resources.CPUMillicores
				loads[i].MemUsed += inst.Descriptor().Resources.MemoryBytes
			}
		}
		if err := m.Migrate(inst.ID(), target); err != nil {
			mu.Lock()
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				finish()
			}
		}
	}
	return nil
}
