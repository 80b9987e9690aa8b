package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/module"
	"dosgi/internal/vosgi"
)

// extensionKey is the host-framework snapshot extension carrying the
// instance registry.
const extensionKey = "core.instances"

// Errors returned by the manager.
var (
	// ErrInstanceExists is returned when creating a duplicate instance id.
	ErrInstanceExists = errors.New("core: instance already exists")
	// ErrInstanceNotFound is returned for operations on unknown instances.
	ErrInstanceNotFound = errors.New("core: instance not found")
)

// InstanceState is the lifecycle state of a virtual instance.
type InstanceState int

// Instance lifecycle states.
const (
	InstanceCreated InstanceState = iota + 1
	InstanceRunning
	InstanceStopped
	InstanceMigrating
)

func (s InstanceState) String() string {
	switch s {
	case InstanceCreated:
		return "CREATED"
	case InstanceRunning:
		return "RUNNING"
	case InstanceStopped:
		return "STOPPED"
	case InstanceMigrating:
		return "MIGRATING"
	}
	return "UNKNOWN"
}

// Instance is one managed virtual OSGi environment.
type Instance struct {
	mgr *Manager

	mu    sync.Mutex
	desc  Descriptor
	state InstanceState
	vf    *vosgi.VirtualFramework
}

// ID returns the instance id.
func (i *Instance) ID() InstanceID { return i.desc.ID }

// Descriptor returns a copy of the descriptor.
func (i *Instance) Descriptor() Descriptor {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.desc
}

// State returns the lifecycle state.
func (i *Instance) State() InstanceState {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.state
}

// Virtual returns the underlying virtual framework.
func (i *Instance) Virtual() *vosgi.VirtualFramework {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.vf
}

// EventType enumerates instance lifecycle events.
type EventType int

// Instance lifecycle events.
const (
	EventCreated EventType = iota + 1
	EventStarted
	EventStopped
	EventDestroyed
	EventRestored
)

func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "CREATED"
	case EventStarted:
		return "STARTED"
	case EventStopped:
		return "STOPPED"
	case EventDestroyed:
		return "DESTROYED"
	case EventRestored:
		return "RESTORED"
	}
	return "UNKNOWN"
}

// Event notifies listeners of instance lifecycle transitions.
type Event struct {
	Type     EventType
	Instance *Instance
}

// Hooks let the hosting node participate in instance lifecycle: binding
// resource domains, network endpoints and security policies. Any hook may
// be nil.
type Hooks struct {
	// OnCreate runs before the instance is first exposed; failing aborts
	// creation.
	OnCreate func(*Instance) error
	// OnStart runs before the virtual framework starts; failing aborts the
	// start.
	OnStart func(*Instance) error
	// OnStop runs after the virtual framework stopped.
	OnStop func(*Instance) error
	// OnDestroy runs before the instance is removed.
	OnDestroy func(*Instance) error
}

// Manager is the Instance Manager: the registry and lifecycle driver of
// every virtual instance on one node.
type Manager struct {
	host  *module.Framework
	hooks Hooks

	mu        sync.Mutex
	instances map[InstanceID]*Instance
	listeners []func(Event)
}

// NewManager builds a manager embedded in the host framework.
func NewManager(host *module.Framework, hooks Hooks) *Manager {
	return &Manager{
		host:      host,
		hooks:     hooks,
		instances: make(map[InstanceID]*Instance),
	}
}

// Host returns the underlying framework.
func (m *Manager) Host() *module.Framework { return m.host }

// OnEvent subscribes to lifecycle events.
func (m *Manager) OnEvent(fn func(Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, fn)
}

func (m *Manager) emit(ev Event) {
	m.mu.Lock()
	listeners := append(make([]func(Event), 0, len(m.listeners)), m.listeners...)
	m.mu.Unlock()
	for _, fn := range listeners {
		fn(ev)
	}
}

// Create registers a new virtual instance from desc. The instance starts
// in the CREATED state; call Start to run it.
func (m *Manager) Create(desc Descriptor) (*Instance, error) {
	return m.create(desc, nil)
}

// RestoreInstance rebuilds an instance from a checkpoint, typically taken
// on another node. When start is true and the checkpoint was running, the
// instance resumes immediately.
func (m *Manager) RestoreInstance(chk *Checkpoint, start bool) (*Instance, error) {
	inst, err := m.create(chk.Descriptor, chk.Snapshot)
	if err != nil {
		return nil, err
	}
	m.emit(Event{Type: EventRestored, Instance: inst})
	if start && chk.Running {
		if err := m.Start(inst.ID()); err != nil {
			return inst, err
		}
	}
	return inst, nil
}

func (m *Manager) create(desc Descriptor, snap *module.Snapshot) (*Instance, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if _, dup := m.instances[desc.ID]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrInstanceExists, desc.ID)
	}
	m.mu.Unlock()

	policy := vosgi.SharePolicy{
		Packages: append([]string(nil), desc.SharedPackages...),
		Services: append([]string(nil), desc.SharedServices...),
	}
	var vf *vosgi.VirtualFramework
	var err error
	if snap != nil {
		vf, err = vosgi.Restore(string(desc.ID), m.host, policy, snap)
	} else {
		vf, err = vosgi.New(string(desc.ID), m.host, policy)
	}
	if err != nil {
		return nil, err
	}
	inst := &Instance{mgr: m, desc: desc, state: InstanceCreated, vf: vf}
	if m.hooks.OnCreate != nil {
		if err := m.hooks.OnCreate(inst); err != nil {
			return nil, fmt.Errorf("core: create hook for %s: %w", desc.ID, err)
		}
	}
	m.mu.Lock()
	if _, dup := m.instances[desc.ID]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrInstanceExists, desc.ID)
	}
	m.instances[desc.ID] = inst
	m.mu.Unlock()
	m.emit(Event{Type: EventCreated, Instance: inst})
	return inst, nil
}

// Get returns an instance by id.
func (m *Manager) Get(id InstanceID) (*Instance, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.instances[id]
	return inst, ok
}

// List returns all instances sorted by id.
func (m *Manager) List() []*Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Instance, 0, len(m.instances))
	for _, inst := range m.instances {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].desc.ID < out[j].desc.ID })
	return out
}

// Start runs an instance: the start hook binds node resources, the virtual
// framework starts, and the descriptor's bundles are installed and started.
func (m *Manager) Start(id InstanceID) error {
	inst, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrInstanceNotFound, id)
	}
	inst.mu.Lock()
	if inst.state == InstanceRunning {
		inst.mu.Unlock()
		return nil
	}
	vf := inst.vf
	desc := inst.desc
	inst.mu.Unlock()

	if m.hooks.OnStart != nil {
		if err := m.hooks.OnStart(inst); err != nil {
			return fmt.Errorf("core: start hook for %s: %w", id, err)
		}
	}
	if err := vf.Start(); err != nil {
		return err
	}
	child := vf.Framework()
	for _, spec := range desc.Bundles {
		b, ok := child.GetBundleByLocation(spec.Location)
		if !ok {
			var err error
			b, err = child.InstallBundle(spec.Location)
			if err != nil {
				return fmt.Errorf("core: installing %s into %s: %w", spec.Location, id, err)
			}
			if spec.StartLevel > 0 {
				if err := b.SetStartLevel(spec.StartLevel); err != nil {
					return err
				}
			}
		}
		if spec.Start {
			if err := b.Start(); err != nil {
				return fmt.Errorf("core: starting %s in %s: %w", spec.Location, id, err)
			}
		}
	}
	inst.mu.Lock()
	inst.state = InstanceRunning
	inst.mu.Unlock()
	m.emit(Event{Type: EventStarted, Instance: inst})
	return nil
}

// Stop halts an instance, retaining its state for a later Start or
// Checkpoint.
func (m *Manager) Stop(id InstanceID) error {
	inst, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrInstanceNotFound, id)
	}
	inst.mu.Lock()
	if inst.state != InstanceRunning {
		inst.mu.Unlock()
		return nil
	}
	vf := inst.vf
	inst.mu.Unlock()

	if err := vf.Stop(); err != nil {
		return err
	}
	if m.hooks.OnStop != nil {
		if err := m.hooks.OnStop(inst); err != nil {
			return err
		}
	}
	inst.mu.Lock()
	inst.state = InstanceStopped
	inst.mu.Unlock()
	m.emit(Event{Type: EventStopped, Instance: inst})
	return nil
}

// Destroy stops (if needed) and removes an instance.
func (m *Manager) Destroy(id InstanceID) error {
	inst, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrInstanceNotFound, id)
	}
	if inst.State() == InstanceRunning {
		if err := m.Stop(id); err != nil {
			return err
		}
	}
	if m.hooks.OnDestroy != nil {
		if err := m.hooks.OnDestroy(inst); err != nil {
			return err
		}
	}
	m.mu.Lock()
	delete(m.instances, id)
	m.mu.Unlock()
	m.emit(Event{Type: EventDestroyed, Instance: inst})
	return nil
}

// Checkpoint captures an instance's descriptor and current framework
// state. The instance keeps running; checkpoint consistency is at the
// bundle-data level, matching the paper's stateful-bundle discussion.
func (m *Manager) Checkpoint(id InstanceID) (*Checkpoint, error) {
	inst, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrInstanceNotFound, id)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return &Checkpoint{
		Descriptor: inst.desc,
		Snapshot:   inst.vf.Snapshot(),
		Running:    inst.state == InstanceRunning,
	}, nil
}

// persistedInstance is the JSON form stored in the host framework's
// snapshot extension.
type persistedInstance struct {
	Checkpoint
}

// PersistNow stores every instance's checkpoint in the host framework's
// extension area, so host framework persistence (per the OSGi spec)
// carries the whole customer population. It is the only writer of the
// extension — lifecycle methods do not refresh it, so deploying k
// instances is not O(k²) — so call it before snapshotting the host
// framework.
func (m *Manager) PersistNow() {
	insts := m.List()
	out := make([]persistedInstance, 0, len(insts))
	for _, inst := range insts {
		inst.mu.Lock()
		out = append(out, persistedInstance{Checkpoint{
			Descriptor: inst.desc,
			Snapshot:   inst.vf.Snapshot(),
			Running:    inst.state == InstanceRunning,
		}})
		inst.mu.Unlock()
	}
	data, err := json.Marshal(out)
	if err != nil {
		return
	}
	m.host.SetExtension(extensionKey, data)
}

// LoadPersisted recreates instances recorded in the host framework's
// extension area (after a host restart from snapshot). Instances that were
// running are restarted when start is true.
func (m *Manager) LoadPersisted(start bool) error {
	data, ok := m.host.Extension(extensionKey)
	if !ok {
		return nil
	}
	var stored []persistedInstance
	if err := json.Unmarshal(data, &stored); err != nil {
		return fmt.Errorf("core: decoding persisted instances: %w", err)
	}
	var firstErr error
	for i := range stored {
		chk := stored[i].Checkpoint
		if _, err := m.RestoreInstance(&chk, start); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
