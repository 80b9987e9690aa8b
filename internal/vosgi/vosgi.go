// Package vosgi implements virtual OSGi instances — the paper's central
// mechanism (§2, Figures 3–4). A VirtualFramework is a nested module
// framework that appears to its bundles as a normal OSGi environment while
// being able to use *explicitly exported* packages and services of the
// underlying framework:
//
//   - class lookup falls through to a delegation hook installed as the
//     topmost element of the child's lookup chain ("when searching for a
//     given class the virtual instance undergoes the normal lookup process
//     and if this fails it checks the custom classloader");
//   - parent services named in the share policy are mirrored into the
//     child's registry and track the parent's registrations dynamically.
//
// Nothing crosses the boundary unless the administrator listed it — the
// safety property the paper claims ("no namespace and service references
// can be accessed without the explicit instruction of the administrator").
package vosgi

import (
	"fmt"
	"sync"

	"dosgi/internal/manifest"
	"dosgi/internal/module"
)

// Mirrored-service property keys.
const (
	// PropImported marks a child registration as a mirror of a parent
	// service.
	PropImported = "vosgi.imported"
	// PropParentServiceID carries the parent-side service.id of a mirror.
	PropParentServiceID = "vosgi.parent.service.id"
)

// SharePolicy is the delegation descriptor: what the administrator
// explicitly exports from the underlying framework into a virtual instance.
type SharePolicy struct {
	// Packages lists package patterns (exact, "prefix.*" or "*") whose
	// classes the child may load from the parent.
	Packages []string
	// Services lists service class names mirrored into the child registry.
	Services []string
}

// AllowsPackage reports whether pkg is delegated.
func (p SharePolicy) AllowsPackage(pkg string) bool {
	for _, pattern := range p.Packages {
		if manifest.MatchesPattern(pattern, pkg) {
			return true
		}
	}
	return false
}

// AllowsService reports whether any of classes is mirrored.
func (p SharePolicy) AllowsService(classes []string) bool {
	for _, want := range p.Services {
		for _, c := range classes {
			if c == want {
				return true
			}
		}
	}
	return false
}

// VirtualFramework is one customer's sandboxed OSGi environment hosted
// inside a parent framework.
type VirtualFramework struct {
	name   string
	parent *module.Framework
	policy SharePolicy

	mu      sync.Mutex
	child   *module.Framework
	running bool
	tracker *module.ServiceTracker
	mirrors map[int64]*module.ServiceRegistration // parent service.id -> child mirror
}

// delegate implements module.ParentDelegate for the child framework.
type delegate struct {
	vf *VirtualFramework
}

var _ module.ParentDelegate = (*delegate)(nil)

// DelegateLoadClass implements the explicit-export check followed by the
// parent lookup.
func (d *delegate) DelegateLoadClass(name string) (module.Class, error) {
	pkg := manifest.PackageOf(name)
	if !d.vf.policy.AllowsPackage(pkg) {
		return module.Class{}, &module.ClassNotFoundError{
			Class:  name,
			Bundle: "vosgi:" + d.vf.name,
		}
	}
	return d.vf.parent.LoadExportedClass(name)
}

// New builds a virtual framework named name inside parent, governed by
// policy. The instance is created stopped; call Start.
func New(name string, parent *module.Framework, policy SharePolicy) (*VirtualFramework, error) {
	return build(name, parent, policy, nil)
}

// Restore rebuilds a virtual framework from a snapshot taken with
// Snapshot, typically on a different node. Bundles and their data areas are
// reinstalled from the definition registry; persistently started bundles
// restart on Start.
func Restore(name string, parent *module.Framework, policy SharePolicy, snap *module.Snapshot) (*VirtualFramework, error) {
	if snap == nil {
		return nil, fmt.Errorf("vosgi: nil snapshot for %q", name)
	}
	return build(name, parent, policy, snap)
}

func build(name string, parent *module.Framework, policy SharePolicy, snap *module.Snapshot) (*VirtualFramework, error) {
	if parent == nil {
		return nil, fmt.Errorf("vosgi: nil parent framework for %q", name)
	}
	vf := &VirtualFramework{
		name:    name,
		parent:  parent,
		policy:  policy,
		mirrors: make(map[int64]*module.ServiceRegistration),
	}
	// The child installs from the parent's registry (the shared bundle
	// repository) and targets start level 1, also when restored from a
	// snapshot that recorded another.
	mopts := []module.Option{
		module.WithName("vosgi:" + name),
		module.WithDefinitions(parent.Definitions()),
		module.WithParent(&delegate{vf: vf}),
		module.WithStartLevel(1),
	}
	var child *module.Framework
	var err error
	if snap != nil {
		child, err = module.NewFromSnapshot(snap, mopts...)
		if err != nil {
			return nil, fmt.Errorf("vosgi: restoring %q: %w", name, err)
		}
	} else {
		child = module.New(mopts...)
	}
	child.SetProperty("vosgi.instance", name)
	vf.child = child
	return vf, nil
}

// Name returns the instance name.
func (vf *VirtualFramework) Name() string { return vf.name }

// Parent returns the hosting framework.
func (vf *VirtualFramework) Parent() *module.Framework { return vf.parent }

// Framework returns the child framework. Its bundles and services are the
// customer's sandbox.
func (vf *VirtualFramework) Framework() *module.Framework {
	vf.mu.Lock()
	defer vf.mu.Unlock()
	return vf.child
}

// Policy returns the delegation descriptor.
func (vf *VirtualFramework) Policy() SharePolicy { return vf.policy }

// Running reports whether the instance is started.
func (vf *VirtualFramework) Running() bool {
	vf.mu.Lock()
	defer vf.mu.Unlock()
	return vf.running
}

// Start activates the child framework and begins mirroring the shared
// parent services into it.
func (vf *VirtualFramework) Start() error {
	vf.mu.Lock()
	if vf.running {
		vf.mu.Unlock()
		return nil
	}
	vf.running = true
	child := vf.child
	vf.mu.Unlock()

	if err := child.Start(); err != nil {
		vf.mu.Lock()
		vf.running = false
		vf.mu.Unlock()
		return err
	}
	return vf.openMirrors()
}

// Stop halts mirroring and stops the child framework. The child's
// persistent state (which bundles were started, their data areas) is
// retained for Snapshot.
func (vf *VirtualFramework) Stop() error {
	vf.mu.Lock()
	if !vf.running {
		vf.mu.Unlock()
		return nil
	}
	vf.running = false
	tracker := vf.tracker
	vf.tracker = nil
	mirrors := vf.mirrors
	vf.mirrors = make(map[int64]*module.ServiceRegistration)
	child := vf.child
	vf.mu.Unlock()

	if tracker != nil {
		tracker.Close()
	}
	for _, reg := range mirrors {
		_ = reg.Unregister()
	}
	return child.Stop()
}

// Snapshot captures the child framework's persistent state for migration.
func (vf *VirtualFramework) Snapshot() *module.Snapshot {
	vf.mu.Lock()
	defer vf.mu.Unlock()
	return vf.child.Snapshot()
}

// openMirrors starts tracking shared parent services.
func (vf *VirtualFramework) openMirrors() error {
	if len(vf.policy.Services) == 0 {
		return nil
	}
	tracker, err := module.NewServiceTracker(vf.parent.SystemContext(), "", "", module.TrackerCallbacks{
		Added:    vf.mirrorAdded,
		Modified: vf.mirrorModified,
		Removed:  vf.mirrorRemoved,
	})
	if err != nil {
		return err
	}
	vf.mu.Lock()
	vf.tracker = tracker
	vf.mu.Unlock()
	return tracker.Open()
}

func (vf *VirtualFramework) mirrorAdded(ref *module.ServiceReference, svc any) {
	classes := ref.Classes()
	if !vf.policy.AllowsService(classes) {
		return
	}
	// Never re-mirror a mirror (parent-side mirrors exist when instances
	// nest).
	if imported, _ := ref.Property(PropImported).(bool); imported {
		return
	}
	props := ref.Properties()
	delete(props, module.PropServiceID)
	delete(props, module.PropObjectClass)
	props[PropImported] = true
	props[PropParentServiceID] = ref.ID()

	vf.mu.Lock()
	child := vf.child
	running := vf.running
	vf.mu.Unlock()
	if !running {
		return
	}
	reg, err := child.SystemContext().RegisterService(classes, svc, module.Properties(props))
	if err != nil {
		return
	}
	vf.mu.Lock()
	vf.mirrors[ref.ID()] = reg
	vf.mu.Unlock()
}

func (vf *VirtualFramework) mirrorModified(ref *module.ServiceReference, svc any) {
	vf.mu.Lock()
	reg, ok := vf.mirrors[ref.ID()]
	vf.mu.Unlock()
	if !ok {
		return
	}
	props := ref.Properties()
	delete(props, module.PropServiceID)
	delete(props, module.PropObjectClass)
	props[PropImported] = true
	props[PropParentServiceID] = ref.ID()
	_ = reg.SetProperties(module.Properties(props))
}

func (vf *VirtualFramework) mirrorRemoved(ref *module.ServiceReference, svc any) {
	vf.mu.Lock()
	reg, ok := vf.mirrors[ref.ID()]
	if ok {
		delete(vf.mirrors, ref.ID())
	}
	vf.mu.Unlock()
	if ok {
		_ = reg.Unregister()
	}
}

// MirrorCount returns the number of parent services currently mirrored.
func (vf *VirtualFramework) MirrorCount() int {
	vf.mu.Lock()
	defer vf.mu.Unlock()
	return len(vf.mirrors)
}
