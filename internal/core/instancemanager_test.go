package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dosgi/internal/module"
)

// newHost builds a started host framework with a base bundle (exported
// package + shared service) and a tenant bundle definition.
func newHost(t *testing.T) *module.Framework {
	t.Helper()
	defs := module.NewDefinitionRegistry()
	defs.MustAdd("loc:base", &module.Definition{
		ManifestText: `Bundle-SymbolicName: com.base
Bundle-Version: 1.0.0
Bundle-Activator: com.base.Activator
Export-Package: com.base
`,
		Classes: map[string]any{"com.base.Shared": "shared"},
		NewActivator: func() module.Activator {
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					_, err := ctx.RegisterSingle("base.LogService", "log-impl", nil)
					return err
				},
			}
		},
	})
	defs.MustAdd("loc:tenant-app", &module.Definition{
		ManifestText: `Bundle-SymbolicName: com.tenant.app
Bundle-Version: 1.0.0
Bundle-Activator: com.tenant.app.Activator
`,
		Classes: map[string]any{"com.tenant.app.Main": "main"},
		NewActivator: func() module.Activator {
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					_, err := ctx.RegisterSingle("tenant.Api", "api-impl", nil)
					return err
				},
			}
		},
	})
	host := module.New(module.WithName("host"), module.WithDefinitions(defs))
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	base, err := host.InstallBundle("loc:base")
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Start(); err != nil {
		t.Fatal(err)
	}
	return host
}

func tenantDescriptor(id InstanceID) Descriptor {
	return Descriptor{
		ID:       id,
		Customer: "acme",
		Bundles: []BundleSpec{
			{Location: "loc:tenant-app", Start: true},
		},
		SharedPackages: []string{"com.base"},
		SharedServices: []string{"base.LogService"},
		Resources:      ResourceSpec{CPUMillicores: 500, MemoryBytes: 64 << 20, Weight: 1},
	}
}

func TestCreateStartStopDestroy(t *testing.T) {
	host := newHost(t)
	var events []EventType
	mgr := NewManager(host, Hooks{})
	mgr.OnEvent(func(ev Event) { events = append(events, ev.Type) })

	inst, err := mgr.Create(tenantDescriptor("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	if inst.State() != InstanceCreated {
		t.Fatalf("state = %v", inst.State())
	}
	if err := mgr.Start("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if inst.State() != InstanceRunning {
		t.Fatalf("state = %v", inst.State())
	}

	// The descriptor's bundle is installed, started, and registered its
	// service inside the child.
	child := inst.Virtual().Framework()
	b, ok := child.GetBundleByLocation("loc:tenant-app")
	if !ok || b.State() != module.StateActive {
		t.Fatalf("tenant bundle: ok=%v state=%v", ok, b.State())
	}
	if _, ok := child.SystemContext().ServiceReference("tenant.Api"); !ok {
		t.Fatal("tenant service missing")
	}
	// Shared service mirrored; shared package loadable.
	if _, ok := child.SystemContext().ServiceReference("base.LogService"); !ok {
		t.Fatal("shared service not mirrored")
	}
	cls, err := b.LoadClass("com.base.Shared")
	if err != nil || cls.Value != "shared" {
		t.Fatalf("shared class: %v, %v", cls, err)
	}

	// Idempotent start.
	if err := mgr.Start("tenant-a"); err != nil {
		t.Fatal(err)
	}

	if err := mgr.Stop("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if inst.State() != InstanceStopped {
		t.Fatalf("state = %v", inst.State())
	}
	if err := mgr.Destroy("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.Get("tenant-a"); ok {
		t.Fatal("destroyed instance still listed")
	}

	want := []EventType{EventCreated, EventStarted, EventStopped, EventDestroyed}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	mgr := NewManager(newHost(t), Hooks{})
	if _, err := mgr.Create(Descriptor{}); err == nil {
		t.Fatal("empty descriptor accepted")
	}
	if _, err := mgr.Create(Descriptor{ID: "x"}); err == nil {
		t.Fatal("descriptor without customer accepted")
	}
	if _, err := mgr.Create(tenantDescriptor("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(tenantDescriptor("dup")); !errors.Is(err, ErrInstanceExists) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestLifecycleOfUnknownInstance(t *testing.T) {
	mgr := NewManager(newHost(t), Hooks{})
	if err := mgr.Start("ghost"); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Start ghost = %v", err)
	}
	if err := mgr.Stop("ghost"); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Stop ghost = %v", err)
	}
	if err := mgr.Destroy("ghost"); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Destroy ghost = %v", err)
	}
	if _, err := mgr.Checkpoint("ghost"); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Checkpoint ghost = %v", err)
	}
}

func TestHooksAreCalled(t *testing.T) {
	var calls []string
	hooks := Hooks{
		OnCreate:  func(i *Instance) error { calls = append(calls, "create"); return nil },
		OnStart:   func(i *Instance) error { calls = append(calls, "start"); return nil },
		OnStop:    func(i *Instance) error { calls = append(calls, "stop"); return nil },
		OnDestroy: func(i *Instance) error { calls = append(calls, "destroy"); return nil },
	}
	mgr := NewManager(newHost(t), hooks)
	if _, err := mgr.Create(tenantDescriptor("t")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start("t"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Destroy("t"); err != nil {
		t.Fatal(err)
	}
	want := []string{"create", "start", "stop", "destroy"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v", calls)
		}
	}
}

func TestFailingCreateHookAbortsCreation(t *testing.T) {
	mgr := NewManager(newHost(t), Hooks{
		OnCreate: func(*Instance) error { return errors.New("no capacity") },
	})
	if _, err := mgr.Create(tenantDescriptor("t")); err == nil {
		t.Fatal("create succeeded despite hook failure")
	}
	if _, ok := mgr.Get("t"); ok {
		t.Fatal("failed instance registered")
	}
}

func TestCheckpointRestoreOnOtherHost(t *testing.T) {
	hostA := newHost(t)
	mgrA := NewManager(hostA, Hooks{})
	if _, err := mgrA.Create(tenantDescriptor("tenant-a")); err != nil {
		t.Fatal(err)
	}
	if err := mgrA.Start("tenant-a"); err != nil {
		t.Fatal(err)
	}
	// Write tenant state into the child's bundle data area.
	instA, _ := mgrA.Get("tenant-a")
	b, _ := instA.Virtual().Framework().GetBundleByLocation("loc:tenant-app")
	if err := b.DataPut("sessions", []byte("42 users")); err != nil {
		t.Fatal(err)
	}

	chk, err := mgrA.Checkpoint("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := chk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(encoded)
	if err != nil {
		t.Fatal(err)
	}

	// "Migrate" to host B.
	hostB := newHost(t)
	mgrB := NewManager(hostB, Hooks{})
	instB, err := mgrB.RestoreInstance(decoded, true)
	if err != nil {
		t.Fatal(err)
	}
	if instB.State() != InstanceRunning {
		t.Fatalf("restored state = %v", instB.State())
	}
	b2, ok := instB.Virtual().Framework().GetBundleByLocation("loc:tenant-app")
	if !ok || b2.State() != module.StateActive {
		t.Fatal("tenant bundle not running after restore")
	}
	data, ok := b2.DataGet("sessions")
	if !ok || string(data) != "42 users" {
		t.Fatalf("bundle state lost: %q", data)
	}
	// Mirrors work against the new host.
	if _, ok := instB.Virtual().Framework().SystemContext().ServiceReference("base.LogService"); !ok {
		t.Fatal("shared service missing after restore")
	}
}

func TestPersistAndLoadThroughHostSnapshot(t *testing.T) {
	// Full node-restart scenario: host framework snapshot carries the
	// instance registry extension.
	defs := module.NewDefinitionRegistry()
	host := newHost(t)
	for _, loc := range host.Definitions().Locations() {
		d, _ := host.Definitions().Get(loc)
		defs.MustAdd(loc, d)
	}
	mgr := NewManager(host, Hooks{})
	if _, err := mgr.Create(tenantDescriptor("tenant-a")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start("tenant-a"); err != nil {
		t.Fatal(err)
	}
	mgr.PersistNow()
	hostSnap := host.Snapshot()

	// Restart: rebuild host from snapshot, then load persisted instances.
	host2, err := module.NewFromSnapshot(hostSnap, module.WithDefinitions(defs))
	if err != nil {
		t.Fatal(err)
	}
	if err := host2.Start(); err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(host2, Hooks{})
	if err := mgr2.LoadPersisted(true); err != nil {
		t.Fatal(err)
	}
	inst, ok := mgr2.Get("tenant-a")
	if !ok {
		t.Fatal("instance lost across host restart")
	}
	if inst.State() != InstanceRunning {
		t.Fatalf("state = %v, want RUNNING (was running at snapshot)", inst.State())
	}
}

// TestCreateStartCostIndependentOfPopulation: bringing up one more
// instance costs about the same however many the node already runs — the
// lifecycle path does not re-encode the whole population. At k = 32 a
// per-event re-encode costs the last instance 3.3 times the first.
func TestCreateStartCostIndependentOfPopulation(t *testing.T) {
	mgr := NewManager(newHost(t), Hooks{})
	var first, last uint64
	const k = 32
	for i := 1; i <= k; i++ {
		id := InstanceID(fmt.Sprintf("tenant-%02d", i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := mgr.Create(tenantDescriptor(id)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Start(id); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		switch cost := after.TotalAlloc - before.TotalAlloc; i {
		case 1:
			first = cost
		case k:
			last = cost
		}
	}
	t.Logf("Create+Start allocates %d B for instance 1, %d B for instance %d", first, last, k)
	if last > 2*first {
		t.Fatalf("instance %d cost %d B to create and start, more than twice instance 1's %d B", k, last, first)
	}
}

func TestListSorted(t *testing.T) {
	mgr := NewManager(newHost(t), Hooks{})
	for _, id := range []InstanceID{"c", "a", "b"} {
		if _, err := mgr.Create(tenantDescriptor(id)); err != nil {
			t.Fatal(err)
		}
	}
	list := mgr.List()
	if len(list) != 3 || list[0].ID() != "a" || list[1].ID() != "b" || list[2].ID() != "c" {
		ids := make([]InstanceID, len(list))
		for i, inst := range list {
			ids[i] = inst.ID()
		}
		t.Fatalf("List = %v", ids)
	}
}
