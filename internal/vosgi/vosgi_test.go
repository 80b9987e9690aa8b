package vosgi

import (
	"errors"
	"testing"

	"dosgi/internal/module"
)

// newParent builds a started parent framework with a base-service bundle
// ("Bundle II" of the paper's Figure 4) exporting com.base and registering
// a log service.
func newParent(t *testing.T) *module.Framework {
	t.Helper()
	defs := module.NewDefinitionRegistry()
	defs.MustAdd("loc:base", &module.Definition{
		ManifestText: `Bundle-SymbolicName: com.base
Bundle-Version: 1.0.0
Bundle-Activator: com.base.Activator
Export-Package: com.base;version="1.0"
`,
		Classes: map[string]any{
			"com.base.Shared":          "shared-class",
			"com.base.internal.Hidden": "hidden-class",
		},
		NewActivator: func() module.Activator {
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					_, err := ctx.RegisterSingle("base.LogService", "the-log", module.Properties{"level": "info"})
					return err
				},
			}
		},
	})
	defs.MustAdd("loc:tenant", &module.Definition{
		ManifestText: `Bundle-SymbolicName: com.tenant.app
Bundle-Version: 1.0.0
`,
		Classes: map[string]any{"com.tenant.app.Main": "tenant-main"},
	})

	parent := module.New(module.WithName("host"), module.WithDefinitions(defs))
	if err := parent.Start(); err != nil {
		t.Fatal(err)
	}
	base, err := parent.InstallBundle("loc:base")
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Start(); err != nil {
		t.Fatal(err)
	}
	return parent
}

func startInstance(t *testing.T, parent *module.Framework, name string, policy SharePolicy) *VirtualFramework {
	t.Helper()
	vf, err := New(name, parent, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Start(); err != nil {
		t.Fatal(err)
	}
	return vf
}

func installTenantBundle(t *testing.T, vf *VirtualFramework) *module.Bundle {
	t.Helper()
	b, err := vf.Framework().InstallBundle("loc:tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClassDelegationExplicitExportOnly(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{Packages: []string{"com.base"}})
	b := installTenantBundle(t, vf)

	// Own classes resolve locally.
	cls, err := b.LoadClass("com.tenant.app.Main")
	if err != nil || cls.Value != "tenant-main" {
		t.Fatalf("local class: %v, %v", cls, err)
	}

	// Exported parent package is reachable.
	cls, err = b.LoadClass("com.base.Shared")
	if err != nil {
		t.Fatalf("delegated class: %v", err)
	}
	if cls.Value != "shared-class" {
		t.Fatalf("value = %v", cls.Value)
	}

	// The parent's *private* package is not reachable even though the
	// delegation pattern "com.base" was granted — com.base.internal is a
	// different package.
	if _, err := b.LoadClass("com.base.internal.Hidden"); !errors.As(err, new(*module.ClassNotFoundError)) {
		t.Fatalf("private parent package leaked: %v", err)
	}
}

func TestClassDelegationDeniedWithoutPolicy(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{}) // nothing shared
	b := installTenantBundle(t, vf)
	if _, err := b.LoadClass("com.base.Shared"); !errors.As(err, new(*module.ClassNotFoundError)) {
		t.Fatalf("undelegated package reachable: %v", err)
	}
}

func TestClassIdentitySharedAcrossInstances(t *testing.T) {
	// Figure 4's point: one copy of Bundle II serves all instances. Two
	// virtual instances loading the same delegated class must observe the
	// same definer bundle.
	parent := newParent(t)
	policy := SharePolicy{Packages: []string{"com.base"}}
	vfA := startInstance(t, parent, "tenant-a", policy)
	vfB := startInstance(t, parent, "tenant-b", policy)
	bA := installTenantBundle(t, vfA)
	bB := installTenantBundle(t, vfB)

	clsA, err := bA.LoadClass("com.base.Shared")
	if err != nil {
		t.Fatal(err)
	}
	clsB, err := bB.LoadClass("com.base.Shared")
	if err != nil {
		t.Fatal(err)
	}
	if clsA.Definer != clsB.Definer {
		t.Fatal("delegated class has different definers across instances; sharing broken")
	}
	if clsA.Definer.Framework() != parent {
		t.Fatal("definer should live in the parent framework")
	}
}

func TestServiceMirroring(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{Services: []string{"base.LogService"}})

	ctx := vf.Framework().SystemContext()
	ref, ok := ctx.ServiceReference("base.LogService")
	if !ok {
		t.Fatal("shared service not mirrored into child")
	}
	svc, err := ctx.GetService(ref)
	if err != nil || svc != "the-log" {
		t.Fatalf("mirrored service = %v, %v", svc, err)
	}
	if imported, _ := ref.Property(PropImported).(bool); !imported {
		t.Fatal("mirror not marked as imported")
	}
	if ref.Property("level") != "info" {
		t.Fatal("parent service properties not mirrored")
	}
	if vf.MirrorCount() != 1 {
		t.Fatalf("MirrorCount = %d", vf.MirrorCount())
	}
}

func TestServiceNotMirroredWithoutPolicy(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{})
	if _, ok := vf.Framework().SystemContext().ServiceReference("base.LogService"); ok {
		t.Fatal("service leaked into child without explicit export")
	}
}

func TestMirrorTracksParentLifecycle(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{Services: []string{"base.LogService"}})
	ctx := vf.Framework().SystemContext()
	if _, ok := ctx.ServiceReference("base.LogService"); !ok {
		t.Fatal("mirror missing")
	}

	// Stop the base bundle in the parent: the mirror must disappear.
	base, _ := parent.GetBundleByLocation("loc:base")
	if err := base.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.ServiceReference("base.LogService"); ok {
		t.Fatal("mirror survived parent service unregistration")
	}
	if vf.MirrorCount() != 0 {
		t.Fatalf("MirrorCount = %d", vf.MirrorCount())
	}

	// Restart: the mirror must come back.
	if err := base.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.ServiceReference("base.LogService"); !ok {
		t.Fatal("mirror not re-established after parent restart")
	}
}

func TestChildServicesInvisibleToParent(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{Services: []string{"base.LogService"}})
	_, err := vf.Framework().SystemContext().RegisterSingle("tenant.Secret", "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parent.SystemContext().ServiceReference("tenant.Secret"); ok {
		t.Fatal("child service leaked to parent registry")
	}
}

func TestInstancesIsolatedFromEachOther(t *testing.T) {
	parent := newParent(t)
	policy := SharePolicy{Services: []string{"base.LogService"}}
	vfA := startInstance(t, parent, "tenant-a", policy)
	vfB := startInstance(t, parent, "tenant-b", policy)
	if _, err := vfA.Framework().SystemContext().RegisterSingle("a.Private", "a", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := vfB.Framework().SystemContext().ServiceReference("a.Private"); ok {
		t.Fatal("service crossed between sibling instances")
	}
	// Namespace isolation: same bundle installable in both instances.
	bA := installTenantBundle(t, vfA)
	bB := installTenantBundle(t, vfB)
	if bA.Framework() == bB.Framework() {
		t.Fatal("instances share a framework")
	}
}

func TestStopClosesMirrors(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "tenant-a", SharePolicy{Services: []string{"base.LogService"}})
	if err := vf.Stop(); err != nil {
		t.Fatal(err)
	}
	if vf.Running() {
		t.Fatal("still running")
	}
	if vf.MirrorCount() != 0 {
		t.Fatal("mirrors not cleared on stop")
	}
	// Re-registering in parent while stopped must not create mirrors.
	if _, err := parent.SystemContext().RegisterSingle("base.LogService", "late", nil); err != nil {
		t.Fatal(err)
	}
	if vf.MirrorCount() != 0 {
		t.Fatal("mirror created while stopped")
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	parent := newParent(t)
	policy := SharePolicy{Packages: []string{"com.base"}, Services: []string{"base.LogService"}}
	vf := startInstance(t, parent, "tenant-a", policy)
	b := installTenantBundle(t, vf)
	if err := b.DataPut("state", []byte("v7")); err != nil {
		t.Fatal(err)
	}
	snap := vf.Snapshot()
	if err := vf.Stop(); err != nil {
		t.Fatal(err)
	}

	// Restore on a *different* parent — the migration path.
	parent2 := newParent(t)
	vf2, err := Restore("tenant-a", parent2, policy, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := vf2.Start(); err != nil {
		t.Fatal(err)
	}
	b2, ok := vf2.Framework().GetBundleByLocation("loc:tenant")
	if !ok {
		t.Fatal("tenant bundle missing after restore")
	}
	if b2.State() != module.StateActive {
		t.Fatalf("restored bundle state = %v, want ACTIVE", b2.State())
	}
	data, ok := b2.DataGet("state")
	if !ok || string(data) != "v7" {
		t.Fatalf("bundle data lost in migration: %q", data)
	}
	// Mirrors re-established against the new parent.
	if _, ok := vf2.Framework().SystemContext().ServiceReference("base.LogService"); !ok {
		t.Fatal("mirror missing after restore")
	}
	// Delegated classes work against the new parent.
	cls, err := b2.LoadClass("com.base.Shared")
	if err != nil || cls.Value != "shared-class" {
		t.Fatalf("delegation after restore: %v, %v", cls, err)
	}
}

func TestWildcardPackageDelegation(t *testing.T) {
	parent := newParent(t)
	vf := startInstance(t, parent, "t", SharePolicy{Packages: []string{"com.*"}})
	b := installTenantBundle(t, vf)
	if _, err := b.LoadClass("com.base.Shared"); err != nil {
		t.Fatalf("prefix pattern failed: %v", err)
	}
}

func TestRestoreNilSnapshot(t *testing.T) {
	parent := newParent(t)
	if _, err := Restore("x", parent, SharePolicy{}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestNewNilParent(t *testing.T) {
	if _, err := New("x", nil, SharePolicy{}); err == nil {
		t.Fatal("nil parent accepted")
	}
}
