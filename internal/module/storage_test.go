package module

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	act := &testActivator{}
	defs := map[string]*Definition{
		"loc:lib": libDef(),
		"loc:app": appDef(act),
	}
	f := newTestFramework(t, defs)
	mustInstall(t, f, "loc:lib")
	app := mustInstall(t, f, "loc:app")
	mustStart(t, app)
	if err := app.DataPut("counter", []byte("41")); err != nil {
		t.Fatal(err)
	}
	f.SetProperty("zone", "eu-west")
	f.SetExtension("instances", []byte(`["tenant-a"]`))

	snap := f.Snapshot()
	encoded, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(encoded)
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a brand-new framework, same definition registry (the
	// "JARs on the SAN").
	reg := NewDefinitionRegistry()
	for loc, d := range defs {
		reg.MustAdd(loc, d)
	}
	f2, err := NewFromSnapshot(decoded, WithDefinitions(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Start(); err != nil {
		t.Fatal(err)
	}

	app2, ok := f2.GetBundleByLocation("loc:app")
	if !ok {
		t.Fatal("app missing after restore")
	}
	if app2.State() != StateActive {
		t.Fatalf("restored app state = %v, want ACTIVE (persistent start)", app2.State())
	}
	if app2.ID() != app.ID() {
		t.Fatalf("bundle id changed: %d -> %d", app.ID(), app2.ID())
	}
	lib2, ok := f2.GetBundleByLocation("loc:lib")
	if !ok {
		t.Fatal("lib missing after restore")
	}
	if lib2.State() != StateResolved {
		t.Fatalf("restored lib state = %v (was never started)", lib2.State())
	}
	data, ok := app2.DataGet("counter")
	if !ok || string(data) != "41" {
		t.Fatalf("data area lost: %q, %v", data, ok)
	}
	if f2.Property("zone") != "eu-west" {
		t.Fatal("framework property lost")
	}
	ext, ok := f2.Extension("instances")
	if !ok || string(ext) != `["tenant-a"]` {
		t.Fatalf("extension lost: %q, %v", ext, ok)
	}
	// Activator really ran on the restored framework.
	if act.started != 2 {
		t.Fatalf("activator starts = %d, want 2 (original + restored)", act.started)
	}
}

func TestSnapshotNextBundleIDPreserved(t *testing.T) {
	defs := map[string]*Definition{"loc:lib": libDef()}
	f := newTestFramework(t, defs)
	lib := mustInstall(t, f, "loc:lib")
	if err := lib.Uninstall(); err != nil {
		t.Fatal(err)
	}
	// lib consumed id 1; next is 2 even though nothing is installed.
	snap := f.Snapshot()

	reg := NewDefinitionRegistry()
	reg.MustAdd("loc:lib", libDef())
	f2, err := NewFromSnapshot(snap, WithDefinitions(reg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f2.InstallBundle("loc:lib")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() != 2 {
		t.Fatalf("id = %d, want 2 (ids are never recycled)", b.ID())
	}
}

func TestRestoreWithMissingDefinition(t *testing.T) {
	defs := map[string]*Definition{
		"loc:lib": libDef(),
		"loc:app": appDef(&testActivator{}),
	}
	f := newTestFramework(t, defs)
	mustInstall(t, f, "loc:lib")
	mustInstall(t, f, "loc:app")
	snap := f.Snapshot()

	// Only lib's definition is available at the restore site.
	reg := NewDefinitionRegistry()
	reg.MustAdd("loc:lib", libDef())
	f2, err := NewFromSnapshot(snap, WithDefinitions(reg))
	if err == nil {
		t.Fatal("restore with missing definition must report an error")
	}
	if f2 == nil {
		t.Fatal("partial restore must still return the framework")
	}
	if _, ok := f2.GetBundleByLocation("loc:lib"); !ok {
		t.Fatal("restorable bundle was dropped")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	f := newTestFramework(t, map[string]*Definition{"loc:lib": libDef()})
	lib := mustInstall(t, f, "loc:lib")
	if err := lib.DataPut("k", []byte("original")); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	snap.Bundles[0].Data["k"][0] = 'X'
	got, _ := lib.DataGet("k")
	if string(got) != "original" {
		t.Fatal("snapshot aliases live bundle data")
	}
}

func TestStartLevelPersisted(t *testing.T) {
	defs := map[string]*Definition{"loc:lib": libDef()}
	reg := NewDefinitionRegistry()
	reg.MustAdd("loc:lib", libDef())
	f := New(WithDefinitions(reg), WithStartLevel(7))
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	lib := mustInstall(t, f, "loc:lib")
	if err := lib.SetStartLevel(4); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	if snap.StartLevel != 7 {
		t.Fatalf("snapshot start level = %d", snap.StartLevel)
	}

	reg2 := NewDefinitionRegistry()
	for loc, d := range defs {
		reg2.MustAdd(loc, d)
	}
	f2, err := NewFromSnapshot(snap, WithDefinitions(reg2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Start(); err != nil {
		t.Fatal(err)
	}
	if f2.StartLevel() != 7 {
		t.Fatalf("restored framework level = %d", f2.StartLevel())
	}
	lib2, _ := f2.GetBundleByLocation("loc:lib")
	if lib2.StartLevel() != 4 {
		t.Fatalf("restored bundle level = %d", lib2.StartLevel())
	}
}

// DecodeSnapshot parses an encoded snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("module: decoding snapshot: %w", err)
	}
	return &s, nil
}
