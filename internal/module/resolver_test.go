package module

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestResolveVersionSelection(t *testing.T) {
	lib1 := libDef()
	lib2 := defFor(`Bundle-SymbolicName: com.example.lib2
Bundle-Version: 1.0.0
Export-Package: com.example.lib;version="1.5"
`, map[string]any{"com.example.lib.Util": "util-v1.5"})

	f := newTestFramework(t, map[string]*Definition{
		"loc:lib1": lib1,
		"loc:lib2": lib2,
		"loc:app":  appDef(&testActivator{}),
	})
	mustInstall(t, f, "loc:lib1")
	mustInstall(t, f, "loc:lib2")
	app := mustInstall(t, f, "loc:app")
	mustStart(t, app)

	// The resolver must pick the highest version inside [1.0,2.0).
	cls, err := app.LoadClass("com.example.lib.Util")
	if err != nil {
		t.Fatal(err)
	}
	if cls.Value != "util-v1.5" {
		t.Fatalf("wired to %v, want util-v1.5 (highest matching version)", cls.Value)
	}
}

func TestResolvePrefersAlreadyResolvedExporter(t *testing.T) {
	f := newTestFramework(t, map[string]*Definition{
		"loc:lib": libDef(),
		"loc:app": appDef(&testActivator{}),
	})
	lib := mustInstall(t, f, "loc:lib")
	mustStart(t, lib) // resolves lib first

	// Now add a higher-version exporter, unresolved.
	lib2 := defFor(`Bundle-SymbolicName: com.example.lib2
Bundle-Version: 1.0.0
Export-Package: com.example.lib;version="1.9"
`, map[string]any{"com.example.lib.Util": "util-v1.9"})
	if err := f.Definitions().Add("loc:lib2", lib2); err != nil {
		t.Fatal(err)
	}
	mustInstall(t, f, "loc:lib2")

	app := mustInstall(t, f, "loc:app")
	mustStart(t, app)
	cls, err := app.LoadClass("com.example.lib.Util")
	if err != nil {
		t.Fatal(err)
	}
	// OSGi prefers already-resolved exporters over better versions.
	if cls.Value != "util-v1" {
		t.Fatalf("wired to %v, want util-v1 (resolved exporter preferred)", cls.Value)
	}
}

func TestResolveCycle(t *testing.T) {
	a := defFor(`Bundle-SymbolicName: cyc.a
Bundle-Version: 1.0.0
Import-Package: cyc.b.api
Export-Package: cyc.a.api
`, map[string]any{"cyc.a.api.A": "A"})
	b := defFor(`Bundle-SymbolicName: cyc.b
Bundle-Version: 1.0.0
Import-Package: cyc.a.api
Export-Package: cyc.b.api
`, map[string]any{"cyc.b.api.B": "B"})
	f := newTestFramework(t, map[string]*Definition{"loc:a": a, "loc:b": b})
	ba := mustInstall(t, f, "loc:a")
	bb := mustInstall(t, f, "loc:b")
	if err := f.ResolveAll(); err != nil {
		t.Fatalf("cyclic bundles must co-resolve: %v", err)
	}
	if ba.State() != StateResolved || bb.State() != StateResolved {
		t.Fatalf("states: %v, %v", ba.State(), bb.State())
	}
	cls, err := ba.LoadClass("cyc.b.api.B")
	if err != nil || cls.Value != "B" {
		t.Fatalf("cross-cycle load: %v, %v", cls, err)
	}
}

func TestResolveOptionalImport(t *testing.T) {
	opt := defFor(`Bundle-SymbolicName: opt.app
Bundle-Version: 1.0.0
Import-Package: missing.pkg;resolution:=optional
`, map[string]any{"opt.app.Main": "m"})
	f := newTestFramework(t, map[string]*Definition{"loc:opt": opt})
	b := mustInstall(t, f, "loc:opt")
	if err := f.ResolveAll(); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateResolved {
		t.Fatalf("state = %v", b.State())
	}
	if _, err := b.LoadClass("missing.pkg.X"); !IsClassNotFound(err) {
		t.Fatalf("unwired optional import load error = %v", err)
	}
}

func TestResolveFailurePartialCommit(t *testing.T) {
	// ok resolves; broken does not; broken must not poison ok.
	ok := libDef()
	broken := defFor(`Bundle-SymbolicName: com.example.broken
Bundle-Version: 1.0.0
Import-Package: does.not.exist
`, nil)
	f := newTestFramework(t, map[string]*Definition{"loc:ok": ok, "loc:broken": broken})
	bOK := mustInstall(t, f, "loc:ok")
	bBroken := mustInstall(t, f, "loc:broken")
	err := f.ResolveAll()
	var re *ResolutionError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if _, listed := re.Unresolvable["com.example.broken"]; !listed {
		t.Fatalf("unresolvable = %v", re.Unresolvable)
	}
	if bOK.State() != StateResolved {
		t.Fatalf("ok bundle state = %v; failures must not block others", bOK.State())
	}
	if bBroken.State() != StateInstalled {
		t.Fatalf("broken bundle state = %v", bBroken.State())
	}
}

func TestResolveCascadingFailure(t *testing.T) {
	// mid imports from broken; broken imports nothing that exists. Both
	// must fail, in two iterations.
	broken := defFor(`Bundle-SymbolicName: deep.broken
Bundle-Version: 1.0.0
Import-Package: does.not.exist
Export-Package: deep.api
`, nil)
	mid := defFor(`Bundle-SymbolicName: deep.mid
Bundle-Version: 1.0.0
Import-Package: deep.api
`, nil)
	f := newTestFramework(t, map[string]*Definition{"loc:broken": broken, "loc:mid": mid})
	mustInstall(t, f, "loc:broken")
	bMid := mustInstall(t, f, "loc:mid")
	err := f.ResolveAll()
	var re *ResolutionError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if len(re.Unresolvable) != 2 {
		t.Fatalf("unresolvable = %v, want both bundles", re.Unresolvable)
	}
	if bMid.State() != StateInstalled {
		t.Fatalf("mid state = %v", bMid.State())
	}
}

func TestRequireBundle(t *testing.T) {
	host := defFor(`Bundle-SymbolicName: req.host
Bundle-Version: 2.1.0
Export-Package: req.host.api
`, map[string]any{"req.host.api.H": "H", "req.host.internal.Secret": "S"})
	user := defFor(`Bundle-SymbolicName: req.user
Bundle-Version: 1.0.0
Require-Bundle: req.host;bundle-version="[2.0,3.0)"
`, nil)
	f := newTestFramework(t, map[string]*Definition{"loc:host": host, "loc:user": user})
	mustInstall(t, f, "loc:host")
	u := mustInstall(t, f, "loc:user")
	if err := f.ResolveAll(); err != nil {
		t.Fatal(err)
	}
	cls, err := u.LoadClass("req.host.api.H")
	if err != nil || cls.Value != "H" {
		t.Fatalf("require-bundle load: %v, %v", cls, err)
	}
	// Only exported packages are visible through Require-Bundle.
	if _, err := u.LoadClass("req.host.internal.Secret"); !IsClassNotFound(err) {
		t.Fatalf("private package leaked through Require-Bundle: %v", err)
	}
}

func TestRequireBundleVersionMismatch(t *testing.T) {
	host := defFor("Bundle-SymbolicName: req.host\nBundle-Version: 1.0.0\n", nil)
	user := defFor(`Bundle-SymbolicName: req.user
Bundle-Version: 1.0.0
Require-Bundle: req.host;bundle-version="[2.0,3.0)"
`, nil)
	f := newTestFramework(t, map[string]*Definition{"loc:host": host, "loc:user": user})
	mustInstall(t, f, "loc:host")
	u := mustInstall(t, f, "loc:user")
	if err := f.ResolveAll(); err == nil {
		t.Fatal("version-mismatched Require-Bundle resolved")
	}
	if u.State() != StateInstalled {
		t.Fatalf("state = %v", u.State())
	}
}

func TestUsesConstraintConflict(t *testing.T) {
	// Two incompatible versions of pkg "shared". Exporter "svc" exports
	// "svc.api" with uses:="shared" wired to shared v1. A client wiring
	// shared v2 while importing svc.api must be rejected.
	shared1 := defFor(`Bundle-SymbolicName: shared1
Bundle-Version: 1.0.0
Export-Package: shared;version="1.0"
`, nil)
	shared2 := defFor(`Bundle-SymbolicName: shared2
Bundle-Version: 1.0.0
Export-Package: shared;version="2.0"
`, nil)
	svc := defFor(`Bundle-SymbolicName: svc
Bundle-Version: 1.0.0
Import-Package: shared;version="[1.0,2.0)"
Export-Package: svc.api;uses:="shared"
`, nil)
	client := defFor(`Bundle-SymbolicName: client
Bundle-Version: 1.0.0
Import-Package: svc.api,shared;version="[2.0,3.0)"
`, nil)
	f := newTestFramework(t, map[string]*Definition{
		"loc:s1": shared1, "loc:s2": shared2, "loc:svc": svc, "loc:client": client,
	})
	mustInstall(t, f, "loc:s1")
	mustInstall(t, f, "loc:s2")
	mustInstall(t, f, "loc:svc")
	cl := mustInstall(t, f, "loc:client")
	err := f.ResolveAll()
	var re *ResolutionError
	if !errors.As(err, &re) {
		t.Fatalf("expected uses conflict, got %v", err)
	}
	if _, listed := re.Unresolvable["client"]; !listed {
		t.Fatalf("unresolvable = %v, want client", re.Unresolvable)
	}
	if cl.State() != StateInstalled {
		t.Fatalf("client state = %v", cl.State())
	}
}

func TestUsesConstraintConsistentWiring(t *testing.T) {
	// Same topology but the client accepts shared v1: no conflict.
	shared1 := defFor(`Bundle-SymbolicName: shared1
Bundle-Version: 1.0.0
Export-Package: shared;version="1.0"
`, nil)
	svc := defFor(`Bundle-SymbolicName: svc
Bundle-Version: 1.0.0
Import-Package: shared
Export-Package: svc.api;uses:="shared"
`, nil)
	client := defFor(`Bundle-SymbolicName: client
Bundle-Version: 1.0.0
Import-Package: svc.api,shared
`, nil)
	f := newTestFramework(t, map[string]*Definition{
		"loc:s1": shared1, "loc:svc": svc, "loc:client": client,
	})
	mustInstall(t, f, "loc:s1")
	mustInstall(t, f, "loc:svc")
	cl := mustInstall(t, f, "loc:client")
	if err := f.ResolveAll(); err != nil {
		t.Fatal(err)
	}
	if cl.State() != StateResolved {
		t.Fatalf("client state = %v", cl.State())
	}
}

func TestDynamicImport(t *testing.T) {
	dyn := defFor(`Bundle-SymbolicName: dyn.app
Bundle-Version: 1.0.0
DynamicImport-Package: com.example.*
`, nil)
	f := newTestFramework(t, map[string]*Definition{
		"loc:lib": libDef(),
		"loc:dyn": dyn,
	})
	lib := mustInstall(t, f, "loc:lib")
	d := mustInstall(t, f, "loc:dyn")
	if err := f.ResolveAll(); err != nil {
		t.Fatal(err)
	}
	// lib is only INSTALLED-resolved lazily: resolve set included it above.
	_ = lib
	cls, err := d.LoadClass("com.example.lib.Util")
	if err != nil {
		t.Fatalf("dynamic import failed: %v", err)
	}
	if cls.Value != "util-v1" {
		t.Fatalf("value = %v", cls.Value)
	}
	// The dynamic wire is recorded.
	if exp, ok := d.Wiring().ImportedFrom("com.example.lib"); !ok || exp != lib {
		t.Fatal("dynamic wire not recorded")
	}
	// Pattern must not over-match.
	if _, err := d.LoadClass("org.other.Thing"); !IsClassNotFound(err) {
		t.Fatalf("out-of-pattern load error = %v", err)
	}
}

func TestSelfExportPreference(t *testing.T) {
	// A bundle that both imports and exports a package wires to itself at
	// equal versions.
	self := defFor(`Bundle-SymbolicName: selfie
Bundle-Version: 1.0.0
Import-Package: dual;version="1.0"
Export-Package: dual;version="1.0"
`, map[string]any{"dual.Thing": "mine"})
	other := defFor(`Bundle-SymbolicName: other
Bundle-Version: 1.0.0
Export-Package: dual;version="1.0"
`, map[string]any{"dual.Thing": "theirs"})
	f := newTestFramework(t, map[string]*Definition{"loc:self": self, "loc:other": other})
	s := mustInstall(t, f, "loc:self")
	mustInstall(t, f, "loc:other")
	if err := f.ResolveAll(); err != nil {
		t.Fatal(err)
	}
	cls, err := s.LoadClass("dual.Thing")
	if err != nil {
		t.Fatal(err)
	}
	if cls.Value != "mine" {
		t.Fatalf("self-export preference broken: wired to %v", cls.Value)
	}
}

// Property: resolution is deterministic — resolving the same bundle set in
// any installation order yields identical wiring choices (by exporter
// symbolic name).
func TestResolutionDeterminismProperty(t *testing.T) {
	buildDefs := func() map[string]*Definition {
		return map[string]*Definition{
			"loc:l1": defFor("Bundle-SymbolicName: l1\nBundle-Version: 1.0\nExport-Package: p;version=\"1.1\"\n",
				map[string]any{"p.C": "l1"}),
			"loc:l2": defFor("Bundle-SymbolicName: l2\nBundle-Version: 1.0\nExport-Package: p;version=\"1.2\"\n",
				map[string]any{"p.C": "l2"}),
			"loc:l3": defFor("Bundle-SymbolicName: l3\nBundle-Version: 1.0\nExport-Package: p;version=\"1.3\"\n",
				map[string]any{"p.C": "l3"}),
			"loc:app": defFor("Bundle-SymbolicName: app\nBundle-Version: 1.0\nImport-Package: p;version=\"[1.0,2.0)\"\n", nil),
		}
	}
	resolveWith := func(order []string) string {
		f := newTestFramework(t, buildDefs())
		for _, loc := range order {
			mustInstall(t, f, loc)
		}
		if err := f.ResolveAll(); err != nil {
			t.Fatalf("resolve: %v", err)
		}
		app, _ := f.GetBundleByLocation("loc:app")
		cls, err := app.LoadClass("p.C")
		if err != nil {
			t.Fatal(err)
		}
		return cls.Value.(string)
	}
	prop := func(seed uint8) bool {
		locs := []string{"loc:l1", "loc:l2", "loc:l3", "loc:app"}
		// Deterministic permutation from seed.
		for i := len(locs) - 1; i > 0; i-- {
			j := int(seed) % (i + 1)
			seed = seed*31 + 7
			locs[i], locs[j] = locs[j], locs[i]
		}
		return resolveWith(locs) == "l3"
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

// IsClassNotFound reports whether err is a ClassNotFoundError.
func IsClassNotFound(err error) bool {
	var cnf *ClassNotFoundError
	return errors.As(err, &cnf)
}
