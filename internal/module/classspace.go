package module

import "dosgi/internal/manifest"

// loadClass implements the class-space lookup for bundle b:
//
//  1. a wired import of the class's package delegates to the exporter
//     (imported packages shadow local content, per OSGi);
//  2. the bundle's own content (private or exported packages);
//  3. DynamicImport-Package patterns, wiring lazily;
//  4. the framework's parent delegation hook (virtual frameworks only) —
//     "when searching for a given class the virtual instance undergoes the
//     normal lookup process and if this fails it checks the custom
//     classloader" (§2).
func (f *Framework) loadClass(b *Bundle, name string) (Class, error) {
	pkg := manifest.PackageOf(name)

	f.mu.Lock()
	if b.state == StateUninstalled {
		f.mu.Unlock()
		return Class{}, ErrUninstalled
	}

	// 1. Wired imports shadow local content.
	if exporter, ok := b.wiring.ImportedFrom(pkg); ok {
		cls, found := exporter.findLocalClass(name)
		f.mu.Unlock()
		if !found {
			return Class{}, &ClassNotFoundError{Class: name, Bundle: b.manifest.SymbolicName}
		}
		return cls, nil
	}

	// 2. Own content.
	if cls, ok := b.findLocalClass(name); ok {
		f.mu.Unlock()
		return cls, nil
	}

	// 3. Dynamic imports.
	if exporter, ok := f.resolveDynamicImport(b, pkg); ok {
		cls, found := exporter.findLocalClass(name)
		f.mu.Unlock()
		if found {
			return cls, nil
		}
		return Class{}, &ClassNotFoundError{Class: name, Bundle: b.manifest.SymbolicName}
	}

	// 4. Require-Bundle visibility: all exported packages of required
	// bundles are visible.
	if b.wiring != nil {
		for _, rb := range b.wiring.requires {
			if _, exports := rb.manifest.ExportsPackage(pkg); exports {
				if cls, ok := rb.findLocalClass(name); ok {
					f.mu.Unlock()
					return cls, nil
				}
			}
		}
	}

	parent := f.parent
	requester := b.manifest.SymbolicName
	f.mu.Unlock()

	// 5. Parent delegation, outside the lock (the parent framework has its
	// own lock discipline).
	if parent != nil {
		cls, err := parent.DelegateLoadClass(name)
		if err == nil {
			return cls, nil
		}
	}
	return Class{}, &ClassNotFoundError{Class: name, Bundle: requester}
}

// findLocalClass returns the class entry defined by the bundle itself.
// Callers must hold fw.mu (or be operating on an immutable definition).
func (b *Bundle) findLocalClass(name string) (Class, bool) {
	if b.def == nil || b.def.Classes == nil {
		return Class{}, false
	}
	v, ok := b.def.Classes[name]
	if !ok {
		return Class{}, false
	}
	return Class{Name: name, Value: v, Definer: b}, true
}

// LoadExportedClass looks a class up among the framework's resolved
// exporters of its package (highest export version wins, lowest bundle id
// breaks ties). It is the lookup a parent framework performs on behalf of a
// virtual instance's delegation request: only *exported* content is
// reachable this way.
func (f *Framework) LoadExportedClass(name string) (Class, error) {
	pkg := manifest.PackageOf(name)
	f.mu.Lock()
	index := f.buildExportIndex(nil)
	exporter, ok := chooseExporter(index[pkg], manifest.AnyVersion, nil)
	if !ok {
		f.mu.Unlock()
		return Class{}, &ClassNotFoundError{Class: name, Bundle: "parent:" + f.name}
	}
	cls, found := exporter.findLocalClass(name)
	f.mu.Unlock()
	if !found {
		return Class{}, &ClassNotFoundError{Class: name, Bundle: "parent:" + f.name}
	}
	return cls, nil
}

// CanSee reports whether bundle b can load any class from pkg, and through
// which exporter. Used by diagnostics and isolation tests.
func (f *Framework) CanSee(b *Bundle, pkg string) (*Bundle, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if exporter, ok := b.wiring.ImportedFrom(pkg); ok {
		return exporter, true
	}
	if b.def != nil {
		for name := range b.def.Classes {
			if manifest.PackageOf(name) == pkg {
				return b, true
			}
		}
	}
	if b.wiring != nil {
		for _, rb := range b.wiring.requires {
			if _, ok := rb.manifest.ExportsPackage(pkg); ok {
				return rb, true
			}
		}
	}
	return nil, false
}
