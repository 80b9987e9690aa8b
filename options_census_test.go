package dosgi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The knob census: every value a caller can set must be set by someone.
// An option or config field nothing sets is a configuration nobody runs;
// make its value a constant instead. The census covers declarations in
// non-test files under internal/ and cmd/; tests, examples and the
// benchmark module count as setters.

// TestEveryOptionHasACaller requires every exported With* function to be
// referenced somewhere in the tree besides its declaration. A reference
// from another package is a selector on that package's import
// (module.WithStartLevel and vosgi.WithStartLevel are different options),
// and one from inside the package is a bare identifier.
func TestEveryOptionHasACaller(t *testing.T) {
	tree := parseTree(t)

	type option struct{ pkg, name string }
	declared := map[option]string{} // -> position of the declaration
	for _, f := range tree.declaring() {
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				declared[option{f.importPath, fn.Name.Name}] = tree.fset.Position(fn.Pos()).String()
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("census found no With* options; is the walk rooted at the module?")
	}

	used := map[option]bool{}
	for _, f := range tree.files {
		imports := tree.imports(t, f)
		own := f.ownPackage()
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declaration's own name is not a reference.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[option{p, n.Sel.Name}] = true
						return false
					}
				}
				// A field or method selector: only the operand can refer.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if own != "" {
					used[option{own, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var missing []string
	for o, pos := range declared {
		if !used[o] {
			missing = append(missing, tree.pkgNames[o.pkg]+"."+o.name+" ("+pos+")")
		}
	}
	reportMissing(t, missing, len(declared), "With* options have no caller")
}

// TestEveryConfigFieldHasASetter requires every exported field of a
// `type *Config struct` to be set outside its own package's non-test
// code, where only defaults are filled in: as a key of a composite
// literal of that type, or by assigning to, incrementing or taking the
// address of a selector with the field's name (flag.IntVar(&cfg.N, …)).
// Without type information a selector cannot be told apart from a
// same-named field of another type, so those count too.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	tree := parseTree(t)

	type field struct{ pkg, typ, name string }
	declared := map[field]string{} // -> position of the declaration
	for _, f := range tree.declaring() {
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							declared[field{f.importPath, ts.Name.Name, name.Name}] = tree.fset.Position(name.Pos()).String()
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("census found no *Config fields; is the walk rooted at the module?")
	}

	keyed := map[field]bool{}
	// assignedBy: field name -> import paths of the packages whose
	// non-test code assigns a selector of that name ("" for test files).
	assignedBy := map[string]map[string]bool{}
	for _, f := range tree.files {
		imports := tree.imports(t, f)
		own := f.ownPackage()
		by := f.importPath
		if f.test {
			by = ""
		}
		assigned := func(x ast.Expr) {
			if sel, ok := x.(*ast.SelectorExpr); ok {
				if assignedBy[sel.Sel.Name] == nil {
					assignedBy[sel.Sel.Name] = map[string]bool{}
				}
				assignedBy[sel.Sel.Name][by] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var pkg, typ string
				switch lt := n.Type.(type) {
				case *ast.Ident:
					pkg, typ = own, lt.Name
				case *ast.SelectorExpr:
					if x, ok := lt.X.(*ast.Ident); ok {
						pkg, typ = imports[x.Name], lt.Sel.Name
					}
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && pkg != "" {
							keyed[field{pkg, typ, key.Name}] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(lhs)
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					assigned(n.X)
				}
			}
			return true
		})
	}

	var missing []string
	for fl, pos := range declared {
		set := keyed[fl]
		for by := range assignedBy[fl.name] {
			set = set || by != fl.pkg
		}
		if !set {
			missing = append(missing, tree.pkgNames[fl.pkg]+"."+fl.typ+"."+fl.name+" ("+pos+")")
		}
	}
	reportMissing(t, missing, len(declared), "exported *Config fields have no setter")
}

func reportMissing(t *testing.T, missing []string, total int, what string) {
	t.Helper()
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d of %d %s anywhere in the tree; make each value a constant:\n\t%s",
			len(missing), total, what, strings.Join(missing, "\n\t"))
	}
}

type parsedFile struct {
	rel        string // slash-separated path from the module root
	importPath string // import path of the file's directory
	test       bool
	ast        *ast.File
}

// ownPackage is the import path bare identifiers in f resolve to: its
// directory's package, unless f is an external test package (foo_test).
func (f parsedFile) ownPackage() string {
	if strings.HasSuffix(f.ast.Name.Name, "_test") {
		return ""
	}
	return f.importPath
}

type parsedTree struct {
	fset     *token.FileSet
	files    []parsedFile
	pkgNames map[string]string // import path -> package name
}

// parseTree parses every Go file under the module root, the benchmark
// module included. .bench_build/ holds unpacked parent commits and
// testdata/ directories hold inputs, so neither is part of the tree.
func parseTree(t *testing.T) parsedTree {
	t.Helper()
	tree := parsedTree{fset: token.NewFileSet(), pkgNames: map[string]string{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tree.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		pf := parsedFile{
			rel:        rel,
			importPath: path.Join("dosgi", path.Dir(rel)),
			test:       strings.HasSuffix(p, "_test.go"),
			ast:        f,
		}
		tree.pkgNames[pf.importPath] = strings.TrimSuffix(f.Name.Name, "_test")
		tree.files = append(tree.files, pf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// declaring returns the files whose declarations the census covers.
func (tree parsedTree) declaring() []parsedFile {
	var out []parsedFile
	for _, f := range tree.files {
		if !f.test && (strings.HasPrefix(f.rel, "internal/") || strings.HasPrefix(f.rel, "cmd/")) {
			out = append(out, f)
		}
	}
	return out
}

// imports maps each import's local name in f to its import path.
func (tree parsedTree) imports(t *testing.T, f parsedFile) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, imp := range f.ast.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatalf("%s: import %s: %v", f.rel, imp.Path.Value, err)
		}
		name, ok := tree.pkgNames[p]
		if !ok {
			name = path.Base(p)
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = p
	}
	return out
}

// TestEveryPackageIdentifierIsReferenced extends the census to the
// package-level constants, variables and types declared in non-test
// files under internal/ and cmd/, exported or not: each must be
// referenced from some non-test file of the tree (examples and the
// benchmark module count) besides its own declaration. Like the With*
// census it matches ast identifiers — a selector on the declaring
// package's import from outside, a bare identifier from inside — never
// text, and it skips the names that declare rather than refer: the
// declarations themselves, function and method names, struct field and
// parameter names and field selectors. A name with a reason to stay
// unreferenced is listed in scripts/reach_allow.txt, as pkg.Name.
func TestEveryPackageIdentifierIsReferenced(t *testing.T) {
	tree := parseTree(t)

	type ident struct{ pkg, name string }
	declared := map[ident]string{}     // -> position of the declaration
	declaring := map[*ast.Ident]bool{} // the names the declarations introduce
	for _, f := range tree.declaring() {
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok == token.IMPORT {
				continue
			}
			for _, spec := range gd.Specs {
				var names []*ast.Ident
				switch s := spec.(type) {
				case *ast.ValueSpec:
					names = s.Names
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
				}
				for _, name := range names {
					declaring[name] = true
					if name.Name != "_" {
						declared[ident{f.importPath, name.Name}] = tree.fset.Position(name.Pos()).String()
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("census found no package-level identifiers; is the walk rooted at the module?")
	}

	used := map[ident]bool{}
	for _, f := range tree.files {
		if f.test {
			continue
		}
		imports := tree.imports(t, f)
		own := f.ownPackage()
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field:
				// Field, parameter and interface method names declare.
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[ident{p, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if own != "" && !declaring[n] {
					used[ident{own, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	allowed := reachAllowed(t)
	var missing, stale []string
	for id, pos := range declared {
		name := allowName(id.pkg) + "." + id.name
		switch {
		case !used[id] && !allowed[name]:
			missing = append(missing, name+" ("+pos+")")
		case used[id] && allowed[name]:
			stale = append(stale, name+" ("+pos+")")
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("referenced but listed in scripts/reach_allow.txt (remove the entry):\n\t%s", strings.Join(stale, "\n\t"))
	}
	if len(missing) > 0 {
		t.Errorf("%d of %d package-level identifiers are referenced by no non-test file; delete each, "+
			"use it, or list it in scripts/reach_allow.txt with a reason:\n\t%s",
			len(missing), len(declared), strings.Join(missing, "\n\t"))
	}
}

// allowName is how scripts/reach_allow.txt names a package: relative to
// internal/ for the internal packages, to the module root otherwise.
func allowName(importPath string) string {
	if p, ok := strings.CutPrefix(importPath, "dosgi/internal/"); ok {
		return p
	}
	return strings.TrimPrefix(importPath, "dosgi/")
}

// reachAllowed returns the names scripts/reach_allow.txt lists.
func reachAllowed(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("scripts/reach_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if fields := strings.Fields(line); len(fields) > 0 {
			out[fields[0]] = true
		}
	}
	return out
}
