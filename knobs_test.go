package adhocsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet is the knob tripwire: an exported field of a
// struct type named *Config or *Options under internal/ must be written
// somewhere outside the file that declares it — a composite-literal key, an
// assignment or increment through a selector, or a selector whose address is
// taken. Tests, examples, commands and benchmark/ all count as writers;
// methods on a *Config or *Options type do not, since what they write are
// defaults. A field nothing sets is a knob with one value in use, and
// belongs in a constant.
//
// Matching is by field name, not by type: a write to any field called TTL
// counts for every Config's TTL. The check therefore catches only names
// that nothing in the module sets at all, and never reports a field that is
// set.
func TestEveryConfigFieldIsSet(t *testing.T) {
	type field struct{ name, typ, file string }
	var fields []field
	writers := make(map[string]map[string]bool) // field name -> files writing it
	wrote := func(name, file string) {
		if writers[name] == nil {
			writers[name] = make(map[string]bool)
		}
		writers[name][file] = true
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declares := strings.HasPrefix(path, "internal"+string(filepath.Separator)) &&
			!strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Recv == nil || !isKnobType(recvName(n.Recv.List[0].Type))
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !declares || !isKnobType(n.Name.Name) {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{id.Name, n.Name.Name, path})
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							wrote(id.Name, path)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						wrote(sel.Sel.Name, path)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					wrote(sel.Sel.Name, path)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					wrote(sel.Sel.Name, path)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no Config or Options fields under internal/")
	}

	var unset []string
	for _, f := range fields {
		elsewhere := false
		for file := range writers[f.name] {
			if file != f.file {
				elsewhere = true
				break
			}
		}
		if !elsewhere {
			unset = append(unset, f.file+": "+f.typ+"."+f.name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set nowhere outside its declaring file: make it a constant", u)
	}
}

func isKnobType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// recvName is the type name of a method receiver, T or *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestEveryFacadeNameIsNamed is the surface tripwire: every exported name
// the root package declares must be kept by one of four rules, or it is an
// alias without a user and goes.
//   - A caller names it: adhocsim.X appears as a selector in cmd/,
//     examples/, benchmark/ or a root _test.go.
//   - An exported root declaration that is kept needs it: the name appears
//     in that declaration's type, value or signature.
//   - README.md names it, as a whole word.
//   - It is a const or var declared in the same block as a kept one: an
//     enumeration (the protocol names, the Metric* kinds) stays or goes
//     whole.
func TestEveryFacadeNameIsNamed(t *testing.T) {
	fset := token.NewFileSet()
	decls := make(map[string]ast.Node)      // name -> its spec or func
	blocks := make(map[string]*ast.GenDecl) // const or var name -> its block
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = d
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = s
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								decls[id.Name] = s
								blocks[id.Name] = d
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations in the root package")
	}

	callers, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				callers = append(callers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	kept := make(map[string]bool)
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range facadeSelectors(f) {
			kept[name] = true
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range decls {
		if regexp.MustCompile(`\b` + name + `\b`).Match(readme) {
			kept[name] = true
		}
	}

	for grew := true; grew; {
		grew = false
		keep := func(name string) {
			if _, ok := decls[name]; ok && !kept[name] {
				kept[name] = true
				grew = true
			}
		}
		for name := range kept {
			// Every bare identifier in the declaration; core.Options uses
			// core, not Options.
			sel := make(map[*ast.Ident]bool)
			ast.Inspect(decls[name], func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sel[n.Sel] = true
				case *ast.Ident:
					if !sel[n] {
						keep(n.Name)
					}
				}
				return true
			})
			if b := blocks[name]; b != nil {
				for _, s := range b.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						keep(id.Name)
					}
				}
			}
		}
	}

	var unnamed []string
	for name, n := range decls {
		if !kept[name] {
			unnamed = append(unnamed, fset.Position(n.Pos()).Filename+": "+name)
		}
	}
	sort.Strings(unnamed)
	for _, u := range unnamed {
		t.Errorf("%s is named by no caller, kept declaration or README.md: delete it", u)
	}
}

// facadeSelectors lists the X of every adhocsim.X selector in f, under the
// name f imports the root package by.
func facadeSelectors(f *ast.File) []string {
	local := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"adhocsim"` {
			local = "adhocsim"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return nil
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				names = append(names, sel.Sel.Name)
			}
		}
		return true
	})
	return names
}

// TestEveryInternalExportHasACaller is the internal surface tripwire: it
// type-checks the module and fails on every exported function or method
// declared under internal/ that none of five rules keeps.
//   - (a) A caller names it: non-test code anywhere in the module, or a
//     test of the root package or of benchmark/. Test-support packages
//     (rule d) do not count as callers.
//   - (b) Its receiver type, or a type embedding it, needs it to satisfy
//     an interface that some loaded package declares or some expression
//     spells out. A method an internal interface declares is kept by the
//     other rules alone.
//   - (c) README.md names it as pkg.Func or Type.Method.
//   - (d) Its package is test support: no non-test package imports it.
//   - (e) internalExportAllowlist keeps it, with the reason why.
//
// A generic function or method counts by its Origin, so a call on any
// instantiation keeps the declaration. The standard library is loaded
// from the export data `go list -export` names.
func TestEveryInternalExportHasACaller(t *testing.T) {
	mod := loadModule(t)

	// Rule (b): every method that a module type, or a type embedding it,
	// needs to implement an interface. An interface with type terms counts
	// by its methods alone.
	byName := make(map[string][]*types.Interface) // method name -> interfaces declaring it
	seen := make(map[*types.Interface]bool)
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		if !it.IsMethodSet() {
			methods := make([]*types.Func, it.NumMethods())
			for i := range methods {
				m := it.Method(i)
				sig := m.Type().(*types.Signature)
				methods[i] = types.NewFunc(m.Pos(), m.Pkg(), m.Name(),
					types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()))
			}
			it = types.NewInterfaceType(methods, nil).Complete()
		}
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range mod.all {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, tv := range mod.types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	needed := make(map[*types.Func]bool)
	for _, pkg := range mod.checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(ownInstance(t, tn.Type()))
			tried := make(map[*types.Interface]bool)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				for _, it := range byName[ms.At(i).Obj().Name()] {
					if tried[it] {
						continue
					}
					tried[it] = true
					if !types.Implements(ptr, it) {
						continue
					}
					for j := 0; j < it.NumMethods(); j++ {
						// The method ptr provides, declared or promoted.
						m := it.Method(j)
						obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
						if fn, ok := obj.(*types.Func); ok {
							needed[fn.Origin()] = true
						}
					}
				}
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]bool)
	var uncalled []string
	check := func(fn *types.Func, recv *types.Named) {
		if !fn.Exported() || mod.used[fn] || needed[fn] {
			return
		}
		qualified := fn.Pkg().Name() + "." + fn.Name()
		if recv != nil {
			qualified = recv.Obj().Name() + "." + fn.Name()
		}
		if regexp.MustCompile(`\b` + regexp.QuoteMeta(qualified) + `\b`).Match(readme) {
			return
		}
		key := strings.TrimPrefix(fn.Pkg().Path(), "adhocsim/internal/") + " " + qualified
		if _, ok := internalExportAllowlist[key]; ok {
			allowed[key] = true
			return
		}
		uncalled = append(uncalled, fmt.Sprintf("%s: %s", mod.fset.Position(fn.Pos()), key))
	}
	for _, pkg := range mod.internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				check(obj, nil)
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < n.NumMethods(); i++ {
					check(n.Method(i), n)
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						check(it.ExplicitMethod(i), n)
					}
				}
			}
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no caller outside tests: delete it", u)
	}
	for key := range internalExportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %q keeps nothing: remove it", key)
		}
	}
}

// ownInstance is a generic named type instantiated with its own type
// parameters, the receiver its methods see; any other type is itself.
func ownInstance(t *testing.T, typ types.Type) types.Type {
	n, ok := typ.(*types.Named)
	if !ok || n.TypeParams().Len() == 0 {
		return typ
	}
	args := make([]types.Type, n.TypeParams().Len())
	for i := range args {
		args[i] = n.TypeParams().At(i)
	}
	inst, err := types.Instantiate(nil, n, args, false)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// internalExportAllowlist keeps exported internal functions and methods that
// only tests name, each with the reason it stays. Keys are "pkg Func" or
// "pkg Type.Method", pkg relative to adhocsim/internal/.
var internalExportAllowlist = map[string]string{
	"dist permanentError.Unwrap": "errors.Is and errors.As reach it through an interface the errors " +
		"package declares inside a function, where no scan of package scopes sees it; the worker's " +
		"errors.Is(err, context.Canceled) needs it on a permanent error",
	"mobility mobility.Chain": "the line topology of the mac, network, phy, topo, trace and traffic " +
		"tests and of rtest.NewChain; deleting it would copy it into seven files",
	"pkt pkt.RoutingPacket": "a bodiless routing packet for the mac, network, pkt, routing, stats " +
		"and trace tests; deleting it would copy it into nine test files",
	"sim Lane.Len": "phy's lane test reads it to check that a transmission's legs sit in the " +
		"arrival lane and not in the engine's queue, which nothing outside package sim can see otherwise",
}

// typedModule is the module type-checked from source: every package's
// non-test files, the root package and benchmark/ with their tests.
type typedModule struct {
	fset     *token.FileSet
	internal []*types.Package                // non-test, non-test-support packages under internal/
	checked  []*types.Package                // every package of the module, as type-checked
	all      []*types.Package                // every package loaded, the standard library's included
	used     map[*types.Func]bool            // functions a caller names, by Origin
	types    map[ast.Expr]types.TypeAndValue // every checked expression
}

func loadModule(t *testing.T) *typedModule {
	t.Helper()
	type listed struct {
		ImportPath, Dir                    string
		GoFiles, TestGoFiles, XTestGoFiles []string
		Imports, TestImports, XTestImports []string
	}
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := make(map[string]*listed)
	var order []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}

	// Test support: a package under internal/ that no non-test code imports.
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Imports {
			imported[imp] = true
		}
	}
	support := func(path string) bool {
		return strings.HasPrefix(path, "adhocsim/internal/") && !imported[path]
	}
	// The root package and benchmark/ are checked with their tests.
	withTests := func(path string) bool { return path == "adhocsim" || path == "adhocsim/benchmark" }

	std := make(map[string]bool)
	for _, p := range pkgs {
		imps := p.Imports
		if withTests(p.ImportPath) {
			imps = append(append(append([]string(nil), imps...), p.TestImports...), p.XTestImports...)
		}
		for _, imp := range imps {
			if pkgs[imp] == nil && imp != "unsafe" {
				std[imp] = true
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for imp := range std {
		args = append(args, imp)
	}
	out, err = exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}

	m := &typedModule{
		fset:  token.NewFileSet(),
		used:  make(map[*types.Func]bool),
		types: make(map[ast.Expr]types.TypeAndValue),
	}
	checked := make(map[string]*types.Package)
	imp := moduleImporter{checked, importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	typeCheck := func(path, dir string, files []string, caller bool) *types.Package {
		var parsed []*ast.File
		for _, name := range files {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, f)
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: m.types}
		pkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, parsed, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		if caller {
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					m.used[fn.Origin()] = true
				}
			}
		}
		return pkg
	}

	var visit func(path string)
	visit = func(path string) {
		p := pkgs[path]
		if p == nil || checked[path] != nil {
			return
		}
		deps, files := p.Imports, p.GoFiles
		if withTests(path) {
			deps = append(append([]string(nil), deps...), p.TestImports...)
			files = append(append([]string(nil), files...), p.TestGoFiles...)
		}
		for _, dep := range deps {
			visit(dep)
		}
		pkg := typeCheck(path, p.Dir, files, !support(path))
		checked[path] = pkg
		if strings.HasPrefix(path, "adhocsim/internal/") && !support(path) {
			m.internal = append(m.internal, pkg)
		}
	}
	for _, path := range order {
		visit(path)
	}
	for _, path := range order {
		if p := pkgs[path]; withTests(path) && len(p.XTestGoFiles) > 0 {
			for _, dep := range p.XTestImports {
				visit(dep)
			}
			typeCheck(path+"_test", p.Dir, p.XTestGoFiles, true)
		}
	}

	done := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if done[p] {
			return
		}
		done[p] = true
		m.all = append(m.all, p)
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		m.checked = append(m.checked, p)
		walk(p)
	}
	return m
}

// moduleImporter serves the module's packages as checked from source and
// the standard library from export data.
type moduleImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.module[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}
