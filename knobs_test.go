package adhocsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
