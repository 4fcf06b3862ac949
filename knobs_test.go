package adhocsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
