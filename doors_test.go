package clusched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyDoors: every exported function and method of the packages
// under internal/ is called, or named, outside tests. An export only tests
// use is a second door — an allocating twin of the door the compiler runs,
// most often — and the tests that go through it stop testing the program's.
// A function counts as used where its package calls it or another package
// names it through its import; a struct field, interface method or
// composite-literal key of the same name is no use of it. A method counts
// as used wherever its name is selected, on any receiver, so the check can
// miss a test-only method whose name another type's method shares. Two
// methods count as used with no caller here: Unwrap, which the errors package calls, and ResetCache,
// the public clusched.Compiler's door for a caller that measures cold
// work, such as the root package's benchmarks.
func TestNoTestOnlyDoors(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	type source struct {
		pkg string // the package's directory
		f   *ast.File
	}
	var tree []source // every non-test Go file of the module
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(file, ".go") && !strings.HasSuffix(file, "_test.go") {
			tree = append(tree, source{filepath.ToSlash(filepath.Dir(file)), parse(file)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type door struct{ pkg, name string }
	funcs := map[door]bool{} // exported package-level functions
	methods := map[string][]string{}
	for _, src := range tree {
		if !strings.HasPrefix(src.pkg, "internal/") {
			continue
		}
		for _, d := range src.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || !fn.Name.IsExported():
			case fn.Recv == nil:
				funcs[door{src.pkg, fn.Name.Name}] = false
			case exportedReceiver(fn):
				methods[fn.Name.Name] = append(methods[fn.Name.Name], src.pkg)
			}
		}
	}
	if len(funcs) == 0 || len(methods) == 0 {
		t.Fatal("no exported functions or methods found under internal/")
	}
	selected := map[string]bool{"Unwrap": true, "ResetCache": true}
	for _, src := range tree {
		f, pkg := src.f, src.pkg
		imported := map[string]string{} // local name → package directory
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it quoted
			dir := strings.TrimPrefix(p, "clusched/")
			name := path.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = dir
		}
		use := func(d door) {
			if _, ok := funcs[d]; ok {
				funcs[d] = true
			}
		}
		// Declared names, selected ones, and the names of fields (struct
		// fields, interface methods, parameters) and composite-literal keys.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.Field:
				for _, name := range n.Names {
					skip[name] = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							skip[key] = true
						}
					}
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					use(door{imported[x.Name], n.Sel.Name})
				}
			case *ast.Ident:
				if !skip[n] {
					use(door{pkg, n.Name})
				}
			}
			return true
		})
	}
	var testOnly []string
	for d, used := range funcs {
		if !used {
			testOnly = append(testOnly, d.pkg+"."+d.name)
		}
	}
	for name, pkgs := range methods {
		if !selected[name] {
			for _, pkg := range pkgs {
				testOnly = append(testOnly, pkg+" method "+name)
			}
		}
	}
	slices.Sort(testOnly)
	if len(testOnly) > 0 {
		t.Errorf("exported under internal/ but used only by tests: %v", testOnly)
	}
}

// exportedReceiver reports whether the method fn belongs to an exported
// type: a method of an unexported one (a sort.Interface) is no door.
func exportedReceiver(fn *ast.FuncDecl) bool {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}
