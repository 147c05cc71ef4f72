package clusched

// Structural pins: properties of the source tree itself, checked by parsing
// it, so they run under go test and not only in CI.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// requestSite is the one place that builds an HTTP request for a
// clusched-serve: wire.Endpoint.request.
const requestSite = "internal/wire/http.go"

// TestOneRequestSite: wire.Endpoint.request is the only code that builds an
// HTTP request for a clusched-serve. A second site is a second place to add a
// header, type a refusal or forget a timeout. cmd/ and bench/ talk to other
// things too, so they are not searched.
func TestOneRequestSite(t *testing.T) {
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "cmd" || name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, pos := range requestCalls(f) {
			sites = append(sites, fset.Position(pos).String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || !strings.HasPrefix(filepath.ToSlash(sites[0]), requestSite+":") {
		t.Fatalf("HTTP requests are built at %v; want exactly one site, in %s", sites, requestSite)
	}
}

// requestCalls returns the positions of f's calls to net/http's
// NewRequestWithContext and NewRequest, under whatever name f imports the
// package.
func requestCalls(f *ast.File) []token.Pos {
	pkg := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "net/http" {
			pkg = "http"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	var calls []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg &&
			(sel.Sel.Name == "NewRequestWithContext" || sel.Sel.Name == "NewRequest") {
			calls = append(calls, call.Pos())
		}
		return true
	})
	return calls
}
