package pipeline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// pipelineFuncs is the golden set of the package's exported functions
// (methods excluded), sorted. Exactly three of them compile a loop —
// Compile, CompileContextArena and Search, all one search underneath. A
// fourth door fails here; a deliberate change updates the list in the
// commit that makes it.
var pipelineFuncs = []string{
	"Chain",
	"ClassifyFailure",
	"Compile",
	"CompileContextArena",
	"KnownStrategy",
	"LookupStrategy",
	"MaxII",
	"NewArena",
	"RegisterStrategy",
	"RemapResult",
	"Search",
	"StrategyDescription",
	"StrategyNames",
}

// TestPipelineDoors parses the package source and pins its exported
// function set, the way the root package's api_lock_test.go pins the
// public surface.
func TestPipelineDoors(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				got = append(got, fn.Name.Name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, pipelineFuncs) {
		t.Fatalf("exported functions of internal/pipeline changed:\n got: %v\nwant: %v", got, pipelineFuncs)
	}
}
