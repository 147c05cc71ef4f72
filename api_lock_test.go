package clusched

// The public-API lock: a golden list of every exported identifier of the
// root package (types, funcs, consts, vars, and methods on exported
// types), so accidental surface breakage — a renamed option, a method
// falling off the Backend contract, a deleted deprecated wrapper — fails
// go test instead of shipping. Deliberate surface changes update the
// golden list in the same commit that makes them.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// publicAPI is the golden surface, sorted. Methods are listed as
// Type.Method. Identifiers that are aliases of internal types (Graph,
// Options, Compiler, …) appear as their root-package names only — their
// method sets are pinned by the conformance suite and compile-time
// assertions, not by this list.
var publicAPI = []string{
	"Backend",
	"BatchError",
	"BenchmarkLoops",
	"Benchmarks",
	"Builder",
	"CacheStats",
	"Cause",
	"CauseBus",
	"CauseRecurrence",
	"CauseRegisters",
	"Client",
	"Client.Compile",
	"Client.Do",
	"Client.Health",
	"Client.Stats",
	"Client.Stream",
	"Cluster",
	"Collect",
	"Compile",
	"CompileJob",
	"CompileOutcome",
	"Compiler",
	"DefaultClientTimeout",
	"ExpandPipeline",
	"FleetStats",
	"Graph",
	"HeteroMachine",
	"Loop",
	"Machine",
	"MustParseMachine",
	"NewCluster",
	"NewLocal",
	"NewLoop",
	"NewOptions",
	"NewRemote",
	"NewTrace",
	"NodeStats",
	"NumCauses",
	"OpFAdd",
	"OpFDiv",
	"OpFMul",
	"OpIAdd",
	"OpIDiv",
	"OpIMul",
	"OpKind",
	"OpLoad",
	"OpStore",
	"Option",
	"Options",
	"ParseLoops",
	"ParseMachine",
	"PaperMachines",
	"Pipeline",
	"Progress",
	"QueueFullError",
	"QueueFullError.Error",
	"Result",
	"SPECfp95",
	"Schedule",
	"Strategies",
	"StrategyDescription",
	"Trace",
	"UnifiedMachine",
	"WithCacheSize",
	"WithHTTPClient",
	"WithHealthInterval",
	"WithHedge",
	"WithIgnoreRegisterPressure",
	"WithLengthReplication",
	"WithMacroReplication",
	"WithMaxII",
	"WithNodeInFlight",
	"WithProgress",
	"WithReplication",
	"WithSpeculation",
	"WithStrategy",
	"WithTimeout",
	"WithTrace",
	"WithVerification",
	"WithWorkers",
	"WithZeroBusLatency",
	"RemoteStats",
}

// exportedSurface parses every non-test .go file of the package directory
// and collects the exported top-level identifiers.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil || len(d.Recv.List) == 0 {
					got = append(got, d.Name.Name)
					continue
				}
				recv := receiverName(d.Recv.List[0].Type)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				got = append(got, recv+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							got = append(got, sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	return slices.Compact(got)
}

// receiverName unwraps *T / T receivers to the bare type name.
func receiverName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverName(e.X)
	}
	return ""
}

func TestPublicAPILock(t *testing.T) {
	got := exportedSurface(t)
	want := append([]string(nil), publicAPI...)
	slices.Sort(want)
	if slices.Equal(got, want) {
		return
	}
	var missing, extra []string
	for _, id := range want {
		if !slices.Contains(got, id) {
			missing = append(missing, id)
		}
	}
	for _, id := range got {
		if !slices.Contains(want, id) {
			extra = append(extra, id)
		}
	}
	msg := &strings.Builder{}
	fmt.Fprintf(msg, "public API surface changed (update publicAPI in api_lock_test.go if intentional)\n")
	if len(missing) > 0 {
		fmt.Fprintf(msg, "  removed from package: %v\n", missing)
	}
	if len(extra) > 0 {
		fmt.Fprintf(msg, "  newly exported: %v\n", extra)
	}
	t.Fatal(msg.String())
}
