package ddg_test

import (
	"context"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// TestPlantedCollisionIsAMiss: three pairs of loops with equal sizes and
// opcodes that are not isomorphic get one canonical Sum, and a labeling
// that keeps every opcode. Neither loop's compilation may be moved onto
// the other (pipeline.RemapResult), and an engine that holds one answers
// the other with its own compilation, not a semantic hit. On a one-cluster
// machine each pair expands to as many instances and edges, so the remap's
// edge match is all that refuses them.
func TestPlantedCollisionIsAMiss(t *testing.T) {
	for _, pair := range []struct{ what, a, b string }{
		{"a hexagon against two triangles",
			"loop hexagon\nnode a fadd\nnode b fadd\nnode c fadd\nnode d fadd\nnode e fadd\nnode f fadd\n" +
				"edge a b dist 1\nedge b c dist 1\nedge c d dist 1\nedge d e dist 1\nedge e f dist 1\nedge f a dist 1\nend\n",
			"loop triangles\nnode a fadd\nnode b fadd\nnode c fadd\nnode d fadd\nnode e fadd\nnode f fadd\n" +
				"edge a b dist 1\nedge b c dist 1\nedge c a dist 1\nedge d e dist 1\nedge e f dist 1\nedge f d dist 1\nend\n"},
		{"one edge's latency",
			"loop short\nnode l load\nnode m fmul\nnode s store\nedge l m\nedge m s lat 3\nend\n",
			"loop long\nnode l load\nnode m fmul\nnode s store\nedge l m\nedge m s lat 6\nend\n"},
		{"a duplicated parallel edge",
			"loop twice_in\nnode l load\nnode m fmul\nnode s store\nedge l m\nedge l m\nedge m s\nend\n",
			"loop twice_out\nnode l load\nnode m fmul\nnode s store\nedge l m\nedge m s\nedge m s\nend\n"},
	} {
		t.Run(pair.what, func(t *testing.T) {
			a, b := parseOne(t, pair.a), parseOne(t, pair.b)
			ca := a.CanonicalForm()
			ddg.PlantCanonical(b, ddg.Canonical{Sum: ca.Sum, Perm: ca.Perm, Complete: ca.Complete})
			m, opts := machine.Unified(64), pipeline.Options{}
			for _, g := range []*ddg.Graph{a, b} {
				h := a
				if g == a {
					h = b
				}
				res, err := pipeline.Compile(g, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := pipeline.RemapResult(res, h, opts); err == nil {
					t.Fatalf("%s's compilation was moved onto %s: %v", g.Name, h.Name, got.Schedule.Time)
				}
				c := driver.New(driver.Config{})
				ctx := context.Background()
				if _, err := c.Compile(ctx, driver.Job{Graph: g, Machine: m, Opts: opts}); err != nil {
					t.Fatal(err)
				}
				got, err := c.Compile(ctx, driver.Job{Graph: h, Machine: m, Opts: opts})
				if err != nil || got.Loop != h || c.CacheStats().SemanticHits != 0 {
					t.Fatalf("%s after %s: err %v, %d semantic hits, want its own compilation", h.Name, g.Name, err, c.CacheStats().SemanticHits)
				}
			}
		})
	}
}

func parseOne(t *testing.T, text string) *ddg.Graph {
	t.Helper()
	g, err := ddg.ParseOneString(text)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
