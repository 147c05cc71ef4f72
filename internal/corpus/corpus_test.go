package corpus_test

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/corpus/validate"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

func TestLoopsAreValidAndDeterministic(t *testing.T) {
	sp := corpus.DefaultSpec()
	sp.N = 300
	for i, g := range sp.Loops() {
		if err := g.Validate(); err != nil {
			t.Fatalf("loop %d invalid: %v", i, err)
		}
		again := sp.Loop(i)
		if g.Fingerprint() != again.Fingerprint() {
			t.Fatalf("loop %d not deterministic", i)
		}
	}
	// Loop i depends only on (Seed, i), not on N.
	small := sp
	small.N = 10
	if sp.Loop(7).Fingerprint() != small.Loop(7).Fingerprint() {
		t.Fatal("loop 7 depends on corpus size")
	}
	// A different master seed yields a different corpus.
	other := sp
	other.Seed = 2
	same := 0
	for i := 0; i < 50; i++ {
		if sp.Loop(i).Fingerprint() == other.Loop(i).Fingerprint() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("%d/50 loops identical across seeds", same)
	}
}

func TestSpecKnobs(t *testing.T) {
	sp := corpus.DefaultSpec()
	sp.N = 100

	// Shape mix: a single-family mix generates only that family.
	sp.Shapes = corpus.ShapeMix{}
	sp.Shapes[corpus.ShapeCyclic] = 1
	for i, g := range sp.Loops() {
		if !strings.HasSuffix(g.Name, "_cyclic") {
			t.Fatalf("loop %d: want cyclic family, got %s", i, g.Name)
		}
	}

	// Size range: generated loops track the bound (families round the
	// budget to whole strands, so allow slack, not an exact ceiling).
	sp = corpus.DefaultSpec()
	sp.N = 100
	sp.Size = corpus.IntRange{Lo: 40, Hi: 60}
	for i, g := range sp.Loops() {
		if n := g.NumNodes(); n < 10 || n > 120 {
			t.Fatalf("loop %d: %d nodes for size range 40:60", i, n)
		}
	}

	// Memory-edge density: more mem edges at 1.0 than at 0.
	memEdges := func(mem float64) int {
		s := corpus.DefaultSpec()
		s.N = 100
		s.MemEdges = mem
		s.Shapes = corpus.ShapeMix{}
		s.Shapes[corpus.ShapeChain] = 1
		total := 0
		for _, g := range s.Loops() {
			for _, e := range g.Edges {
				if e.Kind == ddg.EdgeMem {
					total++
				}
			}
		}
		return total
	}
	lo, hi := memEdges(0.001), memEdges(1.0)
	if hi <= lo {
		t.Fatalf("mem density knob inert: %d edges at 0.001, %d at 1.0", lo, hi)
	}
}

// TestParseHelpers drives the parsers through the flag group both commands
// declare: set flags land on the Spec, unset ones keep its values, and a
// malformed value is refused.
func TestParseHelpers(t *testing.T) {
	apply := func(args ...string) (corpus.Spec, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := corpus.NewSpecFlags(fs, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		spec := corpus.DefaultSpec()
		return spec, f.Apply(&spec)
	}
	spec, err := apply("-size", "8:48", "-scc", "chain=2,tree,cyclic=0.5", "-lat", "fadd=3,iadd", "-mem", "0", "-pressure", "0.25")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size != (corpus.IntRange{Lo: 8, Hi: 48}) {
		t.Errorf("-size: %v", spec.Size)
	}
	if m := spec.Shapes; m[corpus.ShapeChain] != 2 || m[corpus.ShapeTree] != 1 || m[corpus.ShapeCyclic] != 0.5 || m[corpus.ShapeWide] != 0 {
		t.Errorf("-scc: %v", m)
	}
	if om := spec.Ops; om.FAdd != 3 || om.IAdd != 1 || om.FMul != 0 {
		t.Errorf("-lat: %+v", om)
	}
	if spec.MemEdges != 0 || spec.Pressure != 0.25 {
		t.Errorf("-mem/-pressure: %v/%v", spec.MemEdges, spec.Pressure)
	}
	if unset, err := apply(); err != nil || !reflect.DeepEqual(unset, corpus.DefaultSpec()) {
		t.Errorf("no flags: %+v, %v; want the Spec unchanged", unset, err)
	}
	for _, bad := range [][]string{{"-size", "48:8"}, {"-size", "big"}, {"-scc", "zigzag=1"}, {"-scc", "chain=0"}, {"-lat", "bogus=1"}, {"-lat", "fadd=-1"}} {
		if _, err := apply(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestValidateCatchesIILie mutates one issue time of a correct schedule —
// pulling a consumer before its producer completes — and expects the
// harness to report a Divergence rather than confirm the claim.
func TestValidateCatchesIILie(t *testing.T) {
	sp := corpus.DefaultSpec()
	m := machine.MustParse("4c2b2l64r")
	opts := pipeline.Options{Replicate: true, VerifySchedules: true}
	mutated := 0
	for i := 0; i < 50 && mutated < 5; i++ {
		g := sp.Loop(i)
		res, err := pipeline.Compile(g, m, opts)
		if err != nil {
			continue
		}
		if d := validate.Schedule(res, "paper", opts, i, sp.LoopSeed(i), 0); d != nil {
			t.Fatalf("honest schedule diverged: %s", d)
		}
		// Find a data-dependent instance and pull it before its producer.
		s := res.Schedule
		victim, newTime := int32(-1), 0
		for v := int32(0); v < int32(s.IG.NumInstances()) && victim < 0; v++ {
			for _, eid := range s.IG.In(v) {
				e := &s.IG.Edges[eid]
				if !e.Data || e.Dist > 0 {
					continue
				}
				if below := s.Time[e.Src] + int(e.Lat) - 1; below >= 0 && below < s.Time[v] {
					victim, newTime = v, below
					break
				}
			}
		}
		if victim < 0 {
			continue
		}
		corrupt := *res
		cs := *s
		cs.Time = append([]int(nil), s.Time...)
		cs.Time[victim] = newTime
		corrupt.Schedule = &cs
		d := validate.Schedule(&corrupt, "paper", opts, i, sp.LoopSeed(i), 0)
		if d == nil {
			t.Fatalf("loop %d: mutated schedule validated", i)
		}
		if d.Err == "" && d.TraceDiff == "" && d.SimCPI == float64(corrupt.II) {
			t.Fatalf("loop %d: divergence carries no evidence: %s", i, d)
		}
		if d.Index != i || d.Strategy != "paper" || d.LoopSeed != sp.LoopSeed(i) {
			t.Fatalf("loop %d: divergence not replayable: %+v", i, d)
		}
		mutated++
	}
	if mutated == 0 {
		t.Fatal("no schedule offered a mutable dependence")
	}
}
