package ddg_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/unroll"
	"clusched/internal/workload"
)

// oracleGraphs is the population the labeling is held to: the pinned suite
// and the head of the default corpus.
func oracleGraphs(corpusLoops int) []*ddg.Graph {
	var graphs []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		graphs = append(graphs, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := 0; i < corpusLoops; i++ {
		graphs = append(graphs, spec.Loop(i))
	}
	return graphs
}

// TestCanonicalClassesMatchReference is the class oracle. The labeling in
// canonical.go and the retired one (canonical_reference_test.go) pick
// different winning labelings, so their Sums differ graph by graph; what
// must agree is what the Sums are used for — which graphs share one. Over
// suite + corpus, each with three relabeled clones, the two must induce the
// same classes one-to-one, agree on Complete everywhere, and the new code
// must find every clone the reference finds.
func TestCanonicalClassesMatchReference(t *testing.T) {
	corpusLoops := 8000
	if testing.Short() || ddg.RaceDetector {
		corpusLoops = 1000
	}
	toRef := map[uint64]uint64{} // new Sum → reference Sum
	toNew := map[uint64]uint64{} // reference Sum → new Sum
	missed, refMissed, incomplete := 0, 0, 0
	check := func(g *ddg.Graph) (got, ref ddg.Canonical) {
		got, ref = ddg.Canonicalize(g), ddg.CanonicalizeReference(g)
		if got.Complete != ref.Complete {
			t.Errorf("%s: Complete = %v, reference %v", g.Name, got.Complete, ref.Complete)
		}
		if !got.Complete {
			incomplete++
		}
		if r, ok := toRef[got.Sum]; ok && r != ref.Sum {
			t.Errorf("%s: Sum %016x joins graphs the reference keeps apart (%016x, %016x)", g.Name, got.Sum, r, ref.Sum)
		}
		if s, ok := toNew[ref.Sum]; ok && s != got.Sum {
			t.Errorf("%s: reference class %016x is split (%016x, %016x)", g.Name, ref.Sum, s, got.Sum)
		}
		toRef[got.Sum], toNew[ref.Sum] = ref.Sum, got.Sum
		return got, ref
	}
	graphs := oracleGraphs(corpusLoops)
	for i, g := range graphs {
		got, ref := check(g)
		for k := 0; k < 3; k++ {
			clone := ddg.PermuteRandom(g, g.Name+"#p", int64(i)*7919+int64(k)*104729+1)
			cgot, cref := check(clone)
			if cref.Sum != ref.Sum {
				refMissed++
			} else if cgot.Sum != got.Sum {
				missed++
				t.Errorf("%s: clone %d missed (the reference catches it)", g.Name, k)
			}
			if cgot.Sum == got.Sum {
				if err := ddg.CheckIsomorphism(g, clone, got.Perm, cgot.Perm); err != nil {
					t.Errorf("%s: clone %d: %v", g.Name, k, err)
				}
			}
		}
	}
	t.Logf("%d graphs + %d clones: %d classes, %d incomplete labelings, %d clones missed (reference: %d)",
		len(graphs), 3*len(graphs), len(toRef), incomplete, missed, refMissed)
}

// twinStrands builds the symmetry loop DDGs actually have — the body of an
// unrolled or multi-stream loop: `strands` identical, unconnected
// load → fmul → fadd → … → store chains of `length` arithmetic operations,
// each with its own accumulator recurrence. Refinement cannot tell the
// strands apart, so the exhaustive search is out of budget and the linear
// descent labels them.
func twinStrands(strands, length int) *ddg.Graph {
	b := ddg.NewBuilder(fmt.Sprintf("twins%dx%d", strands, length))
	for s := 0; s < strands; s++ {
		prev := b.Node("", ddg.OpLoad)
		for i := 0; i < length; i++ {
			op := ddg.OpFMul
			if i%2 == 1 {
				op = ddg.OpFAdd
			}
			v := b.Node("", op)
			b.Edge(prev, v, 0)
			prev = v
		}
		b.Edge(prev, prev, 1)
		b.Edge(prev, b.Node("", ddg.OpStore), 0)
	}
	return b.MustBuild()
}

// TestCanonicalTwinStrands: relabelings of a twin-strand loop must all hit
// although no search can be completed on it, and a loop with one strand
// altered must not.
func TestCanonicalTwinStrands(t *testing.T) {
	for _, strands := range []int{2, 8, 32} {
		g := twinStrands(strands, 6)
		want, ref := ddg.Canonicalize(g), ddg.CanonicalizeReference(g)
		if want.Complete || ref.Complete {
			t.Errorf("%s: Complete = %v (reference %v) on a graph no search can exhaust", g.Name, want.Complete, ref.Complete)
		}
		for seed := int64(1); seed <= 8; seed++ {
			clone := ddg.PermuteRandom(g, g.Name+"#p", seed)
			got := ddg.Canonicalize(clone)
			if got.Sum != want.Sum || got.Complete != want.Complete {
				t.Fatalf("%s: relabeling %d missed", g.Name, seed)
			}
			if err := ddg.CheckIsomorphism(g, clone, want.Perm, got.Perm); err != nil {
				t.Fatalf("%s: relabeling %d: %v", g.Name, seed, err)
			}
		}
		if other := twinStrands(strands, 7); ddg.Canonicalize(other).Sum == want.Sum {
			t.Errorf("%s collides with %s", g.Name, other.Name)
		}
	}
}

// TestCanonicalUnrolledLoopsHit: unrolling ×4 is where twin strands come
// from in practice (the paper's unrolled variants). Every unrolled suite
// loop and a relabeling of it must share a Sum, under a labeling that
// composes to an isomorphism.
func TestCanonicalUnrolledLoopsHit(t *testing.T) {
	loops := workload.SPECfp95()
	step := 7
	if testing.Short() {
		step = 41
	}
	for i := 0; i < len(loops); i += step {
		u, err := unroll.Unroll(loops[i].Graph, 4)
		if err != nil {
			t.Fatalf("%s: %v", loops[i].Graph.Name, err)
		}
		clone := ddg.PermuteRandom(u, u.Name+"#p", int64(i)+1)
		a, b := ddg.Canonicalize(u), ddg.Canonicalize(clone)
		ra, rb := ddg.CanonicalizeReference(u), ddg.CanonicalizeReference(clone)
		if a.Complete != ra.Complete {
			t.Errorf("%s: Complete = %v, reference %v", u.Name, a.Complete, ra.Complete)
		}
		if a.Sum != b.Sum {
			if ra.Sum == rb.Sum {
				t.Errorf("%s: relabeling missed (the reference catches it)", u.Name)
			}
			continue
		}
		if err := ddg.CheckIsomorphism(u, clone, a.Perm, b.Perm); err != nil {
			t.Errorf("%s: %v", u.Name, err)
		}
	}
}

// TestCanonicalFormConcurrent gives the race detector the labeling's pooled
// state to bite on: goroutines label their own graphs and, all at once, one
// shared graph (the memo's sync.Once under contention), as driver workers
// and cluster.route do. Everything must agree with a serial pass.
func TestCanonicalFormConcurrent(t *testing.T) {
	const workers, each = 8, 40
	spec := corpus.DefaultSpec()
	want := make([]ddg.Canonical, workers*each)
	for i := range want {
		want[i] = ddg.Canonicalize(spec.Loop(i))
	}
	shared := twinStrands(8, 6)
	wantShared := ddg.Canonicalize(shared)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				got := spec.Loop(i).CanonicalForm()
				if got.Sum != want[i].Sum || got.Complete != want[i].Complete || !slices.Equal(got.Perm, want[i].Perm) {
					t.Errorf("loop %d: concurrent labeling differs from the serial one", i)
				}
				if got := shared.CanonicalForm(); got.Sum != wantShared.Sum || !slices.Equal(got.Perm, wantShared.Perm) {
					t.Errorf("shared graph: concurrent labeling differs from the serial one")
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCanonicalFingerprint measures one cold canonicalization — the
// cost the engine pays per fresh presentation on the semantic tier — next
// to the retired labeling's on the same graphs, so the ratio stays one
// `go test -bench` away. Both bypass the memo (the memoized path is a Once
// check). corpus is the shape mix the benchmark's workloads draw from;
// twins and rand256 are the symmetric and the large case.
func BenchmarkCanonicalFingerprint(b *testing.B) {
	spec := corpus.DefaultSpec()
	loops := make([]*ddg.Graph, 512)
	for i := range loops {
		loops[i] = spec.Loop(i)
	}
	cases := []struct {
		name   string
		graphs []*ddg.Graph
	}{
		{"n=16", []*ddg.Graph{ddg.RandomValidGraph(42, 16)}},
		{"n=64", []*ddg.Graph{ddg.RandomValidGraph(42, 64)}},
		{"corpus", loops},
		{"twins8x6", []*ddg.Graph{twinStrands(8, 6)}},
		{"twins32x6", []*ddg.Graph{twinStrands(32, 6)}},
		{"rand256", []*ddg.Graph{ddg.RandomValidGraph(42, 256)}},
	}
	for _, c := range cases {
		for _, impl := range []struct {
			suffix string
			label  func(*ddg.Graph) ddg.Canonical
		}{{"", ddg.Canonicalize}, {"Reference", ddg.CanonicalizeReference}} {
			b.Run(c.name+impl.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := c.graphs[i%len(c.graphs)]
					if got := impl.label(g); len(got.Perm) != g.NumNodes() {
						b.Fatal("bad perm")
					}
				}
			})
		}
	}
}
