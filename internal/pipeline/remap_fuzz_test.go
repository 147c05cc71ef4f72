package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// FuzzCanonicalRemap fuzzes the semantic tier's trust boundary end to end:
// whatever loop the text parser admits is relabeled at random, and the two
// presentations must get one canonical identity (Sum and Complete), their
// Perms must compose to an isomorphism, and a compilation of the first must
// transplant onto the second with the same II, length, stage count and
// communications, pass sched.Verify there and be deep-equal to the
// retired remap's (remap_reference_test.go). A loop that does not compile
// is an error value and nothing to remap; a panic anywhere is a finding.
//
// An incomplete labeling is allowed by contract to miss on a graph whose
// refinement cells are not automorphism orbits (a hexagon beside two
// triangles, all one opcode). The fuzzer has not produced one; if it does,
// the failure below is that known limit, not a wrong schedule.
func FuzzCanonicalRemap(f *testing.F) {
	for _, text := range parserFuzzCorpus(f) {
		f.Add(text, int64(1))
	}
	for i, l := range workload.SPECfp95()[:6] {
		text, err := ddg.MarshalText(l.Graph)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text, int64(i))
	}
	// Symmetry the exhaustive search completes on (a 4-ring), and symmetry
	// it cannot (three twin strands): both descents, both hit.
	f.Add("loop ring\nnode a fadd\nnode b fadd\nnode c fadd\nnode d fadd\n"+
		"edge a b dist 1\nedge b c dist 1\nedge c d dist 1\nedge d a dist 1\nend\n", int64(7))
	f.Add("loop twins\nnode l0 load\nnode m0 fmul\nnode s0 store\nnode l1 load\nnode m1 fmul\nnode s1 store\n"+
		"node l2 load\nnode m2 fmul\nnode s2 store\nedge l0 m0\nedge m0 s0\nedge l1 m1\nedge m1 s1\n"+
		"edge l2 m2\nedge m2 s2\nedge m0 m0 dist 1\nedge m1 m1 dist 1\nedge m2 m2 dist 1\nend\n", int64(3))
	m := remapMachine()
	opts := Options{Replicate: true}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		graphs, err := ddg.ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, g := range graphs {
			if !remapFuzzable(g) {
				continue
			}
			clone := ddg.PermuteRandom(g, g.Name+"#p", seed)
			cg, cc := g.CanonicalForm(), clone.CanonicalForm()
			if cg.Sum != cc.Sum || cg.Complete != cc.Complete {
				t.Fatalf("relabeling moved the canonical identity (%016x/%v vs %016x/%v):\n%s",
					cg.Sum, cg.Complete, cc.Sum, cc.Complete, text)
			}
			if err := composesToIsomorphism(g, clone, cg.Perm, cc.Perm); err != nil {
				t.Fatalf("canonical permutations do not compose to an isomorphism: %v\n%s", err, text)
			}
			res, err := Compile(g, m, opts)
			if err != nil {
				continue
			}
			got, err := RemapResult(res, clone, opts)
			if err != nil {
				t.Fatalf("a compiled loop does not remap onto its relabeling: %v\n%s", err, text)
			}
			if want, err := referenceRemapResult(res, clone, opts); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("the remap is not the retired one's (%v)\n%s", err, text)
			}
			if got.II != res.II || got.Length != res.Length || got.SC != res.SC || got.Comms != res.Comms {
				t.Fatalf("remap changed the headline: II %d→%d length %d→%d SC %d→%d comms %d→%d\n%s",
					res.II, got.II, res.Length, got.Length, res.SC, got.SC, res.Comms, got.Comms, text)
			}
			if got.Loop != clone {
				t.Fatalf("remapped result does not point at the relabeled graph")
			}
			if err := sched.Verify(got.Schedule); err != nil {
				t.Fatalf("remapped schedule fails verification: %v\n%s", err, text)
			}
		}
	})
}

// remapFuzzable keeps the fuzzer on the labeling and the transplant rather
// than on the II search: a loop with hundreds of nodes or a hostile latency
// buys seconds of compilation per input and exercises nothing more here.
func remapFuzzable(g *ddg.Graph) bool {
	if g.NumNodes() == 0 || g.NumNodes() > 48 || g.NumEdges() > 192 {
		return false
	}
	for i := range g.Edges {
		if e := &g.Edges[i]; e.Lat > 64 || e.Dist > 16 {
			return false
		}
	}
	return true
}

// parserFuzzCorpus returns the inputs committed under
// internal/ddg/testdata/fuzz/FuzzParseText (the text parser's regression
// seeds), decoded from the "go test fuzz v1" format.
func parserFuzzCorpus(f *testing.F) []string {
	files, err := filepath.Glob(filepath.Join("..", "ddg", "testdata", "fuzz", "FuzzParseText", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var texts []string
	for _, name := range files {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(blob), "\n") {
			quoted, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			text, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			texts = append(texts, text)
		}
	}
	return texts
}

// composesToIsomorphism checks that pg and ph, the canonical permutations
// of g and h, are bijections onto [0, n) whose composition g → h preserves
// opcodes and carries g's edge multiset exactly onto h's.
func composesToIsomorphism(g, h *ddg.Graph, pg, ph []int32) error {
	n := g.NumNodes()
	if h.NumNodes() != n || h.NumEdges() != g.NumEdges() || len(pg) != n || len(ph) != n {
		return fmt.Errorf("sizes differ")
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for v, c := range ph {
		if c < 0 || int(c) >= n || inv[c] >= 0 {
			return fmt.Errorf("Perm is not a bijection onto [0, %d)", n)
		}
		inv[c] = v
	}
	sigma := make([]int, n)
	seen := make([]bool, n)
	for v, c := range pg {
		if c < 0 || int(c) >= n || seen[c] {
			return fmt.Errorf("Perm is not a bijection onto [0, %d)", n)
		}
		seen[c] = true
		sigma[v] = inv[c]
		if g.Nodes[v].Op != h.Nodes[sigma[v]].Op {
			return fmt.Errorf("node %d → %d changes the opcode", v, sigma[v])
		}
	}
	count := make(map[[5]int]int, h.NumEdges())
	for i := range h.Edges {
		e := &h.Edges[i]
		count[[5]int{e.Src, e.Dst, int(e.Kind), e.Dist, e.Lat}]++
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		k := [5]int{sigma[e.Src], sigma[e.Dst], int(e.Kind), e.Dist, e.Lat}
		if count[k] == 0 {
			return fmt.Errorf("edge %d has no image", i)
		}
		count[k]--
	}
	return nil
}
