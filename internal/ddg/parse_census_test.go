package ddg_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"clusched/internal/ddg"
)

// parseObjects is what ParseOneString allocates on a warm parser pool: the
// graph, its nodes, its edges and the two backing arrays of its adjacency
// (the per-node lists and the edge ids they are cut from). Everything else
// a parse needs — the label index edges are resolved with, degrees, the
// cycle check's memory, the list of loops read — is the pooled parser's.
const parseObjects = 5

// parseAllocs is the exact number of heap objects one more parse of text
// allocates: the least of three counted runs, so a collection's own
// bookkeeping cannot show up as one of ours.
func parseAllocs(t *testing.T, text string) (n uint64, g *ddg.Graph, err error) {
	t.Helper()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		g, err = ddg.ParseOneString(text)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least, g, err
}

// TestParseCensus: every suite loop's text becomes a Graph in exactly
// parseObjects objects; a parse that fails — at a line, at the end
// directive, at the end of input, in Validate — hands the parser back as
// clean as one that succeeded, so the next parse costs the same and yields
// the graph a parser that never saw the failure yields.
func TestParseCensus(t *testing.T) {
	if ddg.RaceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	graphs, texts := suiteTexts(t)
	for i, text := range texts {
		if graphs[i].NumEdges() == 0 {
			t.Fatalf("%s has no edges: the census would be short of its edge arrays", graphs[i].Name)
		}
		n, _, err := parseAllocs(t, text)
		if err != nil {
			t.Fatal(err)
		}
		if n != parseObjects {
			t.Errorf("%s: a warm parse allocates %d objects, want %d", graphs[i].Name, n, parseObjects)
		}
	}

	_, text := pinnedLoop(t)
	fresh, err := ddg.ParseOneString(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ name, text, want string }{
		{"duplicate label", "loop a\nnode x load\nnode y fadd\nnode x fadd\nedge x y\nend\n",
			`ddg: builder for a: duplicate node label "x"`},
		{"unknown node", "loop a\nnode x load\nnode y fadd\nedge x q\nend\n",
			`ddg: line 4: unknown node "q"`},
		{"unterminated loop", "loop a\nnode x load\nnode y fadd\nedge x y\n",
			"ddg: loop a not terminated with end"},
		{"zero-distance cycle", "loop a\nnode x iadd\nnode y iadd\nedge x y\nedge y x\nend\n",
			"ddg: invalid graph a: zero-distance cycle through node 0"},
	} {
		if _, err := ddg.ParseOneString(bad.text); err == nil || err.Error() != bad.want {
			t.Fatalf("%s: error %v, want %s", bad.name, err, bad.want)
		}
		n, next, err := parseAllocs(t, text)
		if err != nil {
			t.Fatal(err)
		}
		if n != parseObjects {
			t.Errorf("after a failed parse (%s) the next allocates %d objects, want %d", bad.name, n, parseObjects)
		}
		if !reflect.DeepEqual(next, fresh) {
			t.Errorf("after a failed parse (%s) the pooled parser yields a different graph", bad.name)
		}
	}
}

// TestParseConcurrently shares the parser pool between goroutines parsing
// the suite and diffs every graph against a serial pass; run under -race.
func TestParseConcurrently(t *testing.T) {
	_, texts := suiteTexts(t)
	serial := make([]*ddg.Graph, len(texts))
	for i, text := range texts {
		g, err := ddg.ParseOneString(text)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = g
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range texts {
				i := (k + w*len(texts)/8) % len(texts) // every goroutine on a different loop
				g, err := ddg.ParseOneString(texts[i])
				if err != nil {
					t.Errorf("%s: %v", serial[i].Name, err)
					return
				}
				if !reflect.DeepEqual(g, serial[i]) {
					t.Errorf("%s: parsed concurrently, differs from the serial parse", serial[i].Name)
					return
				}
				// A parse that fails in between must not leak into the next.
				if _, err := ddg.ParseOneString(texts[i][:len(texts[i])-len("end\n")]); err == nil {
					t.Errorf("%s: parsed without its end directive", serial[i].Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNodeByLabelIsBuiltOnce: a parsed graph carries no label index until
// somebody asks; eight goroutines asking first at once all get the right
// answers (run under -race), and so does a Clone, which builds its own.
func TestNodeByLabelIsBuiltOnce(t *testing.T) {
	_, text := pinnedLoop(t)
	g, err := ddg.ParseOneString(text)
	if err != nil {
		t.Fatal(err)
	}
	clone := g.Clone()
	check := func(g *ddg.Graph) {
		for v := range g.Nodes {
			if got := g.NodeByLabel(g.Nodes[v].Label); got != v {
				t.Errorf("NodeByLabel(%q) = %d, want %d", g.Nodes[v].Label, got, v)
			}
		}
		if got := g.NodeByLabel("no such label"); got != -1 {
			t.Errorf("NodeByLabel of an unknown label = %d, want -1", got)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(g)
		}()
	}
	wg.Wait()
	check(clone)

	// A Builder's graph keeps the first of two nodes sharing a label — it
	// is refused by Build, but Graph() shows it — and so does its Clone.
	b := ddg.NewBuilder("dup")
	b.Node("x", ddg.OpLoad)
	b.Node("", ddg.OpIAdd)
	b.Node("x", ddg.OpFAdd)
	for _, g := range []*ddg.Graph{b.Graph(), b.Graph().Clone()} {
		if got := g.NodeByLabel("x"); got != 0 {
			t.Errorf("NodeByLabel of a duplicated label = %d, want the first node", got)
		}
		if got := g.NodeByLabel(""); got != -1 {
			t.Errorf("NodeByLabel of the empty label = %d, want -1", got)
		}
	}
}
