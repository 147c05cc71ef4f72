package ddg_test

import (
	"strings"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/workload"
)

// diffLoops holds the production codec to the reference one (see
// text_diff_test.go) on generated loops: each graph through both writers,
// each text through both parsers, and all of them again as one
// comment-separated stream, the way loopgen writes a corpus.
func diffLoops(t *testing.T, graphs []*ddg.Graph) {
	t.Helper()
	var stream strings.Builder
	for _, g := range graphs {
		if err := ddg.DiffWriters(g); err != nil {
			t.Fatal(err)
		}
		text, err := ddg.MarshalText(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := ddg.DiffCodecs(text); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		stream.WriteString("# " + g.String() + "\n" + text + "\n")
	}
	if err := ddg.DiffCodecs(stream.String()); err != nil {
		t.Fatalf("as one stream: %v", err)
	}
}

// TestTextDifferentialSuite: the 678 loops the service ships across the
// wire.
func TestTextDifferentialSuite(t *testing.T) {
	var graphs []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		graphs = append(graphs, l.Graph)
	}
	diffLoops(t, graphs)
}

// TestTextDifferentialCorpus: the first 2000 loops of the default generated
// corpus, which cover the shapes and attribute mixes the suite does not.
func TestTextDifferentialCorpus(t *testing.T) {
	spec := corpus.DefaultSpec()
	graphs := make([]*ddg.Graph, 2000)
	for i := range graphs {
		graphs[i] = spec.Loop(i)
	}
	diffLoops(t, graphs)
}
