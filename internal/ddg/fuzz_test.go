package ddg

import (
	"strings"
	"testing"
)

// FuzzParseText hardens the text-format parser: arbitrary input must never
// panic, the parser and writer must agree with the reference codec on it
// (accept or reject, error string, graph, bytes written — see
// text_diff_test.go), and accepted input must re-encode to a form the
// parser accepts again with identical structure.
func FuzzParseText(f *testing.F) {
	f.Add("loop a\nnode x iadd\nend\n")
	f.Add("loop a\nnode x load\nnode y fmul\nedge x y dist 2 lat 9\nend\n")
	f.Add("loop a\nnode s store\nnode l load\nedge s l mem\nend\n")
	f.Add("# comment\n\nloop a\nend\nloop b\nnode q fdiv\nend\n")
	f.Add("loop x\nnode a iadd\nedge a a dist -1\nend\n")
	// Mem-edge latency encoding: the writer omits "lat" only at the MemEdge
	// default (1); explicit defaults and non-defaults must both round-trip.
	f.Add("loop m\nnode s store\nnode l load\nedge s l mem lat 1\nend\n")
	f.Add("loop m\nnode s store\nnode l load\nedge s l mem lat 4\nend\n")
	f.Add("loop m\nnode s store\nnode l load\nedge s l mem lat 0 dist 1\nend\n")
	// Negative latencies must be rejected, not silently replaced.
	f.Add("loop m\nnode s store\nnode l load\nedge s l mem lat -3\nend\n")
	f.Add("loop m\nnode x iadd\nnode y iadd\nedge x y lat -1\nend\n")
	// Labels that collide with synthetic "n<ID>" names.
	f.Add("loop c\nnode n1 load\nnode n0 store\nedge n1 n0\nend\n")
	for _, tc := range hostileInputs {
		if len(tc.text) < 1024 {
			f.Add(tc.text)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		if err := diffCodecs(input); err != nil {
			t.Fatalf("codec disagrees with the reference: %v", err)
		}
		gs, err := ParseText(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, g := range gs {
			if verr := g.Validate(); verr != nil {
				t.Fatalf("parser accepted an invalid graph: %v", verr)
			}
			for i := range g.Edges {
				if g.Edges[i].Lat < 0 {
					t.Fatalf("parser accepted a negative latency: %+v", g.Edges[i])
				}
			}
			text, err := MarshalText(g)
			if err != nil {
				t.Fatalf("parsed graph does not re-encode: %v", err)
			}
			g2, err := ParseOne(strings.NewReader(text))
			if err != nil {
				t.Fatalf("re-encoded form rejected: %v\n%s", err, text)
			}
			text2, err := MarshalText(g2)
			if err != nil {
				t.Fatalf("re-parse does not re-encode: %v", err)
			}
			if text2 != text {
				t.Fatalf("re-encode not a fixed point:\n%s\nvs\n%s", text, text2)
			}
			if g.Fingerprint() != g2.Fingerprint() {
				t.Fatalf("fingerprint changed across the codec:\n%s", text)
			}
			// Canonical identity must survive renaming, node renumbering
			// and edge reordering (here: a full reversal of both orders).
			np := make([]int, g.NumNodes())
			for i := range np {
				np[i] = len(np) - 1 - i
			}
			ep := make([]int, g.NumEdges())
			for i := range ep {
				ep[i] = len(ep) - 1 - i
			}
			clone, err := Permute(g, "fuzz-clone", np, ep)
			if err != nil {
				t.Fatalf("Permute rejected a valid graph: %v", err)
			}
			if clone.ShapeHash() != g.ShapeHash() {
				t.Fatalf("ShapeHash not permutation-invariant:\n%s", text)
			}
			gc, cc := g.CanonicalForm(), clone.CanonicalForm()
			if gc.Sum != cc.Sum || gc.Complete != cc.Complete {
				t.Fatalf("canonical fingerprint not permutation-invariant (%016x/%v vs %016x/%v):\n%s",
					gc.Sum, gc.Complete, cc.Sum, cc.Complete, text)
			}
		}
	})
}
