package ddg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// This file holds the production text codec to the reference one in
// text_reference_test.go. The contract is total: for any input, both accept
// or both reject; when they reject, the error strings are equal; when they
// accept, the graphs are equal in every field the package exposes and both
// writers produce the same bytes from them.

// errString renders an error for comparison ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffGraphs reports the first difference between two parsed graphs.
func diffGraphs(got, want *Graph) error {
	if got.Name != want.Name {
		return fmt.Errorf("name %q, reference %q", got.Name, want.Name)
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("%s: fingerprint %v, reference %v", want.Name, got.Fingerprint(), want.Fingerprint())
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		return fmt.Errorf("%s: nodes %+v, reference %+v", want.Name, got.Nodes, want.Nodes)
	}
	if !slices.Equal(got.Edges, want.Edges) {
		return fmt.Errorf("%s: edges %+v, reference %+v", want.Name, got.Edges, want.Edges)
	}
	for v := range want.Nodes {
		if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
			return fmt.Errorf("%s: node %d adjacency out=%v in=%v, reference out=%v in=%v",
				want.Name, v, got.Out(v), got.In(v), want.Out(v), want.In(v))
		}
		if l := want.Nodes[v].Label; got.NodeByLabel(l) != want.NodeByLabel(l) {
			return fmt.Errorf("%s: NodeByLabel(%q) = %d, reference %d", want.Name, l, got.NodeByLabel(l), want.NodeByLabel(l))
		}
		if got.NodeName(v) != want.NodeName(v) {
			return fmt.Errorf("%s: NodeName(%d) = %q, reference %q", want.Name, v, got.NodeName(v), want.NodeName(v))
		}
	}
	// An append to one adjacency list must not reach into the next one's
	// share of the common backing array.
	for v := range got.Nodes {
		if out := got.Out(v); cap(out) != len(out) {
			return fmt.Errorf("%s: out[%d] has spare capacity %d", got.Name, v, cap(out)-len(out))
		}
		if in := got.In(v); cap(in) != len(in) {
			return fmt.Errorf("%s: in[%d] has spare capacity %d", got.Name, v, cap(in)-len(in))
		}
	}
	return nil
}

// diffWriters encodes g with both writers, through both entry points, and
// reports the first difference in bytes or in error.
func diffWriters(g *Graph) error {
	want, wantErr := referenceMarshalText(g)
	got, gotErr := MarshalText(g)
	if errString(gotErr) != errString(wantErr) {
		return fmt.Errorf("%s: MarshalText error %q, reference %q", g.Name, errString(gotErr), errString(wantErr))
	}
	if got != want {
		return fmt.Errorf("%s: MarshalText wrote\n%s\nreference\n%s", g.Name, got, want)
	}
	if err := diffNames(g); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, g); errString(err) != errString(wantErr) {
		return fmt.Errorf("%s: WriteText error %q, reference %q", g.Name, errString(err), errString(wantErr))
	}
	if buf.String() != want {
		return fmt.Errorf("%s: WriteText wrote\n%s\nreference\n%s", g.Name, buf.String(), want)
	}
	return nil
}

// diffNames holds the names AppendText synthesises inline, and TextSize, to
// the vector and the estimate the retired wireNames gave.
func diffNames(g *Graph) error {
	want, wantBytes, wantErr := retiredWireNames(g)
	used, gotErr := wireNames(g)
	if errString(gotErr) != errString(wantErr) {
		return fmt.Errorf("%s: wireNames error %q, retired %q", g.Name, errString(gotErr), errString(wantErr))
	}
	if wantErr != nil {
		return nil
	}
	underscores := 0
	for v := range g.Nodes {
		name := g.Nodes[v].Label
		if want != nil {
			name = want[v]
		}
		got := string(appendName(nil, g, v, used))
		if got != name {
			return fmt.Errorf("%s: node %d is written as %q, retired %q", g.Name, v, got, name)
		}
		if g.Nodes[v].Label == "" {
			underscores += len(got) - len(strings.TrimRight(got, "_"))
		}
	}
	// The retired AppendText's estimate; TextSize leaves disambiguation out.
	n := len(g.Nodes)
	retired := len("loop \nend\n") + len(g.Name) + 12*n + wantBytes
	if n > 0 {
		retired += len(g.Edges) * (16 + 2*(wantBytes/n+1))
	}
	if got := TextSize(g); got > retired || (underscores == 0 && got != retired) {
		return fmt.Errorf("%s: TextSize %d, retired estimate %d (%d underscores)", g.Name, got, retired, underscores)
	}
	return nil
}

// diffCodecs parses input with both parsers (the production one through its
// string and its reader entry point) and reports the first disagreement:
// accept vs reject, error string, graph contents, or re-encoded bytes.
func diffCodecs(input string) error {
	want, wantErr := referenceParseText(strings.NewReader(input))
	got, gotErr := ParseString(input)
	if errString(gotErr) != errString(wantErr) {
		return fmt.Errorf("ParseString error %q, reference %q", errString(gotErr), errString(wantErr))
	}
	if _, err := ParseText(strings.NewReader(input)); errString(err) != errString(wantErr) {
		return fmt.Errorf("ParseText error %q, reference %q", errString(err), errString(wantErr))
	}
	_, wantOneErr := referenceParseOne(strings.NewReader(input))
	if _, err := ParseOneString(input); errString(err) != errString(wantOneErr) {
		return fmt.Errorf("ParseOneString error %q, reference %q", errString(err), errString(wantOneErr))
	}
	if len(got) != len(want) {
		return fmt.Errorf("parsed %d loops, reference %d", len(got), len(want))
	}
	for i := range want {
		if err := diffGraphs(got[i], want[i]); err != nil {
			return fmt.Errorf("loop %d: %w", i, err)
		}
		if err := diffWriters(got[i]); err != nil {
			return fmt.Errorf("loop %d: %w", i, err)
		}
	}
	return nil
}

// hostileInputs is the table of inputs chosen to sit on the parser's edges.
var hostileInputs = []struct{ name, text string }{
	{"empty", ""},
	{"only-newlines", "\n\n\n"},
	{"only-comments", "# a\n  # b\n#"},
	{"crlf", "loop a\r\nnode x load\r\nnode y fadd\r\nedge x y dist 1\r\nend\r\n"},
	{"lone-cr-is-a-separator", "loop a\rnode x load\nend\n"},
	{"no-trailing-newline", "loop a\nnode x load\nend"},
	{"no-trailing-newline-unterminated", "loop a\nnode x load"},
	{"tabs-and-runs", "\t loop \t a \nnode\tx\t\tload\n  edge x x   dist\t1  \nend\n"},
	{"vt-ff-separators", "loop\va\nnode\fx\vload\nend\n"},
	{"nbsp-between-fields", "loop\u00a0a\nnode\u00a0x\u00a0load\nend\n"},
	{"em-space-between-fields", "loop a\nnode\u2003x\u2003fmul\nedge\u2003x\u2003x\u2003dist\u20032\nend\n"},
	{"nel-between-fields", "loop a\nnode\u0085x\u0085iadd\nend\u0085\n"},
	{"line-and-paragraph-separators", "loop a\nnode\u2028x\u2029idiv\nend\n"},
	{"ideographic-space-leading", "\u3000loop a\n\u3000node x load\n\u3000end\n"},
	{"zero-width-space-is-not-space", "loop a\nnode\u200bx load\nend\n"},
	{"bom-is-not-space", "\ufeffloop a\nend\n"},
	{"non-ascii-names", "loop bücle\nnode λ1 load\nnode 節 fadd\nedge λ1 節\nend\n"},
	{"raw-0x85-byte-is-not-space", "loop a\nnode\x85x load\nend\n"},
	{"raw-0xa0-byte-is-not-space", "loop a\nnode x\xa0load\nend\n"},
	{"invalid-utf8-in-names", "loop \xff\xfe\nnode \xc3 load\nnode \xe2\x80 fadd\nedge \xc3 \xe2\x80\nend\n"},
	{"truncated-nbsp", "loop a\nnode x load\xc2\nend\n"},
	{"comment-mid-stream", "loop a\n# one\nnode x load\n   # two\nend\n# three\nloop b\nend\n"},
	{"comment-after-fields-is-not-a-comment", "loop a\nnode x load # trailing\nend\n"},
	{"hash-glued-to-directive", "loop a\n#node x load\nend\n"},
	{"several-loops", "loop a\nnode x iadd\nend\nloop b\nnode y fmul\nnode z store\nedge y z\nend\nloop c\nend\n"},
	{"empty-loop", "loop a\nend\n"},
	{"end-with-trailing-fields", "loop a\nend of the loop\n"},
	{"loop-without-name", "loop\n"},
	{"loop-with-two-names", "loop a b\nend\n"},
	{"loop-name-hash", "loop #\nend"},
	{"nested-loop", "loop a\nloop b\nend\n"},
	{"nested-loop-bad-arity", "loop a\nloop\nend\n"},
	{"node-outside-loop", "node x load\n"},
	{"edge-outside-loop", "edge x y\n"},
	{"end-outside-loop", "end\n"},
	{"directive-after-end", "loop a\nend\nnode x load\n"},
	{"unknown-directive", "loop a\nnoed x load\nend\n"},
	{"directive-case", "Loop a\nend\n"},
	{"node-arity-short", "loop a\nnode x\nend\n"},
	{"node-arity-long", "loop a\nnode x load extra\nend\n"},
	{"node-name-hash", "loop a\nnode #x load\nend\n"},
	{"node-arity-beats-name", "loop a\nnode #x\nend\n"},
	{"unknown-op", "loop a\nnode x bogus\nend\n"},
	{"op-invalid-mnemonic", "loop a\nnode x invalid\nend\n"},
	{"op-copy", "loop a\nnode x copy\nend\n"},
	{"op-case", "loop a\nnode x LOAD\nend\n"},
	{"every-op", "loop a\nnode a iadd\nnode b imul\nnode c idiv\nnode d fadd\nnode e fmul\nnode f fdiv\nnode g load\nnode h store\nend\n"},
	{"duplicate-label", "loop a\nnode x load\nnode x fadd\nend\n"},
	{"duplicate-label-twice", "loop a\nnode x load\nnode y load\nnode y fadd\nnode x fadd\nend\n"},
	{"duplicate-label-then-line-error", "loop a\nnode x load\nnode x fadd\nedge x q\nend\n"},
	{"duplicate-label-unterminated", "loop a\nnode x load\nnode x fadd\n"},
	{"duplicate-label-with-edges", "loop a\nnode x load\nnode x fadd\nedge x x dist 1\nend\n"},
	{"duplicate-label-in-second-loop", "loop a\nnode x load\nend\nloop b\nnode x load\nnode x load\nend\n"},
	{"same-label-in-two-loops", "loop a\nnode x load\nend\nloop b\nnode x fadd\nend\n"},
	{"edge-before-its-node", "loop a\nnode x load\nedge x y\nnode y fadd\nend\n"},
	{"edge-unknown-src", "loop a\nnode y fadd\nedge x y\nend\n"},
	{"edge-both-unknown", "loop a\nedge x y\nend\n"},
	{"edge-label-from-previous-loop", "loop a\nnode x load\nend\nloop b\nnode y fadd\nedge x y\nend\n"},
	{"edge-arity", "loop a\nnode x load\nedge x\nend\n"},
	{"edge-bare", "loop a\nedge\nend\n"},
	{"edges-interleaved-with-nodes", "loop a\nnode x load\nnode y fadd\nedge x y\nnode z store\nedge y z\nedge z x mem dist 1\nend\n"},
	{"dist-missing-value", "loop a\nnode x load\nnode y fadd\nedge x y dist\nend\n"},
	{"lat-missing-value", "loop a\nnode x load\nnode y fadd\nedge x y lat\nend\n"},
	{"dist-x", "loop a\nnode x load\nnode y fadd\nedge x y dist x\nend\n"},
	{"lat-x", "loop a\nnode x load\nnode y fadd\nedge x y lat 1.5\nend\n"},
	{"dist-overflow", "loop a\nnode x load\nnode y fadd\nedge x y dist 99999999999999999999\nend\n"},
	{"dist-hex", "loop a\nnode x load\nnode y fadd\nedge x y dist 0x10\nend\n"},
	{"dist-underscore", "loop a\nnode x load\nnode y fadd\nedge x y dist 1_000\nend\n"},
	{"dist-plus-sign", "loop a\nnode x load\nnode y fadd\nedge x y dist +3 lat +4\nend\n"},
	{"dist-leading-zeros", "loop a\nnode x load\nnode y fadd\nedge x y dist 007 lat 00\nend\n"},
	{"dist-negative", "loop a\nnode x load\nnode y fadd\nedge x y dist -1\nend\n"},
	{"dist-negative-zero", "loop a\nnode x load\nnode y fadd\nedge x y dist -0\nend\n"},
	{"lat-negative", "loop a\nnode x load\nnode y fadd\nedge x y lat -1\nend\n"},
	{"lat-negative-mem", "loop a\nnode s store\nnode l load\nedge s l mem lat -3\nend\n"},
	{"lat-zero", "loop a\nnode x load\nnode y fadd\nedge x y lat 0\nend\n"},
	{"lat-equal-to-default", "loop a\nnode x load\nnode y fadd\nedge x y lat 2\nend\n"},
	{"mem-lat-default", "loop a\nnode s store\nnode l load\nedge s l mem lat 1\nend\n"},
	{"mem-lat-other", "loop a\nnode s store\nnode l load\nedge s l lat 4 mem dist 1\nend\n"},
	{"attributes-repeated", "loop a\nnode x load\nnode y fadd\nedge x y dist 1 dist 2 lat 3 lat 4 mem mem\nend\n"},
	{"attribute-value-is-keyword", "loop a\nnode x load\nnode y fadd\nedge x y dist mem\nend\n"},
	{"unknown-attribute", "loop a\nnode x load\nnode y fadd\nedge x y frob\nend\n"},
	{"unknown-attribute-after-good", "loop a\nnode x load\nnode y fadd\nedge x y dist 1 reg\nend\n"},
	{"many-fields", "loop a\nnode x load\nnode y fadd\nedge x y dist 1 lat 2 mem dist 3 lat 4 mem dist 5 lat 6 mem dist 7\nend\n"},
	{"zero-distance-self-loop", "loop a\nnode x iadd\nedge x x\nend\n"},
	{"zero-distance-cycle", "loop a\nnode x iadd\nnode y iadd\nnode z iadd\nedge x y\nedge y z\nedge z x\nend\n"},
	{"carried-cycle", "loop a\nnode x iadd\nnode y iadd\nedge x y\nedge y x dist 1\nend\n"},
	{"store-data-edge", "loop a\nnode s store\nnode l load\nedge s l\nend\n"},
	{"several-validate-problems", "loop a\nnode c copy\nnode s store\nedge s c dist -2\nedge c c\nend\n"},
	{"bad-second-loop", "loop a\nnode x load\nend\nloop b\nnode y bogus\nend\n"},
	{"missing-end", "loop a\nnode x iadd\n"},
	{"missing-end-after-good-loop", "loop a\nend\nloop b\nnode x iadd\n"},
	{"synthetic-looking-labels", "loop c\nnode n1 load\nnode n0 store\nnode n1_ fadd\nedge n1 n0\nend\n"},
	{"keywords-as-names", "loop loop\nnode node load\nnode edge fadd\nnode end store\nedge node edge\nedge edge end mem\nend\n"},
	{"long-names", "loop " + strings.Repeat("L", 5000) + "\nnode " + strings.Repeat("n", 70000) + " load\nend\n"},
}

// TestTextDifferentialHostile runs the hostile table through both codecs.
func TestTextDifferentialHostile(t *testing.T) {
	for _, tc := range hostileInputs {
		if err := diffCodecs(tc.text); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestTextDifferentialFuzzCorpus replays the committed FuzzParseText
// corpus through both codecs.
func TestTextDifferentialFuzzCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseText", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed fuzz corpus (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\nstring(<quoted>)\n"
		_, quoted, ok := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		if !ok {
			t.Fatalf("%s: not a one-string fuzz corpus file", f)
		}
		input, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := diffCodecs(input); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestTextDifferentialLineLimit pins the one limit the parser inherited
// from bufio.Scanner: a line of 16 MiB (terminator excluded) or more is
// refused with the scanner's error, one byte less is read.
func TestTextDifferentialLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~100 MB")
	}
	const limit = 16 * 1024 * 1024
	for _, tc := range []struct {
		name   string
		length int
		tail   string
	}{
		{"under", limit - 1, "\nend\n"},
		{"at", limit, "\nend\n"},
		{"under-unterminated", limit - 1, ""},
		{"at-unterminated", limit, ""},
	} {
		input := "loop a\n#" + strings.Repeat("x", tc.length-1) + tc.tail
		if err := diffCodecs(input); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	// An earlier bad line still wins over the oversized one.
	if err := diffCodecs("loop a\nbogus\n" + strings.Repeat("x", limit)); err != nil {
		t.Errorf("bad line before long line: %v", err)
	}
}

// TestTextDifferentialReadError: when the stream fails mid-read, both
// parsers parse what arrived, report a bad line in it first, and the read
// error otherwise — ahead of the missing-end check.
func TestTextDifferentialReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, arrived := range []string{
		"",
		"loop a\nnode x load\n",
		"loop a\nnode x load\nen",
		"loop a\nnode x load\nend\n",
		"loop a\nnode x bogus\nend\n",
	} {
		reader := func() io.Reader { return io.MultiReader(strings.NewReader(arrived), iotest.ErrReader(boom)) }
		_, wantErr := referenceParseText(reader())
		_, gotErr := ParseText(reader())
		if errString(gotErr) != errString(wantErr) {
			t.Errorf("%q then read error: got %q, reference %q", arrived, errString(gotErr), errString(wantErr))
		}
		if errors.Is(wantErr, boom) != errors.Is(gotErr, boom) {
			t.Errorf("%q then read error: errors.Is(boom) %v, reference %v", arrived, errors.Is(gotErr, boom), errors.Is(wantErr, boom))
		}
	}
}

// TestTextDifferentialWriter runs both writers over hand-built graphs the
// parser cannot produce: unlabeled nodes, synthetic-name collisions,
// unencodable labels and names, out-of-range ops.
func TestTextDifferentialWriter(t *testing.T) {
	build := func(name string, labels ...string) *Graph {
		b := NewBuilder(name)
		for i, l := range labels {
			b.Node(l, AllOpKinds()[i%len(AllOpKinds())])
		}
		for i := 1; i < len(labels); i++ {
			if b.g.Nodes[i-1].Op != OpStore {
				b.Edge(i-1, i, i%2)
			} else {
				b.MemEdgeLat(i-1, i, 1, i%3)
			}
		}
		return b.MustBuild()
	}
	graphs := []*Graph{
		build("unlabeled", "", "", "", ""),
		build("mixed", "a", "", "b", "", "n9"),
		build("collide", "n1", "", "n0", "n1_", "", "n4", "n4_", "n4__"),
		build("bad label", "ok"),
		build("#bad", "ok"),
		build("", "ok"),
		build("badlabel", "two words"),
		build("badlabel", "#lead", "tab\tlabel"),
		build("both\tbad", "new\nline"),
		build("nbsp", "a\u00a0b"),
		build("empty"),
	}
	big := make([]string, 1200) // synthetic names past n999
	graphs = append(graphs, build("big", big...))
	weird := build("weird-op", "a", "b")
	weird.Nodes[1].Op = OpKind(99)
	graphs = append(graphs, weird)
	for _, g := range graphs {
		if err := diffWriters(g); err != nil {
			t.Error(err)
		}
	}
}

// TestParseOpKindMatchesTable holds the mnemonic switch to the name table
// it replaced a scan of.
func TestParseOpKindMatchesTable(t *testing.T) {
	inputs := append([]string{"", "IADD", "iadd ", "cop", "copyy", "OpKind(3)"}, opNames[:]...)
	for _, s := range inputs {
		got, gotErr := ParseOpKind(s)
		want, wantErr := referenceParseOpKind(s)
		if got != want || errString(gotErr) != errString(wantErr) {
			t.Errorf("ParseOpKind(%q) = %v, %q; reference %v, %q", s, got, errString(gotErr), want, errString(wantErr))
		}
	}
}

// DiffCodecs and DiffWriters give the external test package (which can
// import the workload and corpus generators) the same comparisons.
var (
	DiffCodecs  = diffCodecs
	DiffWriters = diffWriters
)
