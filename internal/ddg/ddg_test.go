package ddg

import (
	"strings"
	"testing"
)

func TestOpKindClassAndLatency(t *testing.T) {
	cases := []struct {
		op    OpKind
		class Class
		lat   int
	}{
		{OpIAdd, ClassInt, 1},
		{OpIMul, ClassInt, 2},
		{OpIDiv, ClassInt, 6},
		{OpFAdd, ClassFP, 3},
		{OpFMul, ClassFP, 6},
		{OpFDiv, ClassFP, 18},
		{OpLoad, ClassMem, 2},
		{OpStore, ClassMem, 2},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.class {
			t.Errorf("%v.Class() = %v, want %v", c.op, got, c.class)
		}
		if got := c.op.Latency(); got != c.lat {
			t.Errorf("%v.Latency() = %d, want %d", c.op, got, c.lat)
		}
	}
}

func TestParseOpKindRoundTrip(t *testing.T) {
	for _, k := range opKinds {
		got, err := ParseOpKind(k.String())
		if err != nil {
			t.Fatalf("ParseOpKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
	if _, err := ParseOpKind("bogus"); err == nil {
		t.Error("ParseOpKind(bogus) succeeded, want error")
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t")
	a := b.Node("a", OpLoad)
	c := b.Node("c", OpFAdd)
	s := b.Node("s", OpStore)
	b.Edge(a, c, 0)
	b.Edge(c, s, 0)
	b.MemEdge(s, a, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if NodeByLabel(g, "c") != c {
		t.Errorf("NodeByLabel(c) = %d, want %d", NodeByLabel(g, "c"), c)
	}
	if NodeByLabel(g, "zz") != -1 {
		t.Error("NodeByLabel(zz) should be -1")
	}
	if g.Edges[0].Lat != 2 { // load latency
		t.Errorf("edge lat = %d, want 2", g.Edges[0].Lat)
	}
	if g.Edges[2].Kind != EdgeMem || g.Edges[2].Lat != 1 {
		t.Errorf("mem edge = %+v", g.Edges[2])
	}
	succs := g.DataSuccs(a, nil)
	if len(succs) != 1 || succs[0] != c {
		t.Errorf("DataSuccs(a) = %v", succs)
	}
	preds := g.DataPreds(s, nil)
	if len(preds) != 1 || preds[0] != c {
		t.Errorf("DataPreds(s) = %v", preds)
	}
	if g.Edges[0].Src != a || g.Edges[0].Dst != c || g.Edges[0].Kind != EdgeData {
		t.Errorf("data edge = %+v, want %d -> %d", g.Edges[0], a, c)
	}
}

func TestBuilderRejectsDuplicateLabels(t *testing.T) {
	b := NewBuilder("t")
	b.Node("x", OpIAdd)
	b.Node("x", OpIAdd)
	if _, err := b.Build(); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestValidateRejectsZeroDistanceCycle(t *testing.T) {
	b := NewBuilder("t")
	a := b.Node("a", OpIAdd)
	c := b.Node("b", OpIAdd)
	b.Edge(a, c, 0)
	b.Edge(c, a, 0)
	if _, err := b.Build(); err == nil {
		t.Error("zero-distance cycle accepted")
	}
}

func TestValidateAcceptsLoopCarriedCycle(t *testing.T) {
	b := NewBuilder("t")
	a := b.Node("a", OpFAdd)
	c := b.Node("b", OpFAdd)
	b.Edge(a, c, 0)
	b.Edge(c, a, 1)
	if _, err := b.Build(); err != nil {
		t.Errorf("loop-carried cycle rejected: %v", err)
	}
}

func TestValidateRejectsStoreDataEdge(t *testing.T) {
	b := NewBuilder("t")
	s := b.Node("s", OpStore)
	a := b.Node("a", OpIAdd)
	b.Edge(s, a, 0)
	if _, err := b.Build(); err == nil {
		t.Error("store data edge accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	b := NewBuilder("t")
	n := make([]int, 6)
	for i := range n {
		n[i] = b.Node("", OpIAdd)
	}
	b.Edge(n[0], n[2], 0)
	b.Edge(n[1], n[2], 0)
	b.Edge(n[2], n[3], 0)
	b.Edge(n[3], n[4], 0)
	b.Edge(n[2], n[5], 0)
	b.Edge(n[4], n[0], 2) // loop-carried back edge, ignored by topo
	g := b.MustBuild()
	order, sorted := g.TopoOrder(&OrderScratch{})
	if len(order) != 6 || sorted != 6 {
		t.Fatalf("topo order has %d nodes", len(order))
	}
	pos := make([]int, 6)
	for i, v := range order {
		pos[v] = i
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Dist == 0 && pos[e.Src] >= pos[e.Dst] {
			t.Errorf("edge %d->%d violates topo order", e.Src, e.Dst)
		}
	}
}

func TestSCCsFindRecurrence(t *testing.T) {
	b := NewBuilder("t")
	a := b.Node("a", OpFAdd)
	c := b.Node("b", OpFMul)
	d := b.Node("d", OpIAdd)
	b.Edge(a, c, 0)
	b.Edge(c, a, 1)
	b.Edge(a, d, 0)
	g := b.MustBuild()
	flat, off, cyclic := g.SCCs(&SCCScratch{})
	var recs int
	for i := range cyclic {
		if cyclic[i] {
			recs++
			if size := off[i+1] - off[i]; size != 2 {
				t.Errorf("recurrence size %d, want 2", size)
			}
		}
	}
	if recs != 1 || len(flat) != 3 {
		t.Errorf("found %d recurrences over %d nodes, want 1 over 3", recs, len(flat))
	}
	// Self-loop is a recurrence too.
	b2 := NewBuilder("t2")
	x := b2.Node("x", OpIAdd)
	b2.Edge(x, x, 1)
	g2 := b2.MustBuild()
	if _, _, cyclic := g2.SCCs(&SCCScratch{}); len(cyclic) != 1 || !cyclic[0] {
		t.Error("self-loop not detected as recurrence")
	}
}

func TestComputeTimingChain(t *testing.T) {
	// load(2) -> fadd(3) -> fmul(6) -> store
	b := NewBuilder("chain")
	l := b.Node("l", OpLoad)
	a := b.Node("a", OpFAdd)
	m := b.Node("m", OpFMul)
	s := b.Node("s", OpStore)
	b.Edge(l, a, 0)
	b.Edge(a, m, 0)
	b.Edge(m, s, 0)
	g := b.MustBuild()
	tm := g.ComputeTimingScratch(1, &TimingScratch{})
	want := []int{0, 2, 5, 11}
	for i, w := range want {
		if tm.ASAP[i] != w {
			t.Errorf("ASAP[%d] = %d, want %d", i, tm.ASAP[i], w)
		}
	}
	if tm.Length != 13 { // store issues at 11, latency 2
		t.Errorf("Length = %d, want 13", tm.Length)
	}
	// Chain has no slack anywhere.
	for i := range g.Edges {
		if s := tm.Slack(g, &g.Edges[i], 1); s != 0 {
			t.Errorf("slack of chain edge %d = %d, want 0", i, s)
		}
	}
	// ALAP == ASAP on a chain.
	for i := range g.Nodes {
		if tm.ALAP[i] != tm.ASAP[i] {
			t.Errorf("ALAP[%d] = %d, want %d", i, tm.ALAP[i], tm.ASAP[i])
		}
	}
}

func TestComputeTimingSlack(t *testing.T) {
	// Diamond with one short arm: slack appears on the short arm.
	b := NewBuilder("diamond")
	l := b.Node("l", OpLoad)
	f := b.Node("f", OpFDiv) // 18 cycles: long arm
	i := b.Node("i", OpIAdd) // 1 cycle: short arm
	s := b.Node("s", OpStore)
	b.Edge(l, f, 0)
	b.Edge(l, i, 0)
	b.Edge(f, s, 0)
	b.Edge(i, s, 0)
	g := b.MustBuild()
	tm := g.ComputeTimingScratch(1, &TimingScratch{})
	var shortEdge *Edge
	for k := range g.Edges {
		if g.Edges[k].Src == i {
			shortEdge = &g.Edges[k]
		}
	}
	if sl := tm.Slack(g, shortEdge, 1); sl != 17 {
		t.Errorf("short-arm slack = %d, want 17", sl)
	}
}

func TestTextRoundTrip(t *testing.T) {
	b := NewBuilder("rt")
	l := b.Node("l", OpLoad)
	a := b.Node("a", OpFAdd)
	m := b.Node("m", OpFMul)
	s := b.Node("s", OpStore)
	b.Edge(l, a, 0)
	b.Edge(a, m, 1)
	b.Edge(m, s, 0)
	b.MemEdge(s, l, 1)
	g := b.MustBuild()
	text, err := MarshalText(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	g2, err := ParseOne(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if text2, err := MarshalText(g2); err != nil || text2 != text {
		t.Errorf("round trip mismatch (%v):\n%s\nvs\n%s", err, text, text2)
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"node a iadd\n",
		"loop x\nnode a bogus\nend\n",
		"loop x\nedge a b\nend\n",
		"loop x\nnode a iadd\n", // missing end
		"loop x\nloop y\n",
		"loop x\nnode a iadd\nnode b iadd\nedge a b dist\nend\n",
		"loop x\nnode a iadd\nnode b iadd\nedge a b frob\nend\n",
	}
	for _, text := range bad {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("parse accepted %q", text)
		}
	}
}

func TestParseTextMultipleLoops(t *testing.T) {
	text := "# two loops\nloop a\nnode x iadd\nend\nloop b\nnode y fmul\nend\n"
	gs, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[0].Name != "a" || gs[1].Name != "b" {
		t.Errorf("got %d loops", len(gs))
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := NewBuilder("c")
	x := b.Node("x", OpIAdd)
	y := b.Node("y", OpIAdd)
	b.Edge(x, y, 0)
	g := b.MustBuild()
	g2 := g.Clone()
	g2.Nodes[0].Op = OpFMul
	g2.Edges[0].Dist = 5
	if g.Nodes[0].Op != OpIAdd || g.Edges[0].Dist != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestDOTContainsNodesAndClusters(t *testing.T) {
	b := NewBuilder("d")
	x := b.Node("x", OpIAdd)
	y := b.Node("y", OpFMul)
	b.Edge(x, y, 0)
	g := b.MustBuild()
	dot := DOT(g, []int{0, 1})
	for _, want := range []string{"cluster_0", "cluster_1", "n0 -> n1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestCountClass(t *testing.T) {
	b := NewBuilder("cc")
	b.Node("", OpIAdd)
	b.Node("", OpIMul)
	b.Node("", OpFAdd)
	b.Node("", OpLoad)
	b.Node("", OpStore)
	g := b.MustBuild()
	c := g.CountClass()
	if c[ClassInt] != 2 || c[ClassFP] != 1 || c[ClassMem] != 2 {
		t.Errorf("CountClass = %v", c)
	}
}

// NodeByLabel returns the first node of g carrying label, or -1: how tests
// name nodes. A Graph keeps no label index.
func NodeByLabel(g *Graph, label string) int {
	for v := range g.Nodes {
		if label != "" && g.Nodes[v].Label == label {
			return v
		}
	}
	return -1
}
