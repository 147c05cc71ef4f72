package clusched_test

import (
	"fmt"
	"strings"

	"clusched"
)

// ExampleCompile compiles a small stencil loop for a 4-cluster
// machine and shows the headline effect of instruction replication: the
// excess communications disappear and the II drops back to the MII.
func ExampleCompile() {
	b := clusched.NewLoop("stencil")
	i0 := b.Node("i0", clusched.OpIAdd)
	b.Edge(i0, i0, 1)
	i1 := b.Node("i1", clusched.OpIAdd)
	i2 := b.Node("i2", clusched.OpIAdd)
	b.Edge(i0, i1, 0)
	b.Edge(i1, i2, 0)
	addr := []int{i0, i1, i2}
	for c := 0; c < 6; c++ {
		ld := b.Node(fmt.Sprintf("ld%d", c), clusched.OpLoad)
		b.Edge(addr[c%3], ld, 0)
		f := b.Node(fmt.Sprintf("f%d", c), clusched.OpFMul)
		b.Edge(ld, f, 0)
		b.Edge(addr[(c+1)%3], f, 0)
		g := b.Node(fmt.Sprintf("g%d", c), clusched.OpFAdd)
		b.Edge(f, g, 0)
		b.Edge(addr[(c+2)%3], g, 0)
		st := b.Node(fmt.Sprintf("st%d", c), clusched.OpStore)
		b.Edge(g, st, 0)
		b.Edge(addr[c%3], st, 0)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	m := clusched.MustParseMachine("4c1b2l64r")

	base, _ := clusched.Compile(g, m, clusched.Options{})
	repl, _ := clusched.Compile(g, m, clusched.Options{Replicate: true})
	fmt.Printf("baseline:    II=%d comms=%d\n", base.II, base.Comms)
	fmt.Printf("replication: II=%d comms=%d\n", repl.II, repl.Comms)
	// Output:
	// baseline:    II=8 comms=4
	// replication: II=4 comms=2
}

// ExampleParseLoops decodes a loop from the text format and schedules it.
func ExampleParseLoops() {
	text := `loop axpy
node i iadd
node x load
node m fmul
node s store
edge i i dist 1
edge i x
edge x m
edge m s
edge i s
end
`
	loops, err := clusched.ParseLoops(strings.NewReader(text))
	if err != nil {
		panic(err)
	}
	r, err := clusched.Compile(loops[0], clusched.UnifiedMachine(64), clusched.Options{Replicate: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("II=%d stages=%d\n", r.II, r.SC)
	// Output:
	// II=1 stages=11
}
