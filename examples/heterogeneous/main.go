// Heterogeneous: the paper's machines are homogeneous, but §2.1 notes the
// algorithms extend directly to heterogeneous clusters. This example builds
// an asymmetric 2-cluster DSP-style machine — an address/integer cluster
// and a floating-point datapath cluster — and shows that the partitioner
// splits a loop by capability while replication still removes the
// cross-cluster address traffic.
package main

import (
	"fmt"
	"log"

	"clusched"
)

func main() {
	m, err := clusched.HeteroMachine(1 /*bus*/, 2 /*cycles*/, 32, [][3]int{
		{3, 1, 2}, // cluster 0: 3 int ALUs, 1 FP unit, 2 memory ports
		{1, 3, 2}, // cluster 1: 1 int ALU, 3 FP units, 2 memory ports
	})
	if err != nil {
		log.Fatal(err)
	}

	// A stencil loop: integer address arithmetic feeding three FP chains.
	b := clusched.NewLoop("hetero_stencil")
	i0 := b.Node("i0", clusched.OpIAdd)
	b.Edge(i0, i0, 1)
	i1 := b.Node("i1", clusched.OpIAdd)
	b.Edge(i0, i1, 0)
	i2 := b.Node("i2", clusched.OpIMul)
	b.Edge(i1, i2, 0)
	for c := 0; c < 3; c++ {
		ld := b.Node(fmt.Sprintf("ld%d", c), clusched.OpLoad)
		b.Edge(i2, ld, 0)
		f1 := b.Node(fmt.Sprintf("f%d_1", c), clusched.OpFMul)
		b.Edge(ld, f1, 0)
		b.Edge(i1, f1, 0)
		f2 := b.Node(fmt.Sprintf("f%d_2", c), clusched.OpFAdd)
		b.Edge(f1, f2, 0)
		st := b.Node(fmt.Sprintf("st%d", c), clusched.OpStore)
		b.Edge(f2, st, 0)
		b.Edge(i2, st, 0)
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	base, err := clusched.Compile(g, m, clusched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	repl, err := clusched.Compile(g, m, clusched.Options{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("machine %s (asymmetric clusters)\n", m.Name)
	fmt.Printf("baseline:    II=%d comms=%d\n", base.II, base.Comms)
	fmt.Printf("replication: II=%d comms=%d (%d instances added)\n\n",
		repl.II, repl.Comms, totalReplicated(repl))

	counts := repl.Placement.ClassCounts()
	fmt.Println("instances per cluster (int/fp/mem):")
	for c, cc := range counts {
		fmt.Printf("  cluster %d: %d/%d/%d\n", c, cc[0], cc[1], cc[2])
	}
	fmt.Println()
	fmt.Print(repl.Schedule.FormatKernel())
}

func totalReplicated(r *clusched.Result) int {
	n := 0
	for _, c := range r.Replicated {
		n += c
	}
	return n
}
