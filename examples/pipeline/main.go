// Pipeline: compile a loop for a clustered machine, expand the modulo
// schedule into software-pipelined VLIW code (prolog / MVE-unrolled kernel
// / epilog with physical registers), print the assembly, and verify the
// emitted code end-to-end by executing it against a register-file model and
// comparing every stored value with a direct evaluation of the loop.
package main

import (
	"fmt"
	"log"

	"clusched"
)

func main() {
	// A dot-product-with-update loop: two loads, multiply, accumulate into
	// a loop-carried sum, plus an independent scaled store.
	b := clusched.NewLoop("dotscale")
	idx := b.Node("idx", clusched.OpIAdd)
	b.Edge(idx, idx, 1)
	x := b.Node("x", clusched.OpLoad)
	y := b.Node("y", clusched.OpLoad)
	b.Edge(idx, x, 0)
	b.Edge(idx, y, 0)
	m := b.Node("m", clusched.OpFMul)
	b.Edge(x, m, 0)
	b.Edge(y, m, 0)
	acc := b.Node("acc", clusched.OpFAdd)
	b.Edge(m, acc, 0)
	b.Edge(acc, acc, 1) // the running sum
	sc := b.Node("sc", clusched.OpFMul)
	b.Edge(x, sc, 0)
	st := b.Node("st", clusched.OpStore)
	b.Edge(sc, st, 0)
	b.Edge(idx, st, 0)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	mach := clusched.MustParseMachine("2c1b2l64r")
	res, err := clusched.Compile(g, mach, clusched.Options{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s on %s: II=%d (MII=%d), %d stages\n\n",
		g.Name, mach, res.II, res.MII, res.SC)

	p, err := clusched.ExpandPipeline(res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p.Format())

	// Execute the emitted code and check it against direct evaluation.
	iters := p.SC - 1 + 4*p.MVE
	if err := p.VerifyAgainstReference(iters); err != nil {
		log.Fatalf("pipeline verification FAILED: %v", err)
	}
	fmt.Printf("\npipeline verified: %d iterations produce identical store traces\n", iters)
}
