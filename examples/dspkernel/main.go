// DSP kernel: the paper motivates clustering with DSP processors
// (TI TMS320C6x, TigerSHARC, Lx, ...). This example software-pipelines a
// complex FIR filter — the bread-and-butter DSP kernel — across every
// clustered configuration of the paper and compares the baseline scheduler
// against instruction replication.
//
//	for n := range out {
//	    accR, accI := 0, 0
//	    // unrolled 4-tap complex multiply-accumulate
//	    for t := 0; t < 4; t++ {
//	        accR += xR[n+t]*cR[t] - xI[n+t]*cI[t]
//	        accI += xR[n+t]*cI[t] + xI[n+t]*cR[t]
//	    }
//	    outR[n], outI[n] = accR, accI
//	}
package main

import (
	"fmt"
	"log"

	"clusched"
)

// buildFIR builds the unrolled complex FIR loop body: taps 4-tap complex
// MAC with a shared index computation.
func buildFIR(taps int) *clusched.Graph {
	b := clusched.NewLoop(fmt.Sprintf("cfir%d", taps))
	idx := b.Node("idx", clusched.OpIAdd)
	b.Edge(idx, idx, 1)

	var sumR, sumI int = -1, -1
	for t := 0; t < taps; t++ {
		off := b.Node(fmt.Sprintf("off%d", t), clusched.OpIAdd)
		b.Edge(idx, off, 0)
		xr := b.Node(fmt.Sprintf("xr%d", t), clusched.OpLoad)
		xi := b.Node(fmt.Sprintf("xi%d", t), clusched.OpLoad)
		b.Edge(off, xr, 0)
		b.Edge(off, xi, 0)

		// Four products of the complex MAC; coefficients are loop-invariant
		// registers, so they do not appear as loads.
		rr := b.Node(fmt.Sprintf("rr%d", t), clusched.OpFMul)
		ii := b.Node(fmt.Sprintf("ii%d", t), clusched.OpFMul)
		ri := b.Node(fmt.Sprintf("ri%d", t), clusched.OpFMul)
		ir := b.Node(fmt.Sprintf("ir%d", t), clusched.OpFMul)
		b.Edge(xr, rr, 0)
		b.Edge(xi, ii, 0)
		b.Edge(xr, ri, 0)
		b.Edge(xi, ir, 0)

		subR := b.Node(fmt.Sprintf("subR%d", t), clusched.OpFAdd)
		b.Edge(rr, subR, 0)
		b.Edge(ii, subR, 0)
		addI := b.Node(fmt.Sprintf("addI%d", t), clusched.OpFAdd)
		b.Edge(ri, addI, 0)
		b.Edge(ir, addI, 0)

		if sumR < 0 {
			sumR, sumI = subR, addI
			continue
		}
		nr := b.Node(fmt.Sprintf("accR%d", t), clusched.OpFAdd)
		b.Edge(sumR, nr, 0)
		b.Edge(subR, nr, 0)
		ni := b.Node(fmt.Sprintf("accI%d", t), clusched.OpFAdd)
		b.Edge(sumI, ni, 0)
		b.Edge(addI, ni, 0)
		sumR, sumI = nr, ni
	}
	stR := b.Node("stR", clusched.OpStore)
	b.Edge(sumR, stR, 0)
	b.Edge(idx, stR, 0)
	stI := b.Node("stI", clusched.OpStore)
	b.Edge(sumI, stI, 0)
	b.Edge(idx, stI, 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func main() {
	g := buildFIR(4)
	fmt.Printf("complex FIR loop: %v\n\n", g)
	fmt.Printf("%-12s %4s  %4s/%4s  %8s  %s\n", "config", "MII", "base", "repl", "speedup", "comms base->repl")
	const iters = 256
	for _, m := range clusched.PaperMachines() {
		base, err := clusched.Compile(g, m, clusched.Options{})
		if err != nil {
			log.Fatal(err)
		}
		repl, err := clusched.Compile(g, m, clusched.Options{Replicate: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %4d  %4d/%4d  %7.2fx  %d -> %d\n",
			m.Name, base.MII, base.II, repl.II,
			repl.Speedup(base, iters),
			base.Comms, repl.Comms)
	}

	// The unified machine bounds what any clustered configuration can do.
	u, err := clusched.Compile(g, clusched.UnifiedMachine(64), clusched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %4d  %4d (upper bound)\n", "unified", u.MII, u.II)
}
