// Package unroll implements loop unrolling for DDGs — the competing
// communication-reduction technique the paper's related work discusses
// (Sánchez & González [22]): unrolling gives the partitioner U independent
// copies of the loop body to spread across clusters, which removes most
// communications but multiplies the code size, a critical cost on the DSP
// parts that motivate clustered VLIWs. The ablation in
// internal/experiments compares it against instruction replication.
package unroll

import (
	"fmt"

	"clusched/internal/ddg"
)

// Unroll returns the loop body replicated factor times, with loop-carried
// dependences rewritten: an edge with distance d from copy i lands in copy
// (i+d) mod factor at distance (i+d)/factor. The unrolled loop executes
// ceil(N/factor) iterations of the new body; callers must handle trip-count
// preconditioning themselves (as real compilers do).
func Unroll(g *ddg.Graph, factor int) (*ddg.Graph, error) {
	if factor < 1 {
		return nil, fmt.Errorf("unroll: factor %d", factor)
	}
	if factor == 1 {
		return g.Clone(), nil
	}
	b := ddg.NewBuilder(fmt.Sprintf("%s_x%d", g.Name, factor))
	// ids[copy][node] is the new node ID.
	ids := make([][]int, factor)
	for u := 0; u < factor; u++ {
		ids[u] = make([]int, g.NumNodes())
		for v := range g.Nodes {
			label := ""
			if g.Nodes[v].Label != "" {
				label = fmt.Sprintf("%s_u%d", g.Nodes[v].Label, u)
			}
			ids[u][v] = b.Node(label, g.Nodes[v].Op)
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		for u := 0; u < factor; u++ {
			target := u + e.Dist
			newDist := target / factor
			targetCopy := target % factor
			src := ids[u][e.Src]
			dst := ids[targetCopy][e.Dst]
			switch e.Kind {
			case ddg.EdgeData:
				b.EdgeLat(src, dst, newDist, e.Lat)
			default:
				if src == dst && newDist == 0 {
					continue
				}
				b.MemEdge(src, dst, newDist)
				// MemEdge fixes latency 1; honor custom latencies.
				_ = e.Lat
			}
		}
	}
	return b.Build()
}

// CodeSize returns the static code growth of unrolling: the unrolled body's
// operation count relative to the original.
func CodeSize(g *ddg.Graph, factor int) int { return g.NumNodes() * factor }
