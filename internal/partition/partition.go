// Package partition assigns the nodes of a loop DDG to clusters. It
// reimplements the multilevel graph-partitioning strategy of the base
// scheduler the paper builds on (§2.3.1): edges are weighted by the impact
// that paying a bus latency on them would have on execution time, the graph
// is coarsened by repeated maximum-weight matching, macro-nodes are assigned
// to clusters, and the assignment is refined by profitable single-node moves
// scored by (induced II, communications, weighted cut).
package partition

import (
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
)

// Assignment maps every node of a graph to a cluster in [0, K).
type Assignment struct {
	// Cluster[v] is the cluster of node v.
	Cluster []int
	// K is the number of clusters.
	K int
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{Cluster: append([]int(nil), a.Cluster...), K: a.K}
}

// Validate checks that the assignment covers graph g with clusters in range.
func (a *Assignment) Validate(g *ddg.Graph) error {
	if len(a.Cluster) != g.NumNodes() {
		return fmt.Errorf("partition: assignment covers %d nodes, graph has %d", len(a.Cluster), g.NumNodes())
	}
	for v, c := range a.Cluster {
		if c < 0 || c >= a.K {
			return fmt.Errorf("partition: node %d assigned to cluster %d (K=%d)", v, c, a.K)
		}
	}
	return nil
}

// ClassCounts returns the per-cluster, per-class operation counts.
func (a *Assignment) ClassCounts(g *ddg.Graph) [][ddg.NumClasses]int {
	counts := make([][ddg.NumClasses]int, a.K)
	for v := range g.Nodes {
		counts[a.Cluster[v]][g.Nodes[v].Op.Class()]++
	}
	return counts
}

// Comms returns the number of inter-cluster communications the assignment
// implies: the number of nodes whose value is consumed in at least one
// cluster other than their own. Buses broadcast, so each such value costs
// one bus transfer regardless of how many clusters consume it (§3.1).
func (a *Assignment) Comms(g *ddg.Graph) int {
	coms := 0
	for v := range g.Nodes {
		if a.NeedsComm(g, v) {
			coms++
		}
	}
	return coms
}

// NeedsComm reports whether node v's value must be communicated under the
// assignment.
func (a *Assignment) NeedsComm(g *ddg.Graph, v int) bool {
	if g.Nodes[v].Op.IsStore() {
		return false
	}
	for _, eid := range g.Out(v) {
		e := &g.Edges[eid]
		if e.Kind == ddg.EdgeData && a.Cluster[e.Dst] != a.Cluster[v] {
			return true
		}
	}
	return false
}

// Unified returns the trivial single-cluster assignment.
func Unified(g *ddg.Graph) *Assignment {
	return &Assignment{Cluster: make([]int, g.NumNodes()), K: 1}
}

// InitialScratch computes a partition of g for machine m at initiation
// interval ii using the multilevel strategy: coarsen by maximum-weight
// matching, assign macro-nodes to clusters, then refine. It works in a
// caller-owned scratch arena, which the II search reuses across all its
// partitioning calls. The returned assignment lives in the arena and is
// valid until the call after next on it (Scratch.assignment); a caller that
// keeps it longer clones it.
func InitialScratch(g *ddg.Graph, m machine.Config, ii int, sc *Scratch) *Assignment {
	if !m.Clustered() {
		a := sc.assignment(g.NumNodes(), 1) // Unified, in the arena
		clear(a.Cluster)
		return a
	}
	return initial(g, m, ii, edgeWeights(g, m, ii, sc), sc)
}

// InitialUniform is InitialScratch with uniform edge weights instead of the
// slack-based weighting, on its own arena — the ablation showing why the
// base algorithm weights edges by the execution-time impact of a bus
// latency ([1], §2.3.1).
func InitialUniform(g *ddg.Graph, m machine.Config, ii int) *Assignment {
	if !m.Clustered() {
		return Unified(g)
	}
	return initial(g, m, ii, uniformWeights(g), NewScratch()).Clone()
}

// initial is the multilevel partition of a clustered machine under the
// edge weights w.
func initial(g *ddg.Graph, m machine.Config, ii int, w []int, sc *Scratch) *Assignment {
	ms := coarsen(g, m, ii, w, sc)
	a := assignMacros(g, m, ii, ms, w, sc)
	refine(g, m, ii, a, w, sc)
	return a
}

// uniformWeights weighs every data edge 1 and every memory edge 0.
func uniformWeights(g *ddg.Graph) []int {
	w := make([]int, g.NumEdges())
	for i := range g.Edges {
		if g.Edges[i].Kind == ddg.EdgeData {
			w[i] = 1
		}
	}
	return w
}

// RefineScratch improves an existing assignment for a (typically
// increased) ii without modifying it. This is the "refine partition" step
// of the paper's Fig. 2 driver loop. The result lives in the arena under
// InitialScratch's lifetime rule, which is what lets a be the previous
// call's result.
func RefineScratch(g *ddg.Graph, m machine.Config, ii int, a *Assignment, sc *Scratch) *Assignment {
	if !m.Clustered() {
		return InitialScratch(g, m, ii, sc)
	}
	na := sc.assignment(len(a.Cluster), a.K)
	copy(na.Cluster, a.Cluster)
	w := edgeWeights(g, m, ii, sc)
	refine(g, m, ii, na, w, sc)
	return na
}

// InducedII returns the II that the assignment forces, before scheduling:
// the maximum of the per-cluster resource II and the bus II.
func InducedII(g *ddg.Graph, m machine.Config, a *Assignment) int {
	best := 1
	for c, counts := range a.ClassCounts(g) {
		if r := mii.ClusterResIIAt(counts, m, c); r > best {
			best = r
		}
	}
	if b := m.MinBusII(a.Comms(g)); b > best {
		best = b
	}
	return best
}
