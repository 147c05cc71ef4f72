// Package sched implements the modulo scheduler of the base framework
// (§2.3.2): given a placement of operations onto clusters (including
// replicas added by the replication pass), it materializes inter-cluster
// copy operations, orders nodes SMS-style, and places each operation in a
// reservation-table slot as close as possible to its scheduled neighbors,
// without backtracking. It also estimates per-cluster register pressure
// (MaxLive) and verifies schedules.
package sched

import (
	"fmt"
	"math/bits"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
)

// ClusterSet is a bitmask of cluster indices (machines have at most 32
// clusters; the paper's have at most 4).
type ClusterSet uint32

// Has reports whether cluster c is in the set.
func (s ClusterSet) Has(c int) bool { return s&(1<<uint(c)) != 0 }

// Add returns the set with cluster c included.
func (s ClusterSet) Add(c int) ClusterSet { return s | 1<<uint(c) }

// Remove returns the set with cluster c excluded.
func (s ClusterSet) Remove(c int) ClusterSet { return s &^ (1 << uint(c)) }

// Union returns the union of both sets.
func (s ClusterSet) Union(o ClusterSet) ClusterSet { return s | o }

// Minus returns the clusters of s not in o.
func (s ClusterSet) Minus(o ClusterSet) ClusterSet { return s &^ o }

// Empty reports whether the set has no clusters.
func (s ClusterSet) Empty() bool { return s == 0 }

// Count returns the number of clusters in the set.
func (s ClusterSet) Count() int { return bits.OnesCount32(uint32(s)) }

// Lowest returns the smallest cluster index in the set (undefined for the
// empty set). Together with DropLowest it iterates a set without
// allocating:
//
//	for s := set; s != 0; s = s.DropLowest() {
//		c := s.Lowest()
//	}
func (s ClusterSet) Lowest() int { return bits.TrailingZeros32(uint32(s)) }

// DropLowest returns the set without its smallest member.
func (s ClusterSet) DropLowest() ClusterSet { return s & (s - 1) }

// Clusters returns the members in increasing order. It allocates; hot paths
// iterate with Lowest/DropLowest instead.
func (s ClusterSet) Clusters() []int {
	out := make([]int, 0, s.Count())
	for c := 0; s != 0; c, s = c+1, s>>1 {
		if s&1 != 0 {
			out = append(out, c)
		}
	}
	return out
}

// Placement describes where each original operation has instances: its home
// cluster (from the partitioner) plus any replica clusters added by the
// replication pass. The home instance may be removed (dead after
// replication), in which case the home bit is cleared from Replicas.
type Placement struct {
	// G is the source loop.
	G *ddg.Graph
	// K is the number of clusters.
	K int
	// Home[v] is the cluster the partitioner assigned v to.
	Home []int
	// Replicas[v] is the set of clusters holding an instance of v. It
	// initially equals {Home[v]}.
	Replicas []ClusterSet

	// scratch marks a placement that lives in a Scratch arena (see
	// Scratch.Placement): an accepted schedule takes a copy, not the
	// pointer.
	scratch bool
}

// NewPlacement wraps a partitioner assignment into a placement with no
// replicas. The placement owns its memory; a schedule accepted for it
// shares it.
func NewPlacement(g *ddg.Graph, a *partition.Assignment) *Placement {
	p := &Placement{G: g, K: a.K, Home: make([]int, g.NumNodes()), Replicas: make([]ClusterSet, g.NumNodes())}
	p.fill(a)
	return p
}

// Placement is NewPlacement into the arena: the placement is the attempt's,
// valid until the next call, and a schedule accepted for it carries its own
// copy (so Schedule.IG.P is what outlives the attempt, not this pointer).
func (sc *Scratch) Placement(g *ddg.Graph, a *partition.Assignment) *Placement {
	p := sc.placement(g, a.K)
	p.fill(a)
	return p
}

// placement sizes the arena's placement slot for g on k clusters; what its
// vectors hold is the last attempt's.
func (sc *Scratch) placement(g *ddg.Graph, k int) *Placement {
	p, n := &sc.place, g.NumNodes()
	*p = Placement{G: g, K: k, Home: grown(p.Home, n), Replicas: grown(p.Replicas, n), scratch: true}
	return p
}

// fill sets every node's home and sole instance from the assignment.
func (p *Placement) fill(a *partition.Assignment) {
	copy(p.Home, a.Cluster)
	for v, c := range p.Home {
		p.Replicas[v] = ClusterSet(0).Add(c)
	}
}

// Clone returns a deep copy.
func (p *Placement) Clone() *Placement {
	return &Placement{
		G:        p.G,
		K:        p.K,
		Home:     append([]int(nil), p.Home...),
		Replicas: append([]ClusterSet(nil), p.Replicas...),
	}
}

// ConsumerClusters returns the set of clusters containing instances that
// consume v's value.
func (p *Placement) ConsumerClusters(v int) ClusterSet {
	var s ClusterSet
	for _, eid := range p.G.Out(v) {
		e := &p.G.Edges[eid]
		if e.Kind == ddg.EdgeData {
			s = s.Union(p.Replicas[e.Dst])
		}
	}
	return s
}

// NeedsComm reports whether v's value must cross clusters: some consumer
// instance lives in a cluster with no instance of v. Stores produce no
// register value and never communicate (§3.1).
func (p *Placement) NeedsComm(v int) bool {
	if p.G.Nodes[v].Op.IsStore() {
		return false
	}
	return !p.ConsumerClusters(v).Minus(p.Replicas[v]).Empty()
}

// CommTargets returns the clusters that still need v's value delivered:
// consumer clusters without an instance of v.
func (p *Placement) CommTargets(v int) ClusterSet {
	return p.ConsumerClusters(v).Minus(p.Replicas[v])
}

// Comms returns the number of values that must be communicated (nof_coms in
// the paper's notation).
func (p *Placement) Comms() int {
	n := 0
	for v := range p.G.Nodes {
		if p.NeedsComm(v) {
			n++
		}
	}
	return n
}

// ClassCounts returns per-cluster, per-class instance counts, counting
// replicas and excluding removed home instances. It allocates the result;
// hot paths use ClassCountsInto.
func (p *Placement) ClassCounts() [][ddg.NumClasses]int {
	return p.ClassCountsInto(make([][ddg.NumClasses]int, p.K))
}

// ClassCountsInto is ClassCounts into a caller-owned buffer of length K.
func (p *Placement) ClassCountsInto(counts [][ddg.NumClasses]int) [][ddg.NumClasses]int {
	for c := range counts {
		counts[c] = [ddg.NumClasses]int{}
	}
	for v := range p.G.Nodes {
		cl := p.G.Nodes[v].Op.Class()
		for rs := p.Replicas[v]; rs != 0; rs = rs.DropLowest() {
			counts[rs.Lowest()][cl]++
		}
	}
	return counts
}

// ExtraInstances returns, per class, the number of instances beyond one per
// original node (replication cost), net of removed originals. Negative
// per-class values are possible when removal outweighs replication for that
// class.
func (p *Placement) ExtraInstances() [ddg.NumClasses]int {
	var extra [ddg.NumClasses]int
	for v := range p.G.Nodes {
		extra[p.G.Nodes[v].Op.Class()] += p.Replicas[v].Count() - 1
	}
	return extra
}

// Validate checks structural invariants: every node has at least one
// instance, and communicated values retain their home instance (the bus
// source).
func (p *Placement) Validate() error {
	for v := range p.G.Nodes {
		if p.Replicas[v].Empty() {
			return fmt.Errorf("sched: node %d has no instances", v)
		}
		if p.NeedsComm(v) && !p.Replicas[v].Has(p.Home[v]) {
			return fmt.Errorf("sched: node %d is communicated but its home instance was removed", v)
		}
	}
	return nil
}

// Machine-facing helpers shared by the scheduler and the replication pass.

// ClusterResIIOf returns the largest per-cluster resource II of the
// placement on machine m: the smallest II whose reservation tables have a
// slot for every instance of every cluster (pigeonhole over FU slots).
func (p *Placement) ClusterResIIOf(m machine.Config) int {
	best := 1
	for c, counts := range p.ClassCounts() {
		for cl, n := range counts {
			fu := m.FUAt(c, ddg.Class(cl))
			if fu == 0 {
				if n > 0 {
					return 1 << 20
				}
				continue
			}
			if r := (n + fu - 1) / fu; r > best {
				best = r
			}
		}
	}
	return best
}
