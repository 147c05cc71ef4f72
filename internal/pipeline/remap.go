package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/sched"
)

// remapPerms recycles the three node-permutation vectors of one RemapResult
// (invDst, sigma, invSigma) as one slab: they are dead once the call
// returns.
var remapPerms = sync.Pool{New: func() any { return new([]int32) }}

// RemapResult transplants a cached compilation onto an isomorphic graph:
// it composes the two canonical permutations into a node isomorphism,
// carries the cached placement and issue times across it, and re-proves
// the transplanted schedule with sched.Prove — the same dependence,
// resource and register checks the wire decode path runs, so a remapped
// result is never trusted, only proven (a failed proof returns an error
// and the caller falls back to a fresh compilation). The target graph must
// have the same canonical fingerprint as cached.Loop.
func RemapResult(cached *Result, g *ddg.Graph, opts Options) (*Result, error) {
	src := cached.Loop
	if cached.Schedule == nil || cached.Placement == nil {
		return nil, fmt.Errorf("pipeline: remap: cached result has no schedule")
	}
	n := g.NumNodes()
	if src.NumNodes() != n || src.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("pipeline: remap: graph size mismatch")
	}
	cSrc, cDst := src.CanonicalForm(), g.CanonicalForm()
	if cSrc.Sum != cDst.Sum {
		return nil, fmt.Errorf("pipeline: remap: canonical fingerprints differ")
	}

	// sigma maps cached node → target node through the shared canonical
	// ordering: a node and its image occupy the same canonical position.
	slab := remapPerms.Get().(*[]int32)
	defer remapPerms.Put(slab)
	*slab = arena.Grown(*slab, 3*n)
	invDst, sigma, invSigma := (*slab)[:n], (*slab)[n:2*n], (*slab)[2*n:]
	for v, c := range cDst.Perm {
		invDst[c] = int32(v)
	}
	for v := 0; v < n; v++ {
		sigma[v] = invDst[cSrc.Perm[v]]
		if g.Nodes[sigma[v]].Op != src.Nodes[v].Op {
			// Only reachable through a canonical-sum hash collision.
			return nil, fmt.Errorf("pipeline: remap: opcode mismatch under permutation")
		}
	}

	cp := cached.Placement
	place := func(home []int, replicas []sched.ClusterSet) error {
		for v := 0; v < n; v++ {
			home[sigma[v]] = cp.Home[v]
			replicas[sigma[v]] = cp.Replicas[v]
		}
		return nil
	}

	cig := cached.Schedule.IG
	for v := 0; v < n; v++ {
		invSigma[sigma[v]] = int32(v)
	}
	// Pull each target instance's issue time from its cached counterpart:
	// same original node (through sigma) in the same cluster, or the
	// node's copy instance.
	var layoutErr error
	layout := func(ig *sched.IGraph, times []int) ([]int, error) {
		if ig.NumInstances() != cig.NumInstances() {
			layoutErr = fmt.Errorf("pipeline: remap: instance count mismatch")
			return nil, layoutErr
		}
		for i, inst := range ig.Inst {
			v := int(invSigma[inst.Orig])
			var ci int32
			if inst.IsCopy {
				ci = cig.CopyIdx[v]
			} else {
				ci = cig.InstanceAt(v, inst.Cluster)
			}
			if ci < 0 {
				layoutErr = fmt.Errorf("pipeline: remap: instance %d has no cached counterpart", i)
				return nil, layoutErr
			}
			times[i] = cached.Schedule.Time[ci]
		}
		return times, nil
	}
	s, err := sched.Prove(g, cached.Machine, opts.ZeroBusLatency, cached.Schedule.II,
		sched.Options{SkipRegisterCheck: opts.IgnoreRegisterPressure}, place, layout)
	if err != nil {
		var unproven *sched.Error // declared here: errors.As moves it to the heap
		switch {
		case layoutErr != nil:
			return nil, layoutErr
		case errors.As(err, &unproven):
			return nil, fmt.Errorf("pipeline: remapped schedule does not verify: %w", err)
		default:
			return nil, fmt.Errorf("pipeline: remap: %w", err)
		}
	}
	if s.Length != cached.Length || s.SC != cached.SC {
		return nil, fmt.Errorf("pipeline: remap: length/SC changed (%d/%d vs %d/%d)",
			s.Length, s.SC, cached.Length, cached.SC)
	}
	if c := s.IG.P.Comms(); c != cached.Comms {
		return nil, fmt.Errorf("pipeline: remap: comm count changed (%d vs %d)", c, cached.Comms)
	}

	out := *cached
	out.Loop = g
	out.Schedule = s
	out.Placement = s.IG.P
	return &out, nil
}
