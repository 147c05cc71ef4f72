package sched

// The retired way to check a foreign schedule, kept verbatim as the oracle
// Prove, Adopt, Verify and detach are held to: BuildIGraph on a fresh
// Scratch with a copy per slice out of it, then Adopt — a second fresh
// Scratch for the register pressure, Verify recounting into freshly made
// tables. prove_test.go diffs the pooled, copy-once path against it.

import (
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

func referenceBuildIGraph(p *Placement, m machine.Config, zeroBusLat bool) (*IGraph, error) {
	var sc Scratch
	ig, err := sc.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, err
	}
	return referenceDetach(ig), nil
}

func referenceDetach(ig *IGraph) *IGraph {
	if !ig.scratch {
		return ig
	}
	out := *ig
	out.scratch = false
	out.Inst = append([]Instance(nil), ig.Inst...)
	out.Edges = append([]IEdge(nil), ig.Edges...)
	out.CopyIdx = append([]int32(nil), ig.CopyIdx...)
	out.instIdx = append([]int32(nil), ig.instIdx...)
	out.outOff = append([]int32(nil), ig.outOff...)
	out.inOff = append([]int32(nil), ig.inOff...)
	out.outIdx = append([]int32(nil), ig.outIdx...)
	out.inIdx = append([]int32(nil), ig.inIdx...)
	return &out
}

func referenceAdopt(ig *IGraph, ii int, times []int, opts Options) (*Schedule, error) {
	if len(times) != ig.NumInstances() {
		return nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: "time vector size mismatch"}
	}
	s := &Schedule{IG: referenceDetach(ig), II: ii, Time: append([]int(nil), times...)}
	for i := range ig.Inst {
		if l := s.Time[i] + ig.Latency(int32(i)); l > s.Length {
			s.Length = l
		}
	}
	if s.Length == 0 {
		s.Length = 1
	}
	s.MaxLive = computeMaxLive(s.IG, ii, s.Time, NewScratch())
	s.MaxLive = append([]int(nil), s.MaxLive...)
	s.SC = (s.Length + ii - 1) / ii
	if err := referenceVerify(s); err != nil {
		return nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: err.Error()}
	}
	if !opts.SkipRegisterCheck {
		for c, live := range s.MaxLive {
			if live > ig.M.Regs {
				return nil, &Error{Kind: FailRegisters, Inst: -1,
					II: ii, Cluster: c, Live: live, Regs: ig.M.Regs}
			}
		}
	}
	return s, nil
}

func referenceVerify(s *Schedule) error {
	ig := s.IG
	ii := s.II
	if ii <= 0 {
		return fmt.Errorf("sched: verify: non-positive II %d", ii)
	}
	if len(s.Time) != ig.NumInstances() {
		return fmt.Errorf("sched: verify: %d times for %d instances", len(s.Time), ig.NumInstances())
	}
	for i, t := range s.Time {
		if t < 0 {
			return fmt.Errorf("sched: verify: instance %s issues at negative time %d", ig.Name(int32(i)), t)
		}
	}
	// Dependences: Time[dst] + II·dist ≥ Time[src] + lat.
	for i := range ig.Edges {
		e := &ig.Edges[i]
		if s.Time[e.Dst]+ii*int(e.Dist) < s.Time[e.Src]+int(e.Lat) {
			return fmt.Errorf("sched: verify: edge %s->%s violated: %d + %d·%d < %d + %d",
				ig.Name(e.Src), ig.Name(e.Dst), s.Time[e.Dst], ii, e.Dist, s.Time[e.Src], e.Lat)
		}
	}
	// Resources: recount into a fresh table.
	fu := make([][]int, ig.P.K)
	for c := range fu {
		fu[c] = make([]int, ddg.NumClasses*ii)
	}
	bus := make([]int, ii)
	busSlots := ig.M.BusLatency
	if busSlots <= 0 {
		busSlots = 1
	}
	for i := range ig.Inst {
		in := ig.Inst[i]
		t := s.Time[i]
		if in.IsCopy {
			for d := 0; d < busSlots; d++ {
				bus[(t+d)%ii]++
			}
			continue
		}
		cl := ig.G.Nodes[in.Orig].Op.Class()
		fu[in.Cluster][int(cl)*ii+t%ii]++
	}
	for c := range fu {
		for cl := 0; cl < ddg.NumClasses; cl++ {
			for slot := 0; slot < ii; slot++ {
				if fu[c][cl*ii+slot] > ig.M.FUAt(c, ddg.Class(cl)) {
					return fmt.Errorf("sched: verify: cluster %d class %v slot %d uses %d of %d FUs",
						c, ddg.Class(cl), slot, fu[c][cl*ii+slot], ig.M.FUAt(c, ddg.Class(cl)))
				}
			}
		}
	}
	for slot := 0; slot < ii; slot++ {
		if bus[slot] > ig.M.Buses {
			return fmt.Errorf("sched: verify: bus slot %d carries %d of %d buses", slot, bus[slot], ig.M.Buses)
		}
	}
	// Stage count consistency.
	want := (s.Length + ii - 1) / ii
	if s.SC != want {
		return fmt.Errorf("sched: verify: SC=%d but Length=%d at II=%d implies %d", s.SC, s.Length, ii, want)
	}
	return nil
}
