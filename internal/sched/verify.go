package sched

import (
	"fmt"

	"clusched/internal/ddg"
)

// Verify checks that the schedule honors every dependence and every
// resource limit; it is the ground truth used by the test suite and is
// cheap enough to run inside pipelines when paranoia is warranted.
func Verify(s *Schedule) error {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return verify(s, sc)
}

// verify is Verify with its recount tables in sc.
func verify(s *Schedule, sc *Scratch) error {
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
	// Resources: recount into a zeroed table, one row of NumClasses·II
	// slots per cluster.
	k, row := ig.P.K, ddg.NumClasses*ii
	fu := zeroed(sc.verifyFU, k*row)
	sc.verifyFU = fu
	bus := zeroed(sc.verifyBus, ii)
	sc.verifyBus = bus
	busSlots := ig.M.BusLatency
	if busSlots <= 0 {
		busSlots = 1
	}
	for i := range ig.Inst {
		in := ig.Inst[i]
		t := s.Time[i]
		if in.IsCopy {
			for d := 0; d < busSlots; d++ {
				bus[(t%ii+d)%ii]++ // reduced first: a foreign t may sit at the top of the int range
			}
			continue
		}
		cl := ig.G.Nodes[in.Orig].Op.Class()
		fu[int(in.Cluster)*row+int(cl)*ii+t%ii]++
	}
	for c := 0; c < k; c++ {
		for cl := 0; cl < ddg.NumClasses; cl++ {
			for slot := 0; slot < ii; slot++ {
				if used := fu[c*row+cl*ii+slot]; used > ig.M.FUAt(c, ddg.Class(cl)) {
					return fmt.Errorf("sched: verify: cluster %d class %v slot %d uses %d of %d FUs",
						c, ddg.Class(cl), slot, used, ig.M.FUAt(c, ddg.Class(cl)))
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
