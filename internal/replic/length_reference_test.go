package replic

import (
	"slices"
	"testing"

	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// This file keeps §5.1's retired instance-graph timing verbatim as the
// oracle of the scheduler's, which length replication now reads through
// sched.Scratch.InstanceTiming: a relaxation over the edge list to a
// fixpoint (up to one pass per instance) where the scheduler's walks the
// distance-0 order for at most four passes. Both must agree on every graph
// length replication times.

// igASAP computes resource-unaware earliest issue times over the public
// instance-graph surface, clamping loop-carried edges at the given II, and
// the implied schedule length.
func igASAP(ig *sched.IGraph, ii int) ([]int, int) {
	n := ig.NumInstances()
	asap := make([]int, n)
	for pass := 0; pass < n; pass++ {
		changed := false
		for i := range ig.Edges {
			e := &ig.Edges[i]
			eff := int(e.Lat) - int(e.Dist)*ii
			if e.Dist != 0 && eff <= 0 {
				continue
			}
			if t := asap[e.Src] + eff; t > asap[e.Dst] {
				asap[e.Dst] = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	length := 0
	for i := 0; i < n; i++ {
		if l := asap[i] + ig.Latency(int32(i)); l > length {
			length = l
		}
	}
	return asap, length
}

// igALAP computes latest issue times for the given schedule length.
func igALAP(ig *sched.IGraph, ii, length int) []int {
	n := ig.NumInstances()
	alap := make([]int, n)
	for i := 0; i < n; i++ {
		alap[i] = length - ig.Latency(int32(i))
	}
	for pass := 0; pass < n; pass++ {
		changed := false
		for i := range ig.Edges {
			e := &ig.Edges[i]
			if e.Dist != 0 {
				continue
			}
			if t := alap[e.Dst] - int(e.Lat); t < alap[e.Src] {
				alap[e.Src] = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return alap
}

// TestLengthTimingMatchesReference: on the suite, on every Table 1
// machine, at the first intervals from the MII, the placement replication
// leaves and each one length replication steps to is timed by
// InstanceTiming exactly as the retired igASAP/igALAP timed it.
func TestLengthTimingMatchesReference(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 5
	}
	loops := workload.SPECfp95()
	sc, ssc := NewScratch(), sched.NewScratch()
	graphs := 0
	for _, m := range machine.PaperConfigs() {
		for i := 0; i < len(loops); i += stride {
			g := loops[i].Graph
			lo := mii.MII(g, m)
			for ii := lo; ii < lo+3; ii++ {
				p := placed(g, m, ii)
				if _, ok := RunScratch(p, m, ii, sc); !ok {
					continue
				}
				for step := 0; step < 8; step++ {
					ig, tm, err := ssc.InstanceTiming(p, m, ii)
					if err != nil {
						t.Fatal(err)
					}
					graphs++
					asap, length := igASAP(ig, ii)
					if alap := igALAP(ig, ii, length); tm.Length != length || !slices.Equal(tm.ASAP, asap) || !slices.Equal(tm.ALAP, alap) {
						t.Fatalf("%s on %s at II=%d, step %d: timing %v %v %d, retired %v %v %d",
							g.Name, m.Name, ii, step, tm.ASAP, tm.ALAP, tm.Length, asap, alap, length)
					}
					if LengthReplicate(p, m, ii, 1, sc, ssc) == 0 {
						break
					}
				}
			}
		}
	}
	t.Logf("%d instance graphs", graphs)
}
