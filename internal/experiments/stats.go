package experiments

import (
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// CommStatsRow aggregates the §4 replication statistics for one
// configuration: how many communications replication removed and how many
// instructions each removal cost. The paper reports ~36% of communications
// removed on 4c1b2l64r at ~2.1 replicated instructions per removed
// communication.
type CommStatsRow struct {
	Config string
	// CommsBefore/After aggregate partition-implied vs final communications
	// across the suite.
	CommsBefore, CommsAfter int
	// RemovedPct is the share of communications removed.
	RemovedPct float64
	// InstrsPerComm is the average number of replicated instructions per
	// removed communication.
	InstrsPerComm float64
}

// CommStats computes the statistics on the paper's configurations.
func CommStats() []CommStatsRow {
	var rows []CommStatsRow
	for _, m := range machine.PaperConfigs() {
		sr := RunSuite(m, pipeline.Options{Replicate: true})
		var before, after, replicated int
		for _, lrs := range sr.ByBench {
			for _, lr := range lrs {
				before += lr.Result.CommsBeforeReplication
				after += lr.Result.Comms
				for _, n := range lr.Result.Replicated {
					replicated += n
				}
			}
		}
		row := CommStatsRow{Config: m.Name, CommsBefore: before, CommsAfter: after}
		if before > 0 {
			row.RemovedPct = 100 * float64(before-after) / float64(before)
		}
		if removed := before - after; removed > 0 {
			row.InstrsPerComm = float64(replicated) / float64(removed)
		}
		rows = append(rows, row)
	}
	return rows
}

// MacroRow compares the greedy per-communication heuristic (§3.3) against
// the macro-node batch alternative (§5.2) on one configuration. The paper
// found macro replication ineffective because it replicates too many
// unnecessary instructions; the comparison reproduces that conclusion.
type MacroRow struct {
	Config string
	// GreedyHMEAN/MacroHMEAN are harmonic-mean IPCs of the two heuristics.
	GreedyHMEAN, MacroHMEAN float64
	// GreedyAddedPct/MacroAddedPct are the added-instruction percentages.
	GreedyAddedPct, MacroAddedPct float64
}

// MacroAblation runs the §5.2 comparison on two representative
// configurations.
func MacroAblation() []MacroRow {
	var rows []MacroRow
	for _, name := range []string{"4c1b2l64r", "4c2b4l64r"} {
		m := machine.MustParse(name)
		greedy := RunSuite(m, pipeline.Options{Replicate: true})
		macro := RunSuite(m, pipeline.Options{Replicate: true, UseMacroReplication: true})
		_, gh := IPCByBench(greedy)
		_, mh := IPCByBench(macro)
		rows = append(rows, MacroRow{
			Config:         name,
			GreedyHMEAN:    gh,
			MacroHMEAN:     mh,
			GreedyAddedPct: addedPct(greedy),
			MacroAddedPct:  addedPct(macro),
		})
	}
	return rows
}

func addedPct(sr *SuiteResult) float64 {
	var added, useful float64
	// Bench order, not map order: float summation must be deterministic so
	// the committed figures reproduce byte-identically.
	for _, bench := range workload.Benchmarks() {
		for _, lr := range sr.ByBench[bench] {
			dyn := lr.Loop.AvgIters * float64(lr.Loop.Visits)
			useful += float64(lr.Loop.Graph.NumNodes()) * dyn
			for _, n := range lr.Result.Placement.ExtraInstances() {
				added += float64(n) * dyn
			}
		}
	}
	if useful == 0 {
		return 0
	}
	return 100 * added / useful
}
