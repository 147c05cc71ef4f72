package experiments

import (
	"fmt"
	"strings"

	"clusched/internal/machine"
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
		sr := RunSuite(m, Replication)
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

// CommStatsReport renders the statistics as text.
func CommStatsReport() string {
	var sb strings.Builder
	sb.WriteString("§4 statistics: communications removed by replication\n")
	sb.WriteString("(paper: ~36% of communications removed on 4c1b2l64r, ~2.1 replicated\n")
	sb.WriteString("instructions per removed communication)\n\n")
	t := NewTable("config", "comms before", "comms after", "removed %", "instrs/removed comm")
	for _, r := range CommStats() {
		t.AddRow(r.Config, r.CommsBefore, r.CommsAfter, r.RemovedPct, r.InstrsPerComm)
	}
	sb.WriteString(t.String())
	return sb.String()
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
		greedy := RunSuite(m, Replication)
		macro := RunSuite(m, ReplicationMacro)
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

// MacroAblationReport renders the §5.2 comparison as text.
func MacroAblationReport() string {
	var sb strings.Builder
	sb.WriteString("§5.2 ablation: greedy per-communication replication vs macro-node batches\n")
	sb.WriteString("(paper: macro-node replication copies too many unnecessary instructions)\n\n")
	t := NewTable("config", "greedy HMEAN", "macro HMEAN", "greedy added %", "macro added %")
	for _, r := range MacroAblation() {
		t.AddRow(r.Config, r.GreedyHMEAN, r.MacroHMEAN, r.GreedyAddedPct, r.MacroAddedPct)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// FullReport runs every experiment and concatenates the reports; this is
// what cmd/paperbench prints and what EXPERIMENTS.md records.
func FullReport() string {
	sections := []string{
		"Table 1: machine configurations\n\n" + Table1(),
		Fig1Report(),
		Fig7Report(),
		Fig8Report(),
		Fig9Report(),
		Fig10Report(),
		Fig12Report(),
		CommStatsReport(),
		MacroAblationReport(),
		UnrollAblationReport(),
		RegSweepReport(),
		DesignAblationReport(),
	}
	var sb strings.Builder
	for i, s := range sections {
		if i > 0 {
			sb.WriteString("\n" + strings.Repeat("=", 78) + "\n\n")
		}
		sb.WriteString(s)
	}
	fmt.Fprintf(&sb, "\n")
	return sb.String()
}
