package experiments

import (
	"strings"

	"clusched/internal/machine"
	"clusched/internal/metrics"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// Fig1Row is one stacked bar of the paper's Fig. 1: the share of II
// increases (beyond the MII) attributable to each cause under the baseline
// scheduler.
type Fig1Row struct {
	Config    string
	BusPct    float64
	RecPct    float64
	RegPct    float64
	Increases int
	// LoopsAboveMII counts loops whose final II exceeded the MII.
	LoopsAboveMII int
}

// Fig1 reproduces the cause breakdown on the paper's three configurations.
func Fig1() []Fig1Row {
	var rows []Fig1Row
	for _, m := range machine.Fig1Configs() {
		sr := RunSuite(m, Baseline)
		var counts [pipeline.NumCauses]int
		above := 0
		for _, lrs := range sr.ByBench {
			for _, lr := range lrs {
				for c := pipeline.Cause(0); c < pipeline.NumCauses; c++ {
					counts[c] += lr.Result.IIIncreases[c]
				}
				if lr.Result.II > lr.Result.MII {
					above++
				}
			}
		}
		total := counts[pipeline.CauseBus] + counts[pipeline.CauseRecurrence] + counts[pipeline.CauseRegisters]
		row := Fig1Row{Config: m.Name, Increases: total, LoopsAboveMII: above}
		if total > 0 {
			row.BusPct = 100 * float64(counts[pipeline.CauseBus]) / float64(total)
			row.RecPct = 100 * float64(counts[pipeline.CauseRecurrence]) / float64(total)
			row.RegPct = 100 * float64(counts[pipeline.CauseRegisters]) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig1Report renders the experiment as text.
func Fig1Report() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: causes for increasing the II beyond the MII (baseline scheduler,\n")
	sb.WriteString("678 SPECfp95 loops; paper: bus 70-90%, recurrences 2-4%, registers the rest)\n\n")
	t := metrics.NewTable("config", "bus %", "recurrences %", "registers %", "II increases", "loops > MII")
	for _, r := range Fig1() {
		t.AddRow(r.Config, r.BusPct, r.RecPct, r.RegPct, r.Increases, r.LoopsAboveMII)
	}
	sb.WriteString(t.String())
	_ = workload.TotalLoops
	return sb.String()
}
