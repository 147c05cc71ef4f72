package experiments

import (
	"strings"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/metrics"
	"clusched/internal/workload"
)

// Fig10Row is one group of bars of the paper's Fig. 10: the percentage of
// additional instructions executed because of replication, split by
// functional-unit class. The paper reports under 5% for most
// configurations, dominated by integer operations (the broadcast address
// arithmetic near the DDG roots).
type Fig10Row struct {
	Config string
	// Pct[class] is 100 · (replicated dynamic instructions of that class,
	// net of removed originals) / (useful dynamic instructions).
	Pct [ddg.NumClasses]float64
	// TotalPct sums the classes.
	TotalPct float64
}

// Fig10 reproduces the added-instruction accounting for the paper's six
// configurations.
func Fig10() []Fig10Row {
	var rows []Fig10Row
	for _, m := range machine.PaperConfigs() {
		repl := RunSuite(m, Replication)
		var added [ddg.NumClasses]float64
		var useful float64
		// Deterministic bench order: float summation order must not depend
		// on map iteration, or the figures jitter in the last ulp from run
		// to run and testdata/figures.golden.json cannot hold.
		for _, bench := range workload.Benchmarks() {
			for _, lr := range repl.ByBench[bench] {
				dyn := lr.Loop.AvgIters * float64(lr.Loop.Visits)
				useful += float64(lr.Loop.Graph.NumNodes()) * dyn
				extra := lr.Result.Placement.ExtraInstances()
				for cl, n := range extra {
					added[cl] += float64(n) * dyn
				}
			}
		}
		row := Fig10Row{Config: m.Name}
		for cl := range added {
			row.Pct[cl] = 100 * added[cl] / useful
			row.TotalPct += row.Pct[cl]
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig10Report renders the experiment as text.
func Fig10Report() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: percentage of instructions added due to replication\n")
	sb.WriteString("(paper: below 5% for most configurations, integer ops dominate)\n\n")
	t := metrics.NewTable("config", "mem %", "int %", "fp %", "total %")
	for _, r := range Fig10() {
		t.AddRow(r.Config, r.Pct[ddg.ClassMem], r.Pct[ddg.ClassInt], r.Pct[ddg.ClassFP], r.TotalPct)
	}
	sb.WriteString(t.String())
	return sb.String()
}
