package experiments

import (
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
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
		repl := RunSuite(m, pipeline.Options{Replicate: true})
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
