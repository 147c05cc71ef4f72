package experiments

import (
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// Fig9Row is one bar of the paper's Fig. 9: the relative II reduction that
// replication achieves on applu (the paper reports 10-20% depending on the
// configuration, which nevertheless barely moves IPC because applu's loops
// run only ~4 iterations per visit).
type Fig9Row struct {
	Config string
	// IIReductionPct is the average over applu's loops of 1 − II_repl/II_base.
	IIReductionPct float64
	// IPCGainPct is the corresponding IPC improvement.
	IPCGainPct float64
}

// Fig9 reproduces the applu II study on the paper's three configurations.
func Fig9() []Fig9Row {
	var rows []Fig9Row
	for _, m := range machine.Fig1Configs() {
		base := RunSuite(m, pipeline.Options{})
		repl := RunSuite(m, pipeline.Options{Replicate: true})
		bLoops := base.ByBench["applu"]
		rLoops := repl.ByBench["applu"]
		var reds []float64
		for i := range bLoops {
			b := float64(bLoops[i].Result.II)
			r := float64(rLoops[i].Result.II)
			reds = append(reds, 100*(1-r/b))
		}
		bIPC := BenchIPC(bLoops)
		rIPC := BenchIPC(rLoops)
		rows = append(rows, Fig9Row{
			Config:         m.Name,
			IIReductionPct: arithmeticMean(reds),
			IPCGainPct:     100 * (rIPC/bIPC - 1),
		})
	}
	return rows
}
