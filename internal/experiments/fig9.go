package experiments

import (
	"strings"

	"clusched/internal/machine"
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
		base := RunSuite(m, Baseline)
		repl := RunSuite(m, Replication)
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

// Fig9Report renders the experiment as text.
func Fig9Report() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: reduction of the II for applu (paper: replication cuts the II by\n")
	sb.WriteString("10-20%, but the IPC gain stays small because applu's trip counts are ~4)\n\n")
	t := NewTable("config", "II reduction %", "IPC gain %")
	for _, r := range Fig9() {
		t.AddRow(r.Config, r.IIReductionPct, r.IPCGainPct)
	}
	sb.WriteString(t.String())
	return sb.String()
}
