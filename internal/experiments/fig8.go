package experiments

import (
	"strings"

	"clusched/internal/machine"
)

// Fig8Row is one bar of the paper's Fig. 8: mgrid IPC on the unified
// machine and on three clustered configurations with a 2-cycle bus. The
// paper's point: even without replication the partitioner keeps mgrid's
// clustered IPC close to the unified upper bound, so replication has
// nothing left to win.
type Fig8Row struct {
	Config      string
	Baseline    float64
	Replication float64
}

// Fig8 reproduces the mgrid study.
func Fig8() []Fig8Row {
	configs := []machine.Config{
		machine.Unified(64),
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("4c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
	}
	var rows []Fig8Row
	for _, m := range configs {
		base := RunSuite(m, Baseline)
		repl := RunSuite(m, Replication)
		rows = append(rows, Fig8Row{
			Config:      m.Name,
			Baseline:    BenchIPC(base.ByBench["mgrid"]),
			Replication: BenchIPC(repl.ByBench["mgrid"]),
		})
	}
	return rows
}

// Fig8Report renders the experiment as text.
func Fig8Report() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: IPC for mgrid (paper: clustered IPC is close to the unified\n")
	sb.WriteString("upper bound even without replication, so the replication benefit is minimal)\n\n")
	t := NewTable("config", "baseline IPC", "replication IPC")
	for _, r := range Fig8() {
		t.AddRow(r.Config, r.Baseline, r.Replication)
	}
	sb.WriteString(t.String())
	return sb.String()
}
