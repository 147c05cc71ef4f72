package experiments

import (
	"clusched/internal/machine"
	"clusched/internal/pipeline"
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
		base := RunSuite(m, pipeline.Options{})
		repl := RunSuite(m, pipeline.Options{Replicate: true})
		rows = append(rows, Fig8Row{
			Config:      m.Name,
			Baseline:    BenchIPC(base.ByBench["mgrid"]),
			Replication: BenchIPC(repl.ByBench["mgrid"]),
		})
	}
	return rows
}
