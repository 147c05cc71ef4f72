package experiments

import (
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// RegSweepRow reports the replication speedup for one register budget. The
// paper (§4) states that configurations with 32 and 128 registers behave
// like the 64-register ones; this experiment reproduces that claim on the
// 2- and 4-cluster 1-bus machines.
type RegSweepRow struct {
	Config string
	// HBase/HRepl are harmonic-mean IPCs; SpeedupPct the HMEAN gain.
	HBase, HRepl, SpeedupPct float64
}

// RegSweep runs the register-budget sensitivity study.
func RegSweep() []RegSweepRow {
	var rows []RegSweepRow
	for _, cfg := range []string{
		"2c1b2l32r", "2c1b2l64r", "2c1b2l128r",
		"4c1b2l32r", "4c1b2l64r", "4c1b2l128r",
	} {
		m := machine.MustParse(cfg)
		_, hb := IPCByBench(RunSuite(m, pipeline.Options{}))
		_, hr := IPCByBench(RunSuite(m, pipeline.Options{Replicate: true}))
		sp := 0.0
		if hb > 0 {
			sp = 100 * (hr/hb - 1)
		}
		rows = append(rows, RegSweepRow{Config: cfg, HBase: hb, HRepl: hr, SpeedupPct: sp})
	}
	return rows
}
