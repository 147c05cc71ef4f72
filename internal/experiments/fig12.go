package experiments

import (
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// Fig12Row is one pair of bars of the paper's Fig. 12: the harmonic-mean
// IPC of the replication pipeline against the zero-bus-latency upper bound
// for replicating to reduce the schedule length (§5.1). The paper found the
// potential nearly negligible (~1% on 4-cluster configurations); the §5.1
// length extension itself is included as a third column.
type Fig12Row struct {
	Config string
	// Replication is the HMEAN IPC of the standard pipeline; ZeroLat the
	// upper bound with zero-latency buses; Length the §5.1 extension.
	Replication, ZeroLat, Length float64
}

// PotentialPct returns how much headroom the upper bound exposes.
func (r Fig12Row) PotentialPct() float64 {
	if r.Replication == 0 {
		return 0
	}
	return 100 * (r.ZeroLat/r.Replication - 1)
}

// Fig12 reproduces the schedule-length potential study on the paper's six
// configurations.
func Fig12() []Fig12Row {
	var rows []Fig12Row
	for _, m := range machine.PaperConfigs() {
		_, h := IPCByBench(RunSuite(m, pipeline.Options{Replicate: true}))
		_, hz := IPCByBench(RunSuite(m, pipeline.Options{Replicate: true, ZeroBusLatency: true}))
		_, hl := IPCByBench(RunSuite(m, pipeline.Options{Replicate: true, LengthReplicate: true}))
		rows = append(rows, Fig12Row{Config: m.Name, Replication: h, ZeroLat: hz, Length: hl})
	}
	return rows
}
