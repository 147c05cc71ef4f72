package experiments

import (
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// Fig7Config holds the IPC comparison of one machine configuration: the six
// panels of the paper's Fig. 7.
type Fig7Config struct {
	Config string
	// Baseline and Replication map benchmark -> IPC.
	Baseline, Replication map[string]float64
	// HBase and HRepl are the harmonic means across benchmarks.
	HBase, HRepl float64
}

// Speedup returns the per-benchmark replication speedup as a percentage.
func (f *Fig7Config) Speedup(bench string) float64 {
	b := f.Baseline[bench]
	if b == 0 {
		return 0
	}
	return 100 * (f.Replication[bench]/b - 1)
}

// AvgSpeedup returns the arithmetic mean of the per-benchmark speedups
// (this is the "25% average for 4c2b4l64r" aggregate the paper quotes).
func (f *Fig7Config) AvgSpeedup() float64 {
	var sp []float64
	for _, b := range workload.Benchmarks() {
		sp = append(sp, f.Speedup(b))
	}
	return arithmeticMean(sp)
}

// Fig7 reproduces the IPC panels for the paper's six configurations.
func Fig7() []Fig7Config {
	var out []Fig7Config
	for _, m := range machine.PaperConfigs() {
		base := RunSuite(m, pipeline.Options{})
		repl := RunSuite(m, pipeline.Options{Replicate: true})
		bi, bh := IPCByBench(base)
		ri, rh := IPCByBench(repl)
		out = append(out, Fig7Config{
			Config: m.Name, Baseline: bi, Replication: ri, HBase: bh, HRepl: rh,
		})
	}
	return out
}
