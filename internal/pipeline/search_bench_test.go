package pipeline

import (
	"testing"

	"clusched/internal/machine"
	"clusched/internal/workload"
)

// BenchmarkSuiteSearch is the paper chain's II search as the batch engine
// runs it, on one warm arena: one op compiles the 678-loop suite on each
// of the six Table 1 machines. The two modes split the paper's settings:
// without replication a bus-bound loop climbs many intervals of failed
// bus prechecks; with it, the benchmark's setting, most loops settle
// within a few.
func BenchmarkSuiteSearch(b *testing.B) {
	loops, configs := workload.SPECfp95(), machine.PaperConfigs()
	for _, mode := range []struct {
		name string
		opts Options
	}{{"replicate=false", Options{}}, {"replicate=true", Options{Replicate: true}}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := SearchConfig{Arena: NewArena()}
			b.ReportAllocs()
			for b.Loop() {
				for _, m := range configs {
					for _, l := range loops {
						if _, err := Search(b.Context(), l.Graph, m, mode.opts, cfg); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
