package ddg_test

import (
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// TestTimingMatchesReference holds the loop's order and timing to the
// retired bodies (timing_reference_test.go) on the suite and a corpus
// sample, on every Table 1 machine, at every II from the MII to two past
// the larger of the II the paper's search and uas settle at: the intervals
// the partitioner's edge weights, uas's order and the skip-ahead read the
// timing at. The moves are counted and logged; they are where the retired
// timing was not a fixpoint.
func TestTimingMatchesReference(t *testing.T) {
	var loops []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		loops = append(loops, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := range 200 {
		loops = append(loops, spec.Loop(i))
	}
	stride := 1
	if testing.Short() || ddg.RaceDetector {
		stride = 7
	}
	checked, moved := 0, 0
	for _, m := range machine.PaperConfigs() {
		for i := 0; i < len(loops); i += stride {
			g := loops[i]
			top := 0
			for _, strategy := range []string{"paper", "uas"} {
				// A few suite loops fit no II under uas: those add nothing.
				if r, err := pipeline.Compile(g, m, pipeline.Options{Strategy: strategy, Replicate: strategy == "paper"}); err == nil {
					top = max(top, r.II)
				}
			}
			for ii := mii.MII(g, m); ii <= top+2; ii++ {
				mv, err := ddg.DiffTimingReference(g, ii)
				if err != nil {
					t.Fatalf("on %s: %v", m.Name, err)
				}
				checked++
				if mv {
					moved++
				}
			}
		}
	}
	t.Logf("%d timings, %d where the retired one was not a fixpoint", checked, moved)
}
