package corpus_test

import (
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/corpus/validate"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// FuzzCorpusValidate is the differential fuzzer distilled from the corpus
// shootout: one (seed, index, knob) coordinate generates one loop, the
// paper strategy compiles it, and the simulator must confirm the claimed
// II. Any divergence found at scale gets its coordinates added as f.Add
// seeds here, turning the failure into a permanent regression test.
func FuzzCorpusValidate(f *testing.F) {
	// Seed corpus: one entry per structural family plus the shootout's
	// default coordinates. No divergence has been found to date; these
	// entries pin the families' coverage.
	f.Add(int64(1), 0, uint8(0))
	f.Add(int64(1), 1, uint8(2))
	f.Add(int64(42), 7, uint8(5))
	f.Add(int64(7), 3, uint8(9))
	f.Add(int64(9), 11, uint8(14))

	m := machine.MustParse("4c2b2l64r")
	f.Fuzz(func(t *testing.T, seed int64, index int, knob uint8) {
		if index < 0 || index > 1<<20 {
			t.Skip()
		}
		sp := corpus.DefaultSpec()
		sp.Seed = seed
		// The low knob bits steer the distributions so the fuzzer can
		// reach corners the default spec rarely samples.
		sp.Pressure = float64(knob&0x3) / 3
		sp.MemEdges = float64((knob>>2)&0x3) / 3
		if knob&0x10 != 0 {
			sp.Size = corpus.IntRange{Lo: 4, Hi: 12}
		}
		g := sp.Loop(index)
		if err := g.Validate(); err != nil {
			t.Fatalf("generated loop invalid: %v", err)
		}
		opts := pipeline.Options{Replicate: true, VerifySchedules: true}
		res, err := pipeline.Compile(g, m, opts)
		if err != nil {
			// An honest compile failure is not a soundness bug.
			t.Skip()
		}
		if d := validate.Schedule(res, "paper", opts, index, sp.LoopSeed(index), 0); d != nil {
			t.Fatalf("divergence: %s", d)
		}
	})
}
