package experiments

import (
	"testing"

	"clusched/internal/corpus"
)

// TestEveryStrategyValidatesMiniCorpus is the property test behind the
// corpus shootout: every registered strategy, over a 500-loop mini-corpus,
// through the concurrent driver (semantic-cache clones on), must produce only schedules the cycle-accurate simulator confirms —
// trace equality with the reference and measured cycles/iteration equal to
// the claimed II. Runs under -race in CI, so the validation fan-out and
// the driver pool are exercised together.
func TestEveryStrategyValidatesMiniCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sp := corpus.DefaultSpec()
	sp.N = 500
	sp.Seed = 42
	sec, err := MeasureCorpus(CorpusConfig{
		Spec:       sp,
		CloneEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sec.Divergences {
		t.Errorf("divergence: %s", d)
	}
	for _, r := range sec.Rows {
		if r.Compiled+r.CompileFailed != r.Loops {
			t.Errorf("strategy %s: %d compiled + %d failed != %d presented", r.Strategy, r.Compiled, r.CompileFailed, r.Loops)
		}
		if r.Divergent > 0 {
			t.Errorf("strategy %s: %d/%d schedules diverged from the simulator", r.Strategy, r.Divergent, r.Compiled)
		}
		if r.Validated != r.Compiled {
			t.Errorf("strategy %s: %d validated of %d compiled", r.Strategy, r.Validated, r.Compiled)
		}
		if r.Compiled == 0 {
			t.Errorf("strategy %s: nothing compiled", r.Strategy)
		}
	}
	if sec.Rows[0].SemanticHits == 0 {
		t.Error("clone corpus produced no semantic-cache hits; the remap path went unvalidated")
	}
}
