package validate

import "testing"

// TestDivergenceString pins the replay record corpusbench prints, one case
// per kind of divergence: an execution error, a store-trace mismatch, and a
// schedule that ran but missed its claimed interval.
func TestDivergenceString(t *testing.T) {
	base := Divergence{Loop: "corpus_17_tree", Index: 17, LoopSeed: 99, Strategy: "paper", Machine: "4c1b2l64r", ClaimedII: 6}
	const head = "loop corpus_17_tree (index 17, seed 99) strategy paper on 4c1b2l64r: claimed II 6"
	failed, traced, slow := base, base, base
	failed.Err = "dependence violated"
	traced.TraceDiff = "store 3 differs"
	slow.SimCPI = 7.25
	for _, c := range []struct {
		d    Divergence
		want string
	}{
		{failed, head + ": dependence violated"},
		{traced, head + ": trace mismatch: store 3 differs"},
		{slow, head + ", simulated 7.25 cycles/iteration"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}
