// Package validate is the corpus subsystem's cycle-accurate validation
// harness: it executes compiled schedules on the vliwsim simulator and
// turns every unconfirmed claim into a replayable Divergence record. It
// lives below internal/experiments but above the compiler, so the corpus
// generator itself (internal/corpus) stays a leaf package the workload
// suite can depend on.
package validate

import (
	"fmt"

	"clusched/internal/pipeline"
	"clusched/internal/vliwsim"
)

// DefaultIters is the iteration count validation simulates: long enough
// that the software pipeline fills, drains, and runs several steady-state
// iterations (stage counts in this repo are single digits).
const DefaultIters = 16

// Divergence records one schedule the simulator refused to confirm. It
// carries everything needed to replay the failure as a standalone test:
// the corpus coordinates (master seed + index, from which the loop seed
// and graph re-derive), the strategy and options, the claim, and what the
// simulator saw instead.
type Divergence struct {
	// Loop names the graph; Index and LoopSeed locate it in the corpus
	// (Spec.Loop(Index) regenerates it; LoopSeed is recorded for
	// cross-checking the regeneration).
	Loop     string `json:"loop"`
	Index    int    `json:"index"`
	LoopSeed int64  `json:"loop_seed"`
	// Strategy and Machine identify the compilation; Opts the full option
	// set it ran under.
	Strategy string           `json:"strategy"`
	Machine  string           `json:"machine"`
	Opts     pipeline.Options `json:"opts"`
	// ClaimedII is the scheduler's initiation interval; SimCPI the
	// steady-state cycles/iteration the simulator measured (0 when
	// execution failed before steady state).
	ClaimedII int     `json:"claimed_ii"`
	SimCPI    float64 `json:"sim_cpi"`
	// TraceDiff is the first store-trace difference against the reference
	// execution; Err the execution error (dependence violation, malformed
	// schedule). At least one is non-empty.
	TraceDiff string `json:"trace_diff,omitempty"`
	Err       string `json:"err,omitempty"`
}

// String formats the divergence for logs and test failures.
func (d *Divergence) String() string {
	s := fmt.Sprintf("loop %s (index %d, seed %d) strategy %s on %s: claimed II %d",
		d.Loop, d.Index, d.LoopSeed, d.Strategy, d.Machine, d.ClaimedII)
	if d.Err != "" {
		return s + ": " + d.Err
	}
	if d.TraceDiff != "" {
		return fmt.Sprintf("%s: trace mismatch: %s", s, d.TraceDiff)
	}
	return fmt.Sprintf("%s, simulated %.2f cycles/iteration", s, d.SimCPI)
}

// Validate runs the compiled schedule on the cycle-accurate simulator and
// checks it end to end: store-trace equality with the reference execution
// of the source loop, the completion-time model, and measured steady-state
// cycles/iteration equal to the claimed II. It returns nil when the
// schedule is confirmed, or a Divergence describing the lie. Index is the
// corpus position used for replay (pass a negative index for loops that
// did not come from a corpus); iters the simulated iteration count (≤ 0 =
// DefaultIters).
func Schedule(res *pipeline.Result, strategy string, opts pipeline.Options, index int, loopSeed int64, iters int) *Divergence {
	if iters <= 0 {
		iters = DefaultIters
	}
	rep, err := vliwsim.Measure(res.Schedule, iters)
	var errText string
	switch {
	case err != nil:
		rep = &vliwsim.Report{} // failed before steady state
		errText = err.Error()
	case rep.TraceDiff != "":
	case rep.LastDone != rep.ModelLastDone:
		errText = fmt.Sprintf("completion cycle %d, model predicts %d", rep.LastDone, rep.ModelLastDone)
	case rep.CyclesPerIter != float64(res.II):
	default:
		// Confirmed: the common case by orders of magnitude, and the only
		// one that builds no record.
		return nil
	}
	return &Divergence{
		Loop:      res.Loop.Name,
		Index:     index,
		LoopSeed:  loopSeed,
		Strategy:  strategy,
		Machine:   res.Machine.Name,
		Opts:      opts,
		ClaimedII: res.II,
		SimCPI:    rep.CyclesPerIter,
		TraceDiff: rep.TraceDiff,
		Err:       errText,
	}
}
