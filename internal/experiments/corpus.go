package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"clusched/internal/corpus"
	"clusched/internal/corpus/validate"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// The corpus shootout: every registered strategy compiled over a
// distribution-generated loop corpus through the driver at full batch
// concurrency, with every accepted schedule executed on the cycle-accurate
// simulator and checked against the reference evaluation of its source
// loop. Unlike the figure experiments, which report the scheduler's own
// arithmetic, this section reports *realized* behavior: a schedule counts
// as validated only when its store trace matches the reference and its
// measured steady-state cycles/iteration equals the claimed II.

// CorpusConfig parameterizes one shootout run.
type CorpusConfig struct {
	// Spec is the corpus distribution (zero value = corpus.DefaultSpec).
	Spec corpus.Spec
	// Machine is the target (zero value = 4c2b2l64r, the headline config).
	Machine machine.Config
	// Strategies lists the strategies to race (nil = the full registry).
	Strategies []string
	// Iters is the simulated iteration count per validation (0 =
	// validate.DefaultIters).
	Iters int
	// Workers configures the per-strategy engine as in driver.Config; the
	// default exercises the full pool.
	Workers int
	// CloneEvery, when > 0, follows every k-th loop with a renamed,
	// reordered isomorphic clone in a later batch, so the semantic cache's
	// remap path is exercised — and validated — under load.
	CloneEvery int
	// Progress, when non-nil, is called after each validated job with
	// cumulative counts across the whole run.
	Progress func(done, total int)
}

// CorpusRow is one strategy's line of the claimed-vs-simulated table.
type CorpusRow struct {
	Strategy string `json:"strategy"`
	// Loops is the number of jobs presented (corpus + clones); Compiled
	// the schedules accepted; CompileFailed the loops the strategy could
	// not schedule (reported honestly, not silently skipped).
	Loops         int `json:"loops"`
	Compiled      int `json:"compiled"`
	CompileFailed int `json:"compile_failed,omitempty"`
	// Validated counts schedules the simulator confirmed end to end;
	// Divergent the schedules it refuted. Soundness demands
	// Validated == Compiled and Divergent == 0.
	Validated int `json:"validated"`
	Divergent int `json:"divergent"`
	// ValidatedFrac is Validated over Compiled.
	ValidatedFrac float64 `json:"validated_frac"`
	// SemanticHits counts jobs served by the canonical cache tier (clone
	// runs only); those schedules were remapped, not scheduled, and still
	// had to pass simulation.
	SemanticHits uint64 `json:"semantic_hits,omitempty"`
}

// maxRecordedDivergences bounds the per-section divergence dump; the
// counts in the rows are always complete.
const maxRecordedDivergences = 50

// CorpusSection is the corpus shootout's result: the run
// parameters, the per-strategy table, and every divergence (each one
// replayable from Spec + Index + Strategy + Opts).
type CorpusSection struct {
	Spec        corpus.Spec            `json:"spec"`
	Machine     string                 `json:"machine"`
	Iters       int                    `json:"iters"`
	Workers     int                    `json:"workers"`
	CloneEvery  int                    `json:"clone_every,omitempty"`
	Rows        []CorpusRow            `json:"rows"`
	Divergences []*validate.Divergence `json:"divergences,omitempty"`
}

// corpusChunk bounds how many jobs are materialized at once, so a 100k
// corpus streams through bounded memory.
const corpusChunk = 2048

// MeasureCorpus runs the shootout. Each strategy gets a fresh engine
// (bounded worker pool, both cache tiers live) and streams the corpus
// through it in bounded chunks; validation fans out over GOMAXPROCS
// consumers so the simulator never backpressures the compile pool.
func MeasureCorpus(cfg CorpusConfig) (*CorpusSection, error) {
	spec := cfg.Spec
	if spec.N <= 0 {
		spec = corpus.DefaultSpec()
	}
	m := cfg.Machine
	if m.Clusters == 0 {
		m = machine.MustParse("4c2b2l64r")
	}
	names := cfg.Strategies
	if len(names) == 0 {
		names = pipeline.StrategyNames()
	}
	for _, name := range names {
		if _, err := pipeline.LookupStrategy(name); err != nil {
			return nil, err
		}
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = validate.DefaultIters
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	sec := &CorpusSection{
		Spec:       spec,
		Machine:    m.Name,
		Iters:      iters,
		Workers:    workers,
		CloneEvery: cfg.CloneEvery,
	}
	perStrategy := spec.N
	if cfg.CloneEvery > 0 {
		perStrategy += (spec.N + cfg.CloneEvery - 1) / cfg.CloneEvery
	}
	total := perStrategy * len(names)
	done := 0
	var mu sync.Mutex // guards the running counts and divergence list

	for _, name := range names {
		opts := StrategyOptions(name)
		// Resource legality is sched.Verify's half of soundness; the
		// simulator covers dependences and semantics. Together a validated
		// schedule is sound end to end.
		opts.VerifySchedules = true
		row := CorpusRow{Strategy: name, Loops: perStrategy}
		eng := driver.New(driver.Config{Workers: cfg.Workers})

		type task struct {
			outcome driver.Outcome
			index   int // corpus index (clones replay from the same index)
		}
		tasks := make(chan task, 4*workers)
		var wg sync.WaitGroup
		for v := 0; v < workers; v++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for tk := range tasks {
					var d *validate.Divergence
					if tk.outcome.Err != nil {
						// An honest compile failure (e.g. register
						// pressure), reported in the row, not a divergence.
						mu.Lock()
						row.CompileFailed++
					} else {
						// Clones share their original's corpus index; their
						// graphs (and remapped schedules) are validated as
						// presented.
						d = validate.Schedule(tk.outcome.Result, name, opts, tk.index, spec.LoopSeed(tk.index), iters)
						mu.Lock()
						row.Compiled++
						if d != nil {
							row.Divergent++
							if len(sec.Divergences) < maxRecordedDivergences {
								sec.Divergences = append(sec.Divergences, d)
							}
						} else {
							row.Validated++
						}
					}
					done++
					n := done
					mu.Unlock()
					if cfg.Progress != nil {
						cfg.Progress(n, total)
					}
				}
			}()
		}

		ctx := context.Background()
		// pendingClones carries each chunk's clones into the next chunk's
		// batch, so originals are cached (and their schedules semantically
		// indexed) before their clones arrive.
		var pendingClones []driver.Job
		var pendingIdx []int
		flush := func(jobs []driver.Job, idx []int) {
			if len(jobs) == 0 {
				return
			}
			for i, out := range eng.Stream(ctx, jobs) {
				tasks <- task{outcome: out, index: idx[i]}
			}
		}
		for lo := 0; lo < spec.N; lo += corpusChunk {
			hi := lo + corpusChunk
			if hi > spec.N {
				hi = spec.N
			}
			jobs := append([]driver.Job(nil), pendingClones...)
			idx := append([]int(nil), pendingIdx...)
			pendingClones, pendingIdx = nil, nil
			for i := lo; i < hi; i++ {
				g := spec.Loop(i)
				jobs = append(jobs, driver.Job{Graph: g, Machine: m, Opts: opts})
				idx = append(idx, i)
				if cfg.CloneEvery > 0 && i%cfg.CloneEvery == 0 {
					clone := ddg.PermuteRandom(g, g.Name+"#p", spec.LoopSeed(i)^0x5bd1e995)
					pendingClones = append(pendingClones, driver.Job{Graph: clone, Machine: m, Opts: opts})
					pendingIdx = append(pendingIdx, i)
				}
			}
			flush(jobs, idx)
		}
		flush(pendingClones, pendingIdx)
		close(tasks)
		wg.Wait()

		if row.Compiled > 0 {
			row.ValidatedFrac = float64(row.Validated) / float64(row.Compiled)
		}
		row.SemanticHits = eng.CacheStats().SemanticHits
		sec.Rows = append(sec.Rows, row)
	}
	return sec, nil
}

// CorpusReport renders the shootout as a table plus any divergences.
func CorpusReport(sec *CorpusSection) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Corpus validation on %s: %d loops (seed %d, sizes %d-%d), %d sim iterations\n",
		sec.Machine, sec.Spec.N, sec.Spec.Seed, sec.Spec.Size.Lo, sec.Spec.Size.Hi, sec.Iters)
	t := NewTable("strategy", "loops", "compiled", "failed", "validated", "divergent", "sem hits")
	for _, r := range sec.Rows {
		t.AddRow(r.Strategy, r.Loops, r.Compiled, r.CompileFailed, r.Validated, r.Divergent, r.SemanticHits)
	}
	sb.WriteString(t.String())
	if len(sec.Divergences) > 0 {
		fmt.Fprintf(&sb, "divergences (%d shown):\n", len(sec.Divergences))
		for _, d := range sec.Divergences {
			fmt.Fprintf(&sb, "  %s\n", d)
		}
	}
	return sb.String()
}
