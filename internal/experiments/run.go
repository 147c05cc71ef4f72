// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5) on the synthetic SPECfp95 suite: the cause breakdown
// of Fig. 1, the configuration table (Table 1), the IPC comparisons of
// Fig. 7/8, the II reductions of Fig. 9, the added-instruction counts of
// Fig. 10, the schedule-length upper bound of Fig. 12, and the §4/§5.2
// statistics. Each experiment is one row of the evaluation table
// (sections.go): a function that computes its typed rows once and a
// renderer of those rows; cmd/paperbench reads the table and the root
// benchmarks call the experiments. Nothing here times the compiler: that
// is `go run ./bench`.
package experiments

import (
	"context"
	"fmt"
	"iter"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// LoopResult pairs one workload loop with its compilation result.
type LoopResult struct {
	Loop   *workload.Loop
	Result *pipeline.Result
}

// Cycles returns the loop's modeled total execution cycles over the whole
// program run.
func (lr *LoopResult) Cycles() float64 {
	return lr.Result.Schedule.CyclesFor(lr.Loop.AvgIters) * float64(lr.Loop.Visits)
}

// SuiteResult is a full-suite compilation under one config and one set of
// pipeline options.
type SuiteResult struct {
	Config  machine.Config
	ByBench map[string][]*LoopResult
	// Failed lists loops that did not schedule (should stay empty).
	Failed []string
}

// Engine is the compilation backend every suite run goes through: the
// driver-level shape of the public clusched.Backend contract, satisfied by
// the in-process *driver.Compiler and by the remote client alike. The
// experiments only need the streaming batch call plus the unary call.
type Engine interface {
	Compile(ctx context.Context, j driver.Job) (*pipeline.Result, error)
	Stream(ctx context.Context, jobs []driver.Job) iter.Seq2[int, driver.Outcome]
}

// engine is the shared backend behind every suite run. For a local
// engine, its per-loop LRU cache means experiments that share a (config,
// options) pair compile each loop exactly once, and its bounded worker pool
// runs the suite in parallel.
var engine Engine = driver.New(driver.Config{})

// UseBackend points every suite run at b: a local engine built with the
// caller's workers, progress callback or trace — whose cache accounting
// the caller reads from the engine it kept — or the remote client,
// turning paperbench into a service workload generator. It is not meant
// to race with in-flight suite runs.
func UseBackend(b Engine) { engine = b }

// compileAll is the deterministic ordered collect over the engine's
// stream: outcomes[i] belongs to jobs[i] however the work was scheduled.
func compileAll(jobs []driver.Job) []driver.Outcome {
	outcomes := make([]driver.Outcome, len(jobs))
	for i, out := range engine.Stream(context.Background(), jobs) {
		outcomes[i] = out
	}
	return outcomes
}

// RunSuite compiles the whole 678-loop suite for one config under opts on
// the shared engine: in parallel, with per-loop memoization. The options
// name the variant: the baseline scheduler (zero Options), the paper's
// replication (§3), its Fig. 12 zero-bus-latency bound, the §5.1 length
// and §5.2 macro-node extensions, or a §6 rival strategy.
func RunSuite(m machine.Config, opts pipeline.Options) *SuiteResult {
	loops := workload.SPECfp95()
	jobs := make([]driver.Job, len(loops))
	for i, l := range loops {
		jobs[i] = driver.Job{Graph: l.Graph, Machine: m, Opts: opts}
	}
	// Per-job failures land in SuiteResult.Failed; the aggregate error
	// repeats what the outcomes already carry.
	outcomes := compileAll(jobs)

	sr := &SuiteResult{Config: m, ByBench: map[string][]*LoopResult{}}
	for i, l := range loops {
		if outcomes[i].Err != nil {
			sr.Failed = append(sr.Failed, fmt.Sprintf("%s: %v", l.Graph.Name, outcomes[i].Err))
			continue
		}
		sr.ByBench[l.Bench] = append(sr.ByBench[l.Bench], &LoopResult{Loop: l, Result: outcomes[i].Result})
	}
	return sr
}

// BenchIPC computes the IPC of one benchmark: useful dynamic instructions
// over modeled cycles, aggregated over its loops.
func BenchIPC(lrs []*LoopResult) float64 {
	var acc ipcAccumulator
	for _, lr := range lrs {
		acc.Add(lr.Loop.DynamicInstrs(), lr.Cycles())
	}
	return acc.IPC()
}

// IPCByBench returns per-benchmark IPC in presentation order plus the
// harmonic mean.
func IPCByBench(sr *SuiteResult) (map[string]float64, float64) {
	out := map[string]float64{}
	var vals []float64
	for _, b := range workload.Benchmarks() {
		ipc := BenchIPC(sr.ByBench[b])
		out[b] = ipc
		vals = append(vals, ipc)
	}
	return out, harmonicMean(vals)
}
