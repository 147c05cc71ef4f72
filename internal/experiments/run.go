// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5) on the synthetic SPECfp95 suite: the cause breakdown
// of Fig. 1, the configuration table (Table 1), the IPC comparisons of
// Fig. 7/8, the II reductions of Fig. 9, the added-instruction counts of
// Fig. 10, the schedule-length upper bound of Fig. 12, and the §4/§5.2
// statistics. Each experiment returns a typed result and renders a report
// table; cmd/paperbench and the root benchmarks drive them. Nothing here
// times the compiler: that is `go run ./bench`.
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

// Mode selects a pipeline variant for a suite run.
type Mode int

const (
	// Baseline is the state-of-the-art scheduler without replication.
	Baseline Mode = iota
	// Replication is the paper's technique (§3).
	Replication
	// ReplicationZeroLat is replication with the Fig. 12 zero-bus-latency
	// upper bound.
	ReplicationZeroLat
	// ReplicationLength adds the §5.1 schedule-length extension.
	ReplicationLength
	// ReplicationMacro swaps in the §5.2 macro-node heuristic.
	ReplicationMacro
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Replication:
		return "replication"
	case ReplicationZeroLat:
		return "replication+lat0"
	case ReplicationLength:
		return "replication+length"
	case ReplicationMacro:
		return "replication-macro"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// options maps a mode to pipeline options.
func (m Mode) options() pipeline.Options {
	switch m {
	case Baseline:
		return pipeline.Options{}
	case Replication:
		return pipeline.Options{Replicate: true}
	case ReplicationZeroLat:
		return pipeline.Options{Replicate: true, ZeroBusLatency: true}
	case ReplicationLength:
		return pipeline.Options{Replicate: true, LengthReplicate: true}
	case ReplicationMacro:
		return pipeline.Options{Replicate: true, UseMacroReplication: true}
	}
	return pipeline.Options{}
}

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

// SuiteResult is a full-suite compilation under one config and mode.
type SuiteResult struct {
	Config  machine.Config
	Mode    Mode
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
// engine, its per-loop LRU cache replaces the per-suite memo map this
// package used to keep: experiments that share a (config, mode) pair still
// compile each loop exactly once, and the engine's bounded worker pool
// replaces the hand-rolled goroutine fan-out.
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

// RunSuite compiles the whole 678-loop suite for one config and mode on
// the shared engine: in parallel, with per-loop memoization.
func RunSuite(m machine.Config, mode Mode) *SuiteResult {
	sr := runSuite(m, mode.options())
	sr.Mode = mode
	return sr
}

// runSuite is RunSuite under explicit pipeline options, which is how the
// strategy comparison names its variants.
func runSuite(m machine.Config, opts pipeline.Options) *SuiteResult {
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
