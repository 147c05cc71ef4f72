// Package clusched is a modulo-scheduling compiler backend for clustered
// VLIW microarchitectures with selective instruction replication, a
// from-scratch reproduction of Aletà, Codina, González and Kaeli,
// "Instruction Replication for Clustered Microarchitectures" (MICRO-36,
// 2003).
//
// The pipeline partitions a loop's data dependence graph across clusters
// (multilevel partitioning with slack-weighted edges), removes excess
// inter-cluster communications by replicating cheap instruction subgraphs
// into the consuming clusters, and produces a verified modulo schedule.
//
// The canonical API is the Backend interface: Compile for one job, Stream
// for a batch consumed incrementally as results finish, Collect for
// deterministic index-ordered batch output. NewLocal builds the in-process
// backend (a bounded worker pool with a shared result cache); NewRemote
// builds the client for a clusched-serve instance, where Stream rides the
// service's NDJSON push endpoint, delivering each verified result the
// moment the server finishes it. Where the compilation runs is
// configuration, not a code path.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
//
// Quick start:
//
//	b := clusched.NewLoop("saxpy")
//	x := b.Node("x", clusched.OpLoad)
//	y := b.Node("y", clusched.OpLoad)
//	m := b.Node("m", clusched.OpFMul)
//	a := b.Node("a", clusched.OpFAdd)
//	s := b.Node("s", clusched.OpStore)
//	b.Edge(x, m, 0)
//	b.Edge(y, a, 0)
//	b.Edge(m, a, 0)
//	b.Edge(a, s, 0)
//	g, _ := b.Build()
//
//	mach := clusched.MustParseMachine("4c2b2l64r")
//	opts := clusched.NewOptions(clusched.WithReplication(true))
//	res, _ := clusched.NewLocal().Compile(context.Background(),
//		clusched.CompileJob{Graph: g, Machine: mach, Opts: opts})
//	fmt.Println(res.II, res.Schedule.FormatKernel())
package clusched

import (
	"io"

	"clusched/internal/codegen"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/telemetry"
	"clusched/internal/workload"
)

// Graph is a loop-body data dependence graph; build one with NewLoop or
// decode the text format with ParseLoops.
type Graph = ddg.Graph

// Builder constructs loop DDGs incrementally.
type Builder = ddg.Builder

// OpKind identifies an operation; the set mirrors the paper's latency table.
type OpKind = ddg.OpKind

// Operation kinds (latency in parentheses, from the paper's Table 1).
const (
	OpIAdd  = ddg.OpIAdd  // integer arithmetic (1)
	OpIMul  = ddg.OpIMul  // integer multiply/abs (2)
	OpIDiv  = ddg.OpIDiv  // integer divide/sqrt (6)
	OpFAdd  = ddg.OpFAdd  // FP arithmetic (3)
	OpFMul  = ddg.OpFMul  // FP multiply/abs (6)
	OpFDiv  = ddg.OpFDiv  // FP divide/sqrt (18)
	OpLoad  = ddg.OpLoad  // load from the shared memory (2)
	OpStore = ddg.OpStore // store to the shared memory (2)
)

// NewLoop returns a Builder for a loop body with the given name.
func NewLoop(name string) *Builder { return ddg.NewBuilder(name) }

// ParseLoops decodes loops from the line-oriented text format (see
// internal/ddg and the loopgen command for the grammar).
func ParseLoops(r io.Reader) ([]*Graph, error) { return ddg.ParseText(r) }

// Machine describes a clustered VLIW configuration (wcxbylzr in the
// paper's notation).
type Machine = machine.Config

// ParseMachine decodes a configuration string such as "4c2b2l64r" or
// "unified".
func ParseMachine(s string) (Machine, error) { return machine.Parse(s) }

// MustParseMachine is ParseMachine but panics on error.
func MustParseMachine(s string) Machine { return machine.MustParse(s) }

// UnifiedMachine returns the monolithic 12-issue machine with the given
// total register count.
func UnifiedMachine(regs int) Machine { return machine.Unified(regs) }

// HeteroMachine builds a clustered machine with per-cluster functional-unit
// counts, indexed [cluster][class] with classes ordered int, fp, mem — the
// heterogeneous extension the paper's §2.1 mentions. It takes 2 to 32
// clusters.
func HeteroMachine(buses, busLat, regsPerCluster int, fu [][3]int) (Machine, error) {
	return machine.NewHetero(buses, busLat, regsPerCluster, fu)
}

// PaperMachines returns the six clustered configurations of the paper's
// evaluation.
func PaperMachines() []Machine { return machine.PaperConfigs() }

// Options selects the pipeline variant; the zero value is the baseline
// scheduler without replication.
type Options = pipeline.Options

// Result is a compiled loop: achieved II, schedule, replication statistics
// and cause attribution for II increases.
type Result = pipeline.Result

// Cause classifies II increases (bus, recurrences, registers).
type Cause = pipeline.Cause

// Cause values for Result.IIIncreases.
const (
	CauseBus        = pipeline.CauseBus
	CauseRecurrence = pipeline.CauseRecurrence
	CauseRegisters  = pipeline.CauseRegisters
	NumCauses       = pipeline.NumCauses
)

// Schedule is a verified modulo schedule.
type Schedule = sched.Schedule

// Compile runs one loop through the scheduling strategy opts.Strategy
// selects; the zero value selects the paper's algorithm without
// replication.
func Compile(g *Graph, m Machine, opts Options) (*Result, error) {
	return pipeline.Compile(g, m, opts)
}

// Strategies lists the registered scheduling strategies, sorted by name.
func Strategies() []string { return pipeline.StrategyNames() }

// StrategyDescription returns a strategy's one-line description ("" for
// unknown names).
func StrategyDescription(name string) string { return pipeline.StrategyDescription(name) }

// Compiler is the in-process Backend: a concurrent batch-compilation
// engine with a bounded worker pool, a streaming batch API with
// deterministic collection, an LRU result cache keyed on (graph
// fingerprint, machine, options) with hit/miss accounting, aggregate error
// reporting, and optional progress callbacks. One Compiler is safe for
// concurrent use and meant to be shared; build one with NewLocal.
type Compiler = driver.Compiler

// CompileJob is one batch compilation request: a loop DDG, a machine and
// pipeline options.
type CompileJob = driver.Job

// CompileOutcome is the outcome of one CompileJob: exactly one of Result
// and Err is set, plus whether it was served from the cache.
type CompileOutcome = driver.Outcome

// BatchError aggregates every failed job of a batch compilation.
type BatchError = driver.BatchError

// CacheStats reports the engine's result-cache effectiveness.
type CacheStats = driver.CacheStats

// Trace records a compilation's execution timeline — queue waits, cache
// lookups, passes, II attempts — as spans on named tracks. Attach one to a
// local backend with WithTrace (or to a single CompileJob via its Trace
// field) and export it with WriteJSON as Chrome trace-event JSON, viewable
// in chrome://tracing or Perfetto. A nil *Trace disables recording with
// zero overhead; Trace does not participate in cache identity.
type Trace = telemetry.Trace

// NewTrace starts an empty trace; its epoch (time zero) is the call.
func NewTrace() *Trace { return telemetry.NewTrace() }

// Pipeline is an expanded software pipeline: prolog, MVE-unrolled kernel
// and epilog with physical register assignments.
type Pipeline = codegen.Program

// ExpandPipeline expands a compiled schedule into software-pipelined VLIW
// code (prolog / kernel / epilog with modulo variable expansion).
func ExpandPipeline(s *Schedule) (*Pipeline, error) { return codegen.Expand(s) }

// Loop is one workload loop with profile weights.
type Loop = workload.Loop

// SPECfp95 returns the synthetic 678-loop evaluation workload.
func SPECfp95() []*Loop { return workload.SPECfp95() }

// Benchmarks returns the workload program names in presentation order.
func Benchmarks() []string { return workload.Benchmarks() }

// BenchmarkLoops returns the loops of one workload program.
func BenchmarkLoops(bench string) []*Loop { return workload.LoopsFor(bench) }
