package experiments

import (
	"fmt"
	"strings"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/metrics"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// The head-to-head strategy comparison: the same suite compiled under
// every requested scheduling strategy, per-benchmark, with speedups
// against the first strategy in the list. This is the experiment the
// strategy registry exists for — the paper's §6 comparison (UAS-style
// assign-while-scheduling, naive pre-partitioning, the unified upper
// bound) run as data instead of citation.

// StrategyAllBenches labels the aggregate row of a strategy comparison.
const StrategyAllBenches = "(all)"

// StrategyBenchRow is one cell of the strategy comparison: one benchmark
// suite compiled under one strategy. The Bench value StrategyAllBenches
// aggregates the whole workload (harmonic-mean IPC, summed cycles).
type StrategyBenchRow struct {
	Bench    string  `json:"bench"`
	Strategy string  `json:"strategy"`
	IPC      float64 `json:"ipc"`
	// Cycles is the modeled total execution time of the benchmark's loops
	// over the profiled run.
	Cycles float64 `json:"cycles"`
	// Speedup is reference cycles over this strategy's cycles for the same
	// bench, the reference being the first strategy requested (>1 = faster
	// than the reference).
	Speedup float64 `json:"speedup"`
	// Failed counts loops that did not schedule (expected 0).
	Failed int `json:"failed,omitempty"`
}

// StrategyOptions returns the natural pipeline options for one strategy in
// a comparison: the paper chain runs with its replication pass (its
// headline configuration); every rival runs its own bare chain.
func StrategyOptions(name string) pipeline.Options {
	o := pipeline.Options{Strategy: name}
	if name == pipeline.DefaultStrategy {
		o.Replicate = true
	}
	return o
}

// strategySuite compiles the whole suite under one strategy on the shared
// engine and returns per-bench results plus the failed-loop count per
// bench.
func strategySuite(m machine.Config, opts pipeline.Options) (byBench map[string][]*LoopResult, failed map[string]int) {
	loops := workload.SPECfp95()
	jobs := make([]driver.Job, len(loops))
	for i, l := range loops {
		jobs[i] = driver.Job{Graph: l.Graph, Machine: m, Opts: opts}
	}
	outcomes := compileAll(jobs)
	byBench = map[string][]*LoopResult{}
	failed = map[string]int{}
	for i, l := range loops {
		if outcomes[i].Err != nil {
			failed[l.Bench]++
			continue
		}
		byBench[l.Bench] = append(byBench[l.Bench], &LoopResult{Loop: l, Result: outcomes[i].Result})
	}
	return byBench, failed
}

// StrategyComparison compiles the full workload under each named strategy
// on one machine configuration and returns the per-benchmark rows,
// benchmark-major (all strategies for one bench adjacent), with the
// aggregate StrategyAllBenches rows last. Speedups are relative to
// names[0]. Unknown strategy names error before any compilation runs.
func StrategyComparison(names []string, m machine.Config) ([]StrategyBenchRow, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("experiments: no strategies requested")
	}
	for _, name := range names {
		if !pipeline.KnownStrategy(name) {
			return nil, &pipeline.UnknownStrategyError{Name: name}
		}
	}

	type suite struct {
		byBench map[string][]*LoopResult
		failed  map[string]int
	}
	suites := make([]suite, len(names))
	for i, name := range names {
		byBench, failed := strategySuite(m, StrategyOptions(name))
		suites[i] = suite{byBench: byBench, failed: failed}
	}

	cycles := func(lrs []*LoopResult) float64 {
		var total float64
		for _, lr := range lrs {
			total += lr.Cycles()
		}
		return total
	}

	var rows []StrategyBenchRow
	for _, bench := range workload.Benchmarks() {
		var refCycles float64
		for i, name := range names {
			lrs := suites[i].byBench[bench]
			c := cycles(lrs)
			if i == 0 {
				refCycles = c
			}
			row := StrategyBenchRow{
				Bench:    bench,
				Strategy: name,
				IPC:      BenchIPC(lrs),
				Cycles:   c,
				Failed:   suites[i].failed[bench],
			}
			if c > 0 {
				row.Speedup = refCycles / c
			}
			rows = append(rows, row)
		}
	}
	// Aggregate rows: harmonic-mean IPC, total cycles.
	var refTotal float64
	for i, name := range names {
		var ipcs []float64
		var total float64
		failed := 0
		for _, bench := range workload.Benchmarks() {
			ipcs = append(ipcs, BenchIPC(suites[i].byBench[bench]))
			total += cycles(suites[i].byBench[bench])
			failed += suites[i].failed[bench]
		}
		if i == 0 {
			refTotal = total
		}
		row := StrategyBenchRow{
			Bench:    StrategyAllBenches,
			Strategy: name,
			IPC:      metrics.HarmonicMean(ipcs),
			Cycles:   total,
			Failed:   failed,
		}
		if total > 0 {
			row.Speedup = refTotal / total
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// StrategyComparisonReport renders StrategyComparison's rows as a
// per-suite table: one row per benchmark, one column group (IPC, speedup
// vs names[0]) per strategy. names must be the list the rows were
// computed with.
func StrategyComparisonReport(rows []StrategyBenchRow, names []string, m machine.Config) string {
	byKey := map[string]StrategyBenchRow{}
	for _, r := range rows {
		byKey[r.Bench+"|"+r.Strategy] = r
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Strategy comparison on %s (%d-loop suite; speedup vs %q)\n", m.Name, len(workload.SPECfp95()), names[0])
	fmt.Fprintf(&sb, "%-10s", "bench")
	for _, name := range names {
		fmt.Fprintf(&sb, "  %9s %8s", name, "speedup")
	}
	sb.WriteByte('\n')
	benches := append(append([]string(nil), workload.Benchmarks()...), StrategyAllBenches)
	for _, bench := range benches {
		fmt.Fprintf(&sb, "%-10s", bench)
		for _, name := range names {
			r := byKey[bench+"|"+name]
			fmt.Fprintf(&sb, "  %9.3f %7.2fx", r.IPC, r.Speedup)
		}
		sb.WriteByte('\n')
	}
	for _, name := range names {
		if r := byKey[StrategyAllBenches+"|"+name]; r.Failed > 0 {
			fmt.Fprintf(&sb, "warning: %d loops failed to schedule under %q\n", r.Failed, name)
		}
	}
	return sb.String()
}
