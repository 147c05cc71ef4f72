package clusched_test

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// recomputes its experiment from scratch (the suite cache is reset per
// iteration) and reports the headline numbers the paper quotes as custom
// metrics, so `go test -bench=.` regenerates the whole evaluation.

import (
	"context"
	"runtime"
	"testing"

	"clusched"
	"clusched/internal/ddg"
	"clusched/internal/experiments"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// BenchmarkTable1Machine exercises the static machine model (Table 1).
func BenchmarkTable1Machine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1Causes regenerates the II-increase cause breakdown (Fig. 1:
// bus 70-90%, recurrences 2-4%, registers the rest).
func BenchmarkFig1Causes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		rows := experiments.Fig1()
		for _, r := range rows {
			if r.Config == "4c1b2l64r" {
				b.ReportMetric(r.BusPct, "bus_pct_4c1b2l")
				b.ReportMetric(r.RecPct, "rec_pct_4c1b2l")
				b.ReportMetric(r.RegPct, "reg_pct_4c1b2l")
			}
		}
	}
}

// BenchmarkFig7IPC regenerates the headline IPC comparison (Fig. 7: +25%
// average on 4c2b4l64r; su2cor up to +70%).
func BenchmarkFig7IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		for _, f := range experiments.Fig7() {
			if f.Config == "4c2b4l64r" {
				b.ReportMetric(f.AvgSpeedup(), "avg_speedup_pct_4c2b4l")
				b.ReportMetric(f.Speedup("su2cor"), "su2cor_speedup_pct")
				b.ReportMetric(f.Speedup("tomcatv"), "tomcatv_speedup_pct")
				b.ReportMetric(f.Speedup("swim"), "swim_speedup_pct")
			}
		}
	}
}

// BenchmarkFig8Mgrid regenerates the mgrid unified-vs-clustered study
// (Fig. 8: clustered IPC close to the unified bound, replication benefit
// minimal).
func BenchmarkFig8Mgrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		rows := experiments.Fig8()
		unified := rows[0].Baseline
		worst := unified
		for _, r := range rows[1:] {
			if r.Replication < worst {
				worst = r.Replication
			}
		}
		b.ReportMetric(unified, "unified_ipc")
		b.ReportMetric(100*worst/unified, "worst_clustered_pct_of_unified")
	}
}

// BenchmarkFig9AppluII regenerates the applu II-reduction study (Fig. 9:
// replication cuts the II by 10-20%).
func BenchmarkFig9AppluII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		for _, r := range experiments.Fig9() {
			if r.Config == "4c1b2l64r" {
				b.ReportMetric(r.IIReductionPct, "ii_reduction_pct_4c1b2l")
				b.ReportMetric(r.IPCGainPct, "ipc_gain_pct_4c1b2l")
			}
		}
	}
}

// BenchmarkFig10AddedInstructions regenerates the replication-cost
// accounting (Fig. 10: below 5% added instructions for most
// configurations, integers dominate).
func BenchmarkFig10AddedInstructions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		for _, r := range experiments.Fig10() {
			if r.Config == "4c1b2l64r" {
				b.ReportMetric(r.TotalPct, "added_pct_4c1b2l")
				b.ReportMetric(r.Pct[ddg.ClassInt], "added_int_pct_4c1b2l")
			}
		}
	}
}

// BenchmarkFig12LengthPotential regenerates the zero-bus-latency upper
// bound (Fig. 12: ~1% potential on 4-cluster machines).
func BenchmarkFig12LengthPotential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		for _, r := range experiments.Fig12() {
			switch r.Config {
			case "4c1b2l64r":
				b.ReportMetric(r.PotentialPct(), "potential_pct_4c1b2l")
			case "2c1b2l64r":
				b.ReportMetric(r.PotentialPct(), "potential_pct_2c1b2l")
			}
		}
	}
}

// BenchmarkCommStats regenerates the §4 statistics (~36% of communications
// removed at ~2.1 replicated instructions each on 4c1b2l64r).
func BenchmarkCommStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		for _, r := range experiments.CommStats() {
			if r.Config == "4c1b2l64r" {
				b.ReportMetric(r.RemovedPct, "comms_removed_pct_4c1b2l")
				b.ReportMetric(r.InstrsPerComm, "instrs_per_removed_comm")
			}
		}
	}
}

// BenchmarkAblationMacro regenerates the §5.2 comparison (macro-node
// replication adds more instructions than the greedy heuristic).
func BenchmarkAblationMacro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		for _, r := range experiments.MacroAblation() {
			if r.Config == "4c1b2l64r" {
				b.ReportMetric(r.GreedyAddedPct, "greedy_added_pct")
				b.ReportMetric(r.MacroAddedPct, "macro_added_pct")
			}
		}
	}
}

// BenchmarkCompileAll measures batch-compilation throughput over the full
// 678-loop suite with the concurrent engine (loops/sec is the headline
// metric; caching is disabled so every iteration does real work). Compare
// against BenchmarkCompileAllSerial: on an N-core runner the engine should
// approach N× the serial rate — the scaling baseline for future PRs.
func BenchmarkCompileAll(b *testing.B) {
	benchmarkCompileAll(b, 0) // GOMAXPROCS workers
}

// BenchmarkCompileAllSerial is the single-worker reference for the
// parallel speedup of BenchmarkCompileAll.
func BenchmarkCompileAllSerial(b *testing.B) {
	benchmarkCompileAll(b, 1)
}

func benchmarkCompileAll(b *testing.B, workers int) {
	loops := workload.SPECfp95()
	m := machine.MustParse("4c2b2l64r")
	jobs := make([]clusched.CompileJob, len(loops))
	for i, l := range loops {
		jobs[i] = clusched.CompileJob{Graph: l.Graph, Machine: m, Opts: clusched.Options{Replicate: true}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := clusched.NewCompiler(clusched.CompilerConfig{Workers: workers, CacheSize: -1})
		if _, err := comp.CompileAll(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(loops))*float64(b.N)/b.Elapsed().Seconds(), "loops/sec")
}

// BenchmarkCompileSingleLoop measures raw pipeline throughput on one
// representative stencil loop (not a paper figure; a sanity baseline for
// the suite-level benchmarks above).
func BenchmarkCompileSingleLoop(b *testing.B) {
	l := workload.LoopsFor("su2cor")[0]
	m := machine.MustParse("4c2b2l64r")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clusched.Compile(l.Graph, m, clusched.Options{Replicate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileHardLoop isolates single-compilation latency on the
// worst SPECfp95 loop — the one whose II search climbs the most on the
// bus-starved 4c1b2l64r configuration, i.e. the loop where failed
// attempts dominate the compile time. The linear/spec4 sub-benchmarks
// compare the plain ladder search against the speculative multi-II search
// with four lanes; the speculative one is skipped (not failed) on a
// single-CPU runner, where racing lanes cannot overlap and the comparison
// would be noise.
func BenchmarkCompileHardLoop(b *testing.B) {
	m := machine.MustParse("4c1b2l64r")
	opts := pipeline.Options{Replicate: true}
	var hard *ddg.Graph
	worst := -1
	for _, l := range workload.SPECfp95() {
		res, err := pipeline.Compile(l.Graph, m, opts)
		if err != nil {
			continue
		}
		bumps := 0
		for _, n := range res.IIIncreases {
			bumps += n
		}
		if bumps > worst {
			worst, hard = bumps, l.Graph
		}
	}
	if hard == nil {
		b.Fatal("no SPECfp95 loop compiles on 4c1b2l64r")
	}
	b.Logf("hard loop %s: %d II increases before acceptance", hard.Name, worst)

	b.Run("linear", func(b *testing.B) {
		arena := pipeline.NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.CompileContextArena(context.Background(), hard, m, opts, arena); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spec4", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) <= 1 {
			b.Skip("GOMAXPROCS=1: speculative lanes cannot run concurrently, latency cannot differ from linear")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Search(context.Background(), hard, m, opts, pipeline.SearchConfig{Lanes: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationUnroll regenerates the §6 related-work comparison
// (unrolling removes communications but at prohibitive code growth).
func BenchmarkAblationUnroll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		row, err := experiments.UnrollAblation("4c1b2l64r", 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.UnrollIPC, "unroll_ipc")
		b.ReportMetric(row.ReplIPC, "replication_ipc")
		b.ReportMetric(row.UnrollCodeGrowthPct, "unroll_code_growth_pct")
	}
}

// BenchmarkAblationDesign measures the internal design-choice ablations
// (slack edge weights, SMS ordering) on a workload sample.
func BenchmarkAblationDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DesignAblation("4c1b2l64r", 3)
		b.ReportMetric(r.SMSII, "sms_avg_ii")
		b.ReportMetric(r.TopoII, "topo_avg_ii")
	}
}
