package clusched_test

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// recomputes its experiment from scratch (the suite cache is reset per
// iteration) and reports the headline numbers the paper quotes as custom
// metrics, so `go test -bench=.` regenerates the whole evaluation. These
// report the paper's numbers, not this repository's speed: compile
// throughput and latency are measured by `go run ./bench` alone.

import (
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/experiments"
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
