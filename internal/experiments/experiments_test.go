package experiments

import (
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// The experiment tests assert the qualitative shape of the paper's results
// (who wins, roughly by how much, where the crossovers are), not absolute
// numbers: the workload substrate is synthetic (see DESIGN.md).

// variants names the two suite variants most tests compare.
var variants = []struct {
	name string
	opts pipeline.Options
}{
	{"baseline", pipeline.Options{}},
	{"replication", pipeline.Options{Replicate: true}},
}

func TestSuiteCompilesCompletely(t *testing.T) {
	for _, v := range variants {
		mode, sr := v.name, RunSuite(machine.MustParse("4c1b2l64r"), v.opts)
		if len(sr.Failed) != 0 {
			t.Fatalf("%v: %d loops failed: %v", mode, len(sr.Failed), sr.Failed[:min(3, len(sr.Failed))])
		}
		n := 0
		for _, lrs := range sr.ByBench {
			n += len(lrs)
		}
		if n != workload.TotalLoops {
			t.Fatalf("%v: %d results, want %d", mode, n, workload.TotalLoops)
		}
	}
}

func TestReplicationNeverHurtsSuiteWide(t *testing.T) {
	base := RunSuite(machine.MustParse("4c1b2l64r"), pipeline.Options{})
	repl := RunSuite(machine.MustParse("4c1b2l64r"), pipeline.Options{Replicate: true})
	for _, b := range workload.Benchmarks() {
		bl, rl := base.ByBench[b], repl.ByBench[b]
		for i := range bl {
			if rl[i].Result.II > bl[i].Result.II {
				t.Errorf("%s: replication worsened II %d -> %d",
					bl[i].Loop.Graph.Name, bl[i].Result.II, rl[i].Result.II)
			}
		}
	}
}

func TestFig1Shape(t *testing.T) {
	rows := Fig1()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Increases == 0 {
			t.Fatalf("%s: no II increases recorded", r.Config)
		}
		// Paper: the bus dominates (70-90%); allow a wide band but insist
		// it is the top cause on every configuration.
		if r.BusPct < 50 || r.BusPct < r.RecPct || r.BusPct < r.RegPct {
			t.Errorf("%s: bus not dominant: bus=%.0f rec=%.0f reg=%.0f",
				r.Config, r.BusPct, r.RecPct, r.RegPct)
		}
	}
	// The 1-bus configurations must be more bus-dominated than 4c2b2l64r.
	if rows[0].BusPct < 85 || rows[1].BusPct < 85 {
		t.Errorf("1-bus configs insufficiently bus-bound: %.0f / %.0f", rows[0].BusPct, rows[1].BusPct)
	}
}

func TestFig7Shape(t *testing.T) {
	for _, f := range Fig7() {
		// Replication never hurts any program on any configuration.
		for _, b := range workload.Benchmarks() {
			if f.Speedup(b) < -1 { // tolerate rounding
				t.Errorf("%s/%s: replication slowdown %.1f%%", f.Config, b, f.Speedup(b))
			}
		}
		if f.HRepl < f.HBase {
			t.Errorf("%s: HMEAN dropped %.2f -> %.2f", f.Config, f.HBase, f.HRepl)
		}
		if f.Config != "4c2b4l64r" {
			continue
		}
		// Headline claims (paper: avg 25%, su2cor +70%, tomcatv +65%,
		// swim +50%, mgrid/applu small). Bands are generous: the substrate
		// is synthetic and the shape is what is asserted.
		if avg := f.AvgSpeedup(); avg < 15 || avg > 45 {
			t.Errorf("avg speedup %.1f%%, want within [15,45] (paper: 25%%)", avg)
		}
		for _, b := range []string{"su2cor", "tomcatv", "swim"} {
			if sp := f.Speedup(b); sp < 35 {
				t.Errorf("%s speedup %.1f%%, want the stencils to lead (>35%%)", b, sp)
			}
		}
		if sp := f.Speedup("mgrid"); sp > 10 {
			t.Errorf("mgrid speedup %.1f%%, want small (<10%%)", sp)
		}
		if sp := f.Speedup("applu"); sp > 25 {
			t.Errorf("applu speedup %.1f%%, want modest (<25%%)", sp)
		}
		// The stencils must beat every mid-tier program.
		for _, mid := range []string{"hydro2d", "turb3d", "apsi", "wave5", "fpppp"} {
			if f.Speedup("su2cor") < f.Speedup(mid) {
				t.Errorf("su2cor (%.1f%%) should lead %s (%.1f%%)",
					f.Speedup("su2cor"), mid, f.Speedup(mid))
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows := Fig8()
	if rows[0].Config != "unified" {
		t.Fatalf("first row is %s, want unified", rows[0].Config)
	}
	unified := rows[0].Baseline
	for _, r := range rows[1:] {
		// Paper: mgrid's clustered IPC is very close to the unified bound.
		if r.Replication < 0.9*unified {
			t.Errorf("%s: mgrid replication IPC %.2f below 90%% of unified %.2f",
				r.Config, r.Replication, unified)
		}
		// And replication has almost nothing to add.
		if gain := r.Replication/r.Baseline - 1; gain > 0.10 {
			t.Errorf("%s: mgrid replication gain %.1f%%, want minimal", r.Config, 100*gain)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	for _, r := range Fig9() {
		// Paper: 10-20% II reduction depending on configuration; allow 3-30.
		if r.IIReductionPct < 3 || r.IIReductionPct > 30 {
			t.Errorf("%s: applu II reduction %.1f%%, want within [3,30] (paper: 10-20%%)",
				r.Config, r.IIReductionPct)
		}
		// The IPC gain must trail the II reduction (tiny trip counts).
		if r.IPCGainPct > r.IIReductionPct {
			t.Errorf("%s: IPC gain %.1f%% exceeds II reduction %.1f%%",
				r.Config, r.IPCGainPct, r.IIReductionPct)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	for _, r := range Fig10() {
		if r.TotalPct > 11 {
			t.Errorf("%s: %.1f%% added instructions, want small (<11%%; paper: <5%% for most, worst bars near 8-10%%)",
				r.Config, r.TotalPct)
		}
		// Integer replication dominates (address arithmetic).
		if r.Pct[ddg.ClassInt] < r.Pct[ddg.ClassFP] || r.Pct[ddg.ClassInt] < r.Pct[ddg.ClassMem] {
			t.Errorf("%s: int replication (%.2f%%) should dominate fp (%.2f%%) and mem (%.2f%%)",
				r.Config, r.Pct[ddg.ClassInt], r.Pct[ddg.ClassFP], r.Pct[ddg.ClassMem])
		}
	}
}

func TestFig12Shape(t *testing.T) {
	for _, r := range Fig12() {
		p := r.PotentialPct()
		if p < -1 {
			t.Errorf("%s: negative potential %.1f%%", r.Config, p)
		}
		if p > 8 {
			t.Errorf("%s: potential %.1f%%, want small (paper: ~1%%)", r.Config, p)
		}
		// The §5.1 extension cannot beat the zero-latency upper bound by a
		// meaningful margin.
		if r.Length > r.ZeroLat*1.02 {
			t.Errorf("%s: length extension %.2f above upper bound %.2f", r.Config, r.Length, r.ZeroLat)
		}
	}
}

func TestCommStatsShape(t *testing.T) {
	for _, r := range CommStats() {
		if r.CommsBefore == 0 {
			t.Fatalf("%s: no communications in the suite", r.Config)
		}
		// Paper: roughly a third of communications removed (36% on
		// 4c1b2l64r) at ~2.1 instructions each.
		if r.Config == "4c1b2l64r" {
			if r.RemovedPct < 15 || r.RemovedPct > 70 {
				t.Errorf("removed %.0f%%, want within [15,70] (paper: 36%%)", r.RemovedPct)
			}
			if r.InstrsPerComm < 1 || r.InstrsPerComm > 5 {
				t.Errorf("%.1f instrs per removed comm, want within [1,5] (paper: 2.1)", r.InstrsPerComm)
			}
		}
	}
}

func TestMacroAblationShape(t *testing.T) {
	for _, r := range MacroAblation() {
		// Paper §5.2: macro-node replication copies more than necessary.
		if r.MacroAddedPct < r.GreedyAddedPct {
			t.Errorf("%s: macro added %.2f%% < greedy %.2f%%; expected the opposite",
				r.Config, r.MacroAddedPct, r.GreedyAddedPct)
		}
	}
}

func TestReportsRender(t *testing.T) {
	for _, name := range []string{"table1", "1", "8", "9"} {
		_, out, err := CollectFigures(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) < 50 || !strings.Contains(out, "-") {
			t.Errorf("%s report suspiciously short:\n%s", name, out)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestUnrollAblationShape(t *testing.T) {
	row, err := UnrollAblation("4c1b2l64r", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Unrolling removes communications, so it beats the baseline...
	if row.UnrollIPC < row.BaselineIPC {
		t.Errorf("unroll IPC %.2f below baseline %.2f", row.UnrollIPC, row.BaselineIPC)
	}
	// ...but its code growth dwarfs replication's (the paper's §6 point).
	if row.UnrollCodeGrowthPct < 10*row.ReplCodeGrowthPct {
		t.Errorf("unroll code growth %.0f%% not clearly above replication's %.1f%%",
			row.UnrollCodeGrowthPct, row.ReplCodeGrowthPct)
	}
	if row.UnrollCodeGrowthPct != 100 {
		t.Errorf("unroll x2 code growth = %.0f%%, want 100%%", row.UnrollCodeGrowthPct)
	}
}

func TestRegSweepShape(t *testing.T) {
	rows := RegSweep()
	get := func(cfg string) RegSweepRow {
		for _, r := range rows {
			if r.Config == cfg {
				return r
			}
		}
		t.Fatalf("missing %s", cfg)
		return RegSweepRow{}
	}
	// Paper §4: 64- and 128-register budgets behave alike.
	for _, pair := range [][2]string{{"2c1b2l64r", "2c1b2l128r"}, {"4c1b2l64r", "4c1b2l128r"}} {
		a, b := get(pair[0]), get(pair[1])
		if d := b.SpeedupPct - a.SpeedupPct; d < -8 || d > 12 {
			t.Errorf("%s vs %s: speedups %.1f%% vs %.1f%% not similar", pair[0], pair[1], a.SpeedupPct, b.SpeedupPct)
		}
	}
	// Replication never hurts at any budget.
	for _, r := range rows {
		if r.HRepl < r.HBase {
			t.Errorf("%s: replication HMEAN dropped", r.Config)
		}
	}
}

func TestDesignAblationShape(t *testing.T) {
	r := DesignAblation("4c1b2l64r", 3)
	if r.Loops == 0 {
		t.Fatal("no loops sampled")
	}
	// The SMS-style order must not lose to the plain topological order on
	// average (it exists to do better), and the slack weighting must not be
	// clearly worse than uniform weights on either metric.
	if r.SMSII > r.TopoII+0.3 {
		t.Errorf("SMS order (avg II %.2f) worse than topo order (%.2f)", r.SMSII, r.TopoII)
	}
	if r.SlackInduced > r.UniformInduced+0.5 {
		t.Errorf("slack weights (induced %.2f) clearly worse than uniform (%.2f)",
			r.SlackInduced, r.UniformInduced)
	}
}
