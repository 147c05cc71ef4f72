package experiments

import (
	"fmt"
	"slices"
	"strings"

	"clusched/internal/ddg"
	"clusched/internal/workload"
)

// FigureSections is the machine-readable form of the evaluation: the typed
// rows behind each report table, one optional section per experiment
// (absent sections were not run). Every section is a pure function of the
// code — testdata/figures.golden.json pins all nine — which is what lets a
// PR claim "no figure moved" with a diff.
type FigureSections struct {
	Fig1      []Fig1Row      `json:"fig1,omitempty"`
	Fig7      []Fig7Config   `json:"fig7,omitempty"`
	Fig8      []Fig8Row      `json:"fig8,omitempty"`
	Fig9      []Fig9Row      `json:"fig9,omitempty"`
	Fig10     []Fig10Row     `json:"fig10,omitempty"`
	Fig12     []Fig12Row     `json:"fig12,omitempty"`
	CommStats []CommStatsRow `json:"comm_stats,omitempty"`
	Macro     []MacroRow     `json:"macro,omitempty"`
	RegSweep  []RegSweepRow  `json:"reg_sweep,omitempty"`
}

// experiment is one row of the evaluation: one block of the report.
type experiment struct {
	name    string // paperbench's -fig name
	heading string // the block's opening lines
	// collect computes the experiment's typed rows into its section, once;
	// nil for an experiment without a section.
	collect func(*FigureSections)
	// render is the rest of the block, from the section; an experiment
	// without one computes here.
	render func(*FigureSections) string
}

// evaluation is the paper's evaluation in report order. paperbench's -fig,
// its full report, its -json document and the goldens all read it.
var evaluation = []experiment{{
	name:    "table1",
	heading: "Table 1: machine configurations\n\n",
	render:  func(*FigureSections) string { return Table1() },
}, {
	name: "1",
	heading: "Figure 1: causes for increasing the II beyond the MII (baseline scheduler,\n" +
		"678 SPECfp95 loops; paper: bus 70-90%, recurrences 2-4%, registers the rest)\n\n",
	collect: func(s *FigureSections) { s.Fig1 = Fig1() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "bus %", "recurrences %", "registers %", "II increases", "loops > MII")
		for _, r := range s.Fig1 {
			t.AddRow(r.Config, r.BusPct, r.RecPct, r.RegPct, r.Increases, r.LoopsAboveMII)
		}
		return t.String()
	},
}, {
	name: "7",
	heading: "Figure 7: IPC, baseline vs replication, per configuration and program\n" +
		"(paper: replication helps everywhere; su2cor/tomcatv/swim largest, mgrid/applu small;\n" +
		" average speedup on 4c2b4l64r is 25%)\n\n",
	collect: func(s *FigureSections) { s.Fig7 = Fig7() },
	render: func(s *FigureSections) string {
		var sb strings.Builder
		for _, f := range s.Fig7 {
			fmt.Fprintf(&sb, "-- %s (avg speedup %.1f%%)\n", f.Config, f.AvgSpeedup())
			t := NewTable("program", "baseline IPC", "replication IPC", "speedup %")
			for _, b := range workload.Benchmarks() {
				t.AddRow(b, f.Baseline[b], f.Replication[b], f.Speedup(b))
			}
			t.AddRow("HMEAN", f.HBase, f.HRepl, 100*(f.HRepl/f.HBase-1))
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	},
}, {
	name: "8",
	heading: "Figure 8: IPC for mgrid (paper: clustered IPC is close to the unified\n" +
		"upper bound even without replication, so the replication benefit is minimal)\n\n",
	collect: func(s *FigureSections) { s.Fig8 = Fig8() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "baseline IPC", "replication IPC")
		for _, r := range s.Fig8 {
			t.AddRow(r.Config, r.Baseline, r.Replication)
		}
		return t.String()
	},
}, {
	name: "9",
	heading: "Figure 9: reduction of the II for applu (paper: replication cuts the II by\n" +
		"10-20%, but the IPC gain stays small because applu's trip counts are ~4)\n\n",
	collect: func(s *FigureSections) { s.Fig9 = Fig9() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "II reduction %", "IPC gain %")
		for _, r := range s.Fig9 {
			t.AddRow(r.Config, r.IIReductionPct, r.IPCGainPct)
		}
		return t.String()
	},
}, {
	name: "10",
	heading: "Figure 10: percentage of instructions added due to replication\n" +
		"(paper: below 5% for most configurations, integer ops dominate)\n\n",
	collect: func(s *FigureSections) { s.Fig10 = Fig10() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "mem %", "int %", "fp %", "total %")
		for _, r := range s.Fig10 {
			t.AddRow(r.Config, r.Pct[ddg.ClassMem], r.Pct[ddg.ClassInt], r.Pct[ddg.ClassFP], r.TotalPct)
		}
		return t.String()
	},
}, {
	name: "12",
	heading: "Figure 12: potential benefit of replicating to reduce the schedule length\n" +
		"(paper: the zero-bus-latency upper bound is ~1% above replication on 4-cluster\n" +
		"configurations and near zero on 2-cluster ones)\n\n",
	collect: func(s *FigureSections) { s.Fig12 = Fig12() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "replication HMEAN", "latency-0 HMEAN", "potential %", "§5.1 length ext HMEAN")
		for _, r := range s.Fig12 {
			t.AddRow(r.Config, r.Replication, r.ZeroLat, r.PotentialPct(), r.Length)
		}
		return t.String()
	},
}, {
	name: "stats",
	heading: "§4 statistics: communications removed by replication\n" +
		"(paper: ~36% of communications removed on 4c1b2l64r, ~2.1 replicated\n" +
		"instructions per removed communication)\n\n",
	collect: func(s *FigureSections) { s.CommStats = CommStats() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "comms before", "comms after", "removed %", "instrs/removed comm")
		for _, r := range s.CommStats {
			t.AddRow(r.Config, r.CommsBefore, r.CommsAfter, r.RemovedPct, r.InstrsPerComm)
		}
		return t.String()
	},
}, {
	name: "macro",
	heading: "§5.2 ablation: greedy per-communication replication vs macro-node batches\n" +
		"(paper: macro-node replication copies too many unnecessary instructions)\n\n",
	collect: func(s *FigureSections) { s.Macro = MacroAblation() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "greedy HMEAN", "macro HMEAN", "greedy added %", "macro added %")
		for _, r := range s.Macro {
			t.AddRow(r.Config, r.GreedyHMEAN, r.MacroHMEAN, r.GreedyAddedPct, r.MacroAddedPct)
		}
		return t.String()
	},
}, {
	name: "unroll",
	heading: "§6 ablation: loop unrolling vs instruction replication\n" +
		"(the paper's related work: unrolling also removes communications and can\n" +
		"perform well, but its code growth is prohibitive for DSP targets)\n\n",
	render: func(*FigureSections) string { return unrollTable() },
}, {
	name:    "regs",
	heading: "§4 register sweep: 32/64/128 registers (paper: similar results across budgets)\n\n",
	collect: func(s *FigureSections) { s.RegSweep = RegSweep() },
	render: func(s *FigureSections) string {
		t := NewTable("config", "baseline HMEAN", "replication HMEAN", "speedup %")
		for _, r := range s.RegSweep {
			t.AddRow(r.Config, r.HBase, r.HRepl, r.SpeedupPct)
		}
		return t.String()
	},
}, {
	name: "design",
	heading: "Design ablations: slack-weighted partition edges and SMS ordering\n" +
		"(internal choices of the base framework the paper builds on: [1] weights\n" +
		"edges by bus-latency impact; [18] orders nodes swing-style)\n\n",
	render: func(*FigureSections) string { return designTable() },
}}

// blockSeparator divides the blocks of the full report.
var blockSeparator = "\n" + strings.Repeat("=", 78) + "\n\n"

// Names lists the experiments by paperbench's -fig name, in report order.
func Names() []string {
	names := make([]string, len(evaluation))
	for i, e := range evaluation {
		names[i] = e.name
	}
	return names
}

// CollectFigures runs the experiment paperbench's -fig names fig, or every
// experiment in report order for "", computing each one's typed rows once,
// and returns the rows together with the report rendered from them: the
// experiment's block, or the full report (the blocks joined by a rule, and
// a final newline). An unknown name is an error that lists the valid ones.
func CollectFigures(fig string) (FigureSections, string, error) {
	rows := evaluation
	if fig != "" {
		i := slices.IndexFunc(evaluation, func(e experiment) bool { return e.name == fig })
		if i < 0 {
			return FigureSections{}, "", fmt.Errorf("unknown experiment %q (one of: %s)", fig, strings.Join(Names(), ", "))
		}
		rows = evaluation[i : i+1]
	}
	var s FigureSections
	blocks := make([]string, len(rows))
	for i, e := range rows {
		if e.collect != nil {
			e.collect(&s)
		}
		blocks[i] = e.heading + e.render(&s)
	}
	report := strings.Join(blocks, blockSeparator)
	if fig == "" {
		report += "\n"
	}
	return s, report, nil
}
