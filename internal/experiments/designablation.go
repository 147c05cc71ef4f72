package experiments

import (
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// DesignAblationRow quantifies two internal design choices of the base
// framework on a workload sample:
//
//   - slack-weighted partition edges (after [1]) vs uniform weights, scored
//     by the communications and the induced II of the initial partition;
//   - the SMS-style scheduling order (after [18]) vs a plain topological
//     order, scored by the II the no-backtracking scheduler achieves.
type DesignAblationRow struct {
	Config string
	// SlackComs/UniformComs are average partition-implied communications.
	SlackComs, UniformComs float64
	// SlackInduced/UniformInduced are average induced IIs of the partitions.
	SlackInduced, UniformInduced float64
	// SMSII/TopoII are average achieved IIs of the two scheduling orders on
	// the slack-weighted partitions.
	SMSII, TopoII float64
	// Loops is the sample size.
	Loops int
}

// DesignAblation measures both choices on a deterministic workload sample.
// Each loop is measured in its canonical presentation, the numbering the
// pipeline's search compiles, so partitioning, refinement and scheduling
// all see one numbering.
func DesignAblation(cfg string, perBench int) DesignAblationRow {
	m := machine.MustParse(cfg)
	row := DesignAblationRow{Config: cfg}
	var slackComs, uniComs, slackInd, uniInd, smsII, topoII float64

	psc, ssc, msc := partition.NewScratch(), sched.NewScratch(), mii.NewScratch()
	var present ddg.Presentation
	achievedII := func(g *ddg.Graph, lo int, opts sched.Options) int {
		assign := partition.InitialScratch(g, m, lo, psc)
		for ii := lo; ii <= lo+16*g.NumNodes()+256; ii++ {
			if ii > lo {
				assign = partition.RefineScratch(g, m, ii, assign, psc)
			}
			p := ssc.Placement(g, assign)
			if p.Comms() > m.BusComs(ii) {
				continue
			}
			if _, err := sched.ScheduleLoopScratch(p, m, ii, false, opts, ssc); err == nil {
				return ii
			}
		}
		return -1
	}

	for _, bench := range workload.Benchmarks() {
		loops := workload.LoopsFor(bench)
		n := perBench
		if n > len(loops) {
			n = len(loops)
		}
		for _, l := range loops[:n] {
			g := present.Of(l.Graph)
			lo := mii.MIIScratch(g, m, msc)

			slack := partition.InitialScratch(g, m, lo, psc) // read before achievedII reuses psc
			uniform := partition.InitialUniform(g, m, lo)
			slackComs += float64(slack.Comms(g))
			uniComs += float64(uniform.Comms(g))
			slackInd += float64(partition.InducedII(g, m, slack))
			uniInd += float64(partition.InducedII(g, m, uniform))

			if ii := achievedII(g, lo, sched.Options{}); ii > 0 {
				smsII += float64(ii)
			}
			if ii := achievedII(g, lo, sched.Options{ForceTopoOrder: true}); ii > 0 {
				topoII += float64(ii)
			}
			row.Loops++
		}
	}
	fn := float64(row.Loops)
	row.SlackComs, row.UniformComs = slackComs/fn, uniComs/fn
	row.SlackInduced, row.UniformInduced = slackInd/fn, uniInd/fn
	row.SMSII, row.TopoII = smsII/fn, topoII/fn
	return row
}

// designTable runs both design ablations and renders them as a table.
func designTable() string {
	t := NewTable("config", "comms slack/uniform", "inducedII slack/uniform", "achieved II sms/topo", "loops")
	for _, cfg := range []string{"4c1b2l64r", "2c1b2l64r"} {
		r := DesignAblation(cfg, 4)
		t.AddRow(r.Config,
			fmtPair(r.SlackComs, r.UniformComs),
			fmtPair(r.SlackInduced, r.UniformInduced),
			fmtPair(r.SMSII, r.TopoII),
			r.Loops)
	}
	return t.String()
}

func fmtPair(a, b float64) string {
	return fmt.Sprintf("%.2f / %.2f", a, b)
}
