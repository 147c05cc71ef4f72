package experiments

import (
	"context"
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// UnrollRow compares loop unrolling (the §6 related-work alternative [22])
// against instruction replication on one configuration: performance per
// source iteration and static code size. The paper's position: unrolling
// also removes communications and performs well, but its code growth is
// unacceptable for the DSP parts that use clustered VLIWs, while
// replication adds only a few percent.
type UnrollRow struct {
	Config string
	Factor int
	// BaselineIPC / ReplIPC / UnrollIPC are suite IPCs (useful source
	// instructions over modeled cycles) for the base scheduler, the
	// replication pass, and unrolling-without-replication.
	BaselineIPC, ReplIPC, UnrollIPC float64
	// ReplCodeGrowthPct and UnrollCodeGrowthPct are static code-size
	// increases over the original loop bodies.
	ReplCodeGrowthPct, UnrollCodeGrowthPct float64
	// UnrollRegOverflowPct is the share of sampled loops whose unrolled
	// body exceeds the register file on some cluster at every feasible II —
	// unrolling's other hidden cost (a real compiler would have to spill).
	// Such loops are compiled with the register check disabled so the IPC
	// column still reflects their schedules.
	UnrollRegOverflowPct float64
}

// UnrollAblation runs the comparison on a deterministic sample of the suite
// on the shared batch engine (unrolled loops are compiled from scratch; the
// sample keeps the runtime in benchmark range).
func UnrollAblation(cfg string, factor, perBench int) (UnrollRow, error) {
	m := machine.MustParse(cfg)
	row := UnrollRow{Config: cfg, Factor: factor}

	// Three compilations per sampled loop — baseline, replication, unrolled
	// baseline — submitted as one batch.
	var samples []*workload.Loop
	var unrolled []*ddg.Graph
	var jobs []driver.Job
	for _, bench := range workload.Benchmarks() {
		loops := workload.LoopsFor(bench)
		n := perBench
		if n > len(loops) {
			n = len(loops)
		}
		for _, l := range loops[:n] {
			ug, err := Unroll(l.Graph, factor)
			if err != nil {
				return row, err
			}
			samples = append(samples, l)
			unrolled = append(unrolled, ug)
			jobs = append(jobs,
				driver.Job{Graph: l.Graph, Machine: m},
				driver.Job{Graph: l.Graph, Machine: m, Opts: pipeline.Options{Replicate: true}},
				driver.Job{Graph: ug, Machine: m})
		}
	}
	outcomes := compileAll(jobs) // per-job errors handled below

	var baseAcc, replAcc, unrollAcc ipcAccumulator
	var origOps, replOps, unrollOps float64
	var sampled, regOverflows int
	for i, l := range samples {
		bout, rout, uout := outcomes[3*i], outcomes[3*i+1], outcomes[3*i+2]
		if bout.Err != nil {
			return row, bout.Err
		}
		if rout.Err != nil {
			return row, rout.Err
		}
		base, repl, ur := bout.Result, rout.Result, uout.Result
		if uout.Err != nil {
			// Typically a register-file overflow: retry without the
			// register check and count the violation.
			var err error
			ur, err = engine.Compile(context.Background(), driver.Job{Graph: unrolled[i], Machine: m, Opts: pipeline.Options{IgnoreRegisterPressure: true}})
			if err != nil {
				return row, err
			}
			regOverflows++
		}
		sampled++

		instrs := l.DynamicInstrs()
		visits := float64(l.Visits)
		baseAcc.Add(instrs, base.Schedule.CyclesFor(l.AvgIters)*visits)
		replAcc.Add(instrs, repl.Schedule.CyclesFor(l.AvgIters)*visits)
		// The unrolled body initiates once per `factor` source iterations.
		unrollAcc.Add(instrs, ur.Schedule.CyclesFor(l.AvgIters/float64(factor))*visits)

		origOps += float64(l.Graph.NumNodes())
		extra := 0
		for _, e := range repl.Placement.ExtraInstances() {
			extra += e
		}
		replOps += float64(l.Graph.NumNodes() + extra)
		unrollOps += float64(l.Graph.NumNodes() * factor)
	}
	row.BaselineIPC = baseAcc.IPC()
	row.ReplIPC = replAcc.IPC()
	row.UnrollIPC = unrollAcc.IPC()
	row.ReplCodeGrowthPct = 100 * (replOps/origOps - 1)
	row.UnrollCodeGrowthPct = 100 * (unrollOps/origOps - 1)
	if sampled > 0 {
		row.UnrollRegOverflowPct = 100 * float64(regOverflows) / float64(sampled)
	}
	return row, nil
}

// unrollTable runs the §6 comparison and renders it as a table.
func unrollTable() string {
	t := NewTable("config", "factor", "baseline IPC", "replication IPC", "unroll IPC",
		"repl code +%", "unroll code +%", "unroll reg overflow %")
	for _, cfg := range []string{"4c1b2l64r", "4c2b4l64r"} {
		for _, f := range []int{2, 4} {
			row, err := UnrollAblation(cfg, f, 6)
			if err != nil {
				t.AddRow(cfg, f, "error: "+err.Error(), "", "", "", "", "")
				continue
			}
			t.AddRow(row.Config, row.Factor, row.BaselineIPC, row.ReplIPC, row.UnrollIPC,
				row.ReplCodeGrowthPct, row.UnrollCodeGrowthPct, row.UnrollRegOverflowPct)
		}
	}
	return t.String()
}

// Unroll implements loop unrolling for DDGs — the competing
// communication-reduction technique the paper's related work discusses
// (Sánchez & González [22]): unrolling gives the partitioner factor
// independent copies of the loop body to spread across clusters, which
// removes most communications but multiplies the code size.
//
// It returns the loop body replicated factor times, with loop-carried
// dependences rewritten: an edge with distance d from copy i lands in copy
// (i+d) mod factor at distance (i+d)/factor. The unrolled loop executes
// ceil(N/factor) iterations of the new body; callers must handle trip-count
// preconditioning themselves (as real compilers do).
func Unroll(g *ddg.Graph, factor int) (*ddg.Graph, error) {
	if factor < 1 {
		return nil, fmt.Errorf("unroll: factor %d", factor)
	}
	if factor == 1 {
		return g.Clone(), nil
	}
	b := ddg.NewBuilder(fmt.Sprintf("%s_x%d", g.Name, factor))
	// ids[copy][node] is the new node ID.
	ids := make([][]int, factor)
	for u := 0; u < factor; u++ {
		ids[u] = make([]int, g.NumNodes())
		for v := range g.Nodes {
			label := ""
			if g.Nodes[v].Label != "" {
				label = fmt.Sprintf("%s_u%d", g.Nodes[v].Label, u)
			}
			ids[u][v] = b.Node(label, g.Nodes[v].Op)
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		for u := 0; u < factor; u++ {
			target := u + e.Dist
			newDist := target / factor
			targetCopy := target % factor
			src := ids[u][e.Src]
			dst := ids[targetCopy][e.Dst]
			switch e.Kind {
			case ddg.EdgeData:
				b.EdgeLat(src, dst, newDist, e.Lat)
			default:
				if src == dst && newDist == 0 {
					continue
				}
				b.MemEdge(src, dst, newDist) // latency 1, as built
			}
		}
	}
	return b.Build()
}
