package pipeline

import (
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
)

// referenceSearch is the oracle the parity tests hold Search to: the Fig. 2
// driver written the naive way — one attempt per interval on a fresh arena,
// no skip-ahead, no trace, no cancellation. It shares with the
// production search only the strategy resolution and the passes themselves.
func referenceSearch(g *ddg.Graph, m machine.Config, opts Options) (*Result, error) {
	s, m, err := resolveStrategy(opts, m)
	if err != nil {
		return nil, err
	}
	return referenceChain(g, m, opts, s.Chain)
}

// referenceChain is referenceSearch over an explicit pass chain.
func referenceChain(g *ddg.Graph, m machine.Config, opts Options, passes []Pass) (*Result, error) {
	res := &Result{Loop: g, Machine: m, MII: mii.MII(g, m)}
	maxII := opts.MaxII
	if maxII == 0 {
		maxII = MaxII(g, m, res.MII)
	}
	ctx := &Context{Graph: g, Machine: m, Opts: opts, MII: res.MII}
attempts:
	for ii := res.MII; ii <= maxII; ii++ {
		ctx.reset(ii)
		ctx.arena = NewArena()
		for _, p := range passes {
			if err := p.Run(ctx); err != nil {
				return nil, err
			}
			if cause, failed := ctx.Failed(); failed {
				res.IIIncreases[cause]++
				continue attempts
			}
		}
		res.II = ii
		res.Length, res.SC = ctx.Schedule.Length, ctx.Schedule.SC
		res.CommsBeforeReplication, res.Comms = ctx.CommsBeforeReplication, ctx.Placement.Comms()
		res.Replicated, res.Removed = ctx.ReplStats.Replicated, ctx.ReplStats.Removed
		res.ReplicationSteps = ctx.ReplStats.Steps
		res.Schedule, res.Placement = ctx.Schedule, ctx.Placement
		return res, nil
	}
	return nil, fmt.Errorf("pipeline: loop %s does not schedule on %s with II up to %d", g.Name, m, maxII)
}
