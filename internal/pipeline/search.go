package pipeline

// The II search: the paper's Fig. 2 driver loop, once. Starting at II = MII
// the search runs the strategy's pass chain over a frontier Context that
// lives for the whole compilation; a failed attempt is tallied by cause and
// the next attempt refines the partition the last one left in
// Context.Assign. One acceleration rides on that loop, and it may not
// change any observable output: skip-ahead — when the pass that failed an
// attempt proves the intervals up to Context.NextII fail the same way
// (moddist's fixed assignment: its bus count, and its placement's
// recurrence bound), the search tallies them and jumps. A proven bound
// past the search's cap ends the search at once.
// Results are bit-identical to the naive one-attempt-per-interval search —
// search_parity_test.go pins this against referenceSearch across suites,
// configs, strategies, traced and untraced.
//
// The loop the search runs on is the job's canonical presentation, not the
// job's own graph: Search relabels it on the way in and relabels the
// accepted schedule on the way out, so the II is a function of the loop,
// not of its numbering (invariance_test.go).
//
// Tracing is an execution detail: it changes neither Options nor any
// cache identity (driver.JobKey).

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/telemetry"
)

// SearchConfig carries everything about one Search that is not part of the
// job's identity. The zero value is the plain search on a fresh arena.
type SearchConfig struct {
	// Arena is the caller-owned scratch arena the frontier's attempts run
	// on (see Arena); nil allocates a fresh one.
	Arena *Arena
	// Trace, when non-nil, records one span per executed pass and per II
	// attempt (plus skip-ahead markers) on the track named Track
	// ("compile" when empty). Tracing changes no observable behavior and
	// costs nothing when off.
	Trace *telemetry.Trace
	Track string
}

// Search compiles one loop under the strategy opts.Strategy selects: it
// resolves and validates the strategy, applies its machine rewrite, and
// drives its pass chain through the II search configured by cfg. The
// search runs on the loop's topological-canonical presentation
// (ddg.Presentation, built in the arena), so isomorphic loops compile to
// the same schedule whatever their numbering; the accepted schedule is
// then relabeled onto g (sched.Scratch.Relabel) and the Result is g's. The
// context is checked before every attempt and between passes; an abandoned
// compilation returns ctx.Err() unwrapped and no partial Result.
func Search(cctx context.Context, g *ddg.Graph, m machine.Config, opts Options, cfg SearchConfig) (*Result, error) {
	s, m, err := resolveStrategy(opts, m)
	if err != nil {
		return nil, err
	}
	arena := cfg.Arena.filled()
	cfg.Arena = arena
	defer arena.park()
	res, err := search(cctx, arena.present.Of(g), m, opts, s, cfg)
	if err != nil {
		return nil, err
	}
	if err := arena.Sched.Relabel(res.Schedule, g, arena.present.Perm); err != nil {
		return nil, fmt.Errorf("pipeline: internal error: relabeling %s's schedule: %w", g.Name, err)
	}
	res.Loop = g
	return res, nil
}

// search drives s's pass chain through the II search on the machine s
// compiles for, on g as given. Each attempt resets the per-attempt context
// state and runs the chain; the chain must leave Schedule and Placement set
// on success. The arena is the caller's to park.
func search(cctx context.Context, g *ddg.Graph, m machine.Config, opts Options, s Strategy, cfg SearchConfig) (*Result, error) {
	if opts.MaxII < 0 {
		return nil, errors.New("pipeline: MaxII must be ≥ 0")
	}
	arena := cfg.Arena.filled()
	res := &Result{Loop: g, Machine: m}
	res.MII = mii.MIIScratch(g, m, arena.MII)
	maxII := opts.MaxII
	if maxII == 0 {
		maxII = MaxII(g, m, res.MII)
	}
	tr, track, tid := cfg.Trace, cfg.Track, 0
	if tr != nil {
		if track == "" {
			track = "compile"
		}
		tid = tr.Track(track)
	}

	front := &arena.front
	*front = Context{Graph: g, Machine: m, Opts: opts, MII: res.MII, arena: arena}
	for ii := res.MII; ii <= maxII; {
		if err := cctx.Err(); err != nil {
			return nil, err
		}
		front.reset(ii)
		if err := attempt(cctx, front, s.Chain, tr, tid); err != nil {
			return nil, err
		}
		if front.failed {
			cause := front.failCause
			res.IIIncreases[cause]++
			ii++
			// The failing pass proved every interval in [ii, NextII) fails
			// exactly as this one did; tally those failures and jump. The
			// tallied range is capped at maxII, matching the last attempt
			// the one-by-one search makes before it gives up, so a bound
			// past it (math.MaxInt included) ends the search here.
			if next := front.NextII; next > ii {
				skipped := min(next, maxII+1) - ii
				res.IIIncreases[cause] += skipped
				if tr != nil {
					tr.Instant(tid, "search", "skip-ahead",
						telemetry.Arg{Key: "from", Val: ii},
						telemetry.Arg{Key: "to", Val: ii + skipped})
				}
				ii += skipped
			}
			continue
		}
		if front.Schedule == nil {
			return nil, fmt.Errorf("pipeline: pass chain accepted II=%d without producing a schedule", front.II)
		}
		// The accepted schedule carries the placement it was made for out of
		// the arena; front.Placement is the attempt's and dies with it.
		res.II = front.II
		res.Length = front.Schedule.Length
		res.SC = front.Schedule.SC
		res.CommsBeforeReplication = front.CommsBeforeReplication
		res.Schedule = front.Schedule
		res.Placement = front.Schedule.IG.P
		res.Comms = res.Placement.Comms()
		res.Replicated = front.ReplStats.Replicated
		res.Removed = front.ReplStats.Removed
		res.ReplicationSteps = front.ReplStats.Steps
		return res, nil
	}
	return nil, fmt.Errorf("pipeline: loop %s does not schedule on %s with II up to %d", g.Name, m, maxII)
}

// attempt runs one II attempt's pass chain over ctx; the first pass to Fail
// ends the attempt. With a trace attached it records one span per executed
// pass and one enclosing span per attempt, annotated with the outcome. The
// trace sites are guarded (not just nil-safe) because boxing their
// arguments is what would allocate on the untraced path.
func attempt(cctx context.Context, ctx *Context, passes []Pass, tr *telemetry.Trace, tid int) error {
	start := tr.Now()
	for _, p := range passes {
		if err := cctx.Err(); err != nil {
			if tr != nil {
				tr.Span(tid, "attempt", "II="+strconv.Itoa(ctx.II), start,
					telemetry.Arg{Key: "outcome", Val: "cancelled"})
			}
			return err
		}
		passStart := tr.Now()
		err := p.Run(ctx)
		if tr != nil {
			tr.Span(tid, "pass", p.Name(), passStart)
		}
		if err != nil {
			return err
		}
		if ctx.failed {
			break
		}
	}
	if tr == nil {
		return nil
	}
	name := "II=" + strconv.Itoa(ctx.II)
	if cause, failed := ctx.Failed(); failed {
		tr.Span(tid, "attempt", name, start,
			telemetry.Arg{Key: "outcome", Val: "fail"},
			telemetry.Arg{Key: "cause", Val: cause.String()})
	} else {
		tr.Span(tid, "attempt", name, start,
			telemetry.Arg{Key: "outcome", Val: "accept"})
	}
	return nil
}
