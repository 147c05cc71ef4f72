package pipeline

// The II search: the paper's Fig. 2 driver loop, once. Starting at II = MII
// the search runs the strategy's pass chain over a frontier Context that
// lives for the whole compilation; a failed attempt is tallied by cause and
// the next attempt refines the partition the last one left in
// Context.Assign. Two accelerations ride on that loop, and neither may
// change any observable output:
//
//   - Skip-ahead (skipahead.go): after a failure whose successors are
//     provably identical failures, the search tallies them and jumps.
//
//   - Speculation: attempts depend on each other through exactly one piece
//     of state, Context.Assign. A lane racing interval y ahead of the
//     frontier can therefore reconstruct the assignment the sequential
//     search would have carried into y by replaying only the refinement
//     steps of the presumed-failed intervals below y (attemptReplayer),
//     without scheduling any of them. With SearchConfig.Lanes > 1 each
//     round launches up to Lanes−1 such lanes above the frontier's
//     interval, seeded from a snapshot of the frontier's assignment, and
//     runs the frontier's own attempt on the calling goroutine.
//
// Outcomes are decided strictly in II order — the frontier, then the lanes
// — so every decided attempt is exactly the one the sequential search would
// have made next: a failure is tallied (and its skip-ahead applied; lanes
// inside the skipped range are discarded as provably identical failures),
// the first success wins and higher lanes are cancelled. A decided lane's
// Context is adopted into the frontier, so the tally, the skip-ahead and
// the Result assembly exist once, and after an all-fail round the frontier
// carries the last confirmed failure's assignment into the next. Lanes ≤ 1
// is the same round with no extra lanes: it allocates no lane state at all.
//
// The seed assignment is only ever shared read-only (the frontier partitions
// once per round, refinement writes the arena's other assignment slot, and
// placements copy the cluster slice), so lanes never observe each other. A
// lane's arena goes back to the pool with its goroutine: the Context it
// publishes keeps its assignment by heap copy and no placement (an accepted
// schedule carries its own). Results are bit-identical to the naive
// one-attempt-per-interval search — search_parity_test.go pins this against
// referenceSearch across suites, configs, strategies, lane counts, traced
// and untraced.
//
// Speculation and tracing are execution details: they change neither
// Options nor any cache identity (driver.JobKey), so cached and remote
// results are shared across speculation widths.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/telemetry"
)

// SearchConfig carries everything about one Search that is not part of the
// job's identity. The zero value is the plain search on a fresh arena.
type SearchConfig struct {
	// Arena is the caller-owned scratch arena the frontier's attempts run
	// on (see Arena); nil allocates a fresh one.
	Arena *Arena
	// Trace, when non-nil, records one span per executed pass and per II
	// attempt (plus skip-ahead and lane markers) on the track named Track
	// ("compile" when empty); extra lane j records on "<track> spec+j", so
	// a race renders as parallel lanes in the trace viewer. Tracing changes
	// no observable behavior and costs nothing when off.
	Trace *telemetry.Trace
	Track string
	// Lanes is the maximum number of candidate intervals raced per round,
	// including the frontier's; ≤ 1 — or a strategy that cannot replay a
	// failed attempt — searches sequentially.
	Lanes int
	// Pool gates and supplies the extra lanes; nil always admits, on fresh
	// arenas.
	Pool Pool
	// Stats, when non-nil, tallies lane outcomes (the driver aggregates one
	// LaneStats across all its jobs).
	Stats *LaneStats
}

// Pool lends scratch arenas to extra lanes against a global concurrency
// budget, so speculation inside many concurrent compilations cannot
// oversubscribe the machine. Candidate intervals must stay contiguous, so a
// denied Acquire stops the round from widening (degrading toward the
// sequential search). Every acquired arena is released before Search
// returns.
type Pool interface {
	Acquire() (*Arena, bool)
	Release(*Arena)
}

// LaneStats tallies speculative-lane outcomes with atomic counters shared
// across concurrent searches. Raced counts extra lanes launched beyond
// the sequential frontier lane; Won counts raced lanes whose accepted II
// became the result; Wasted counts raced lanes whose work was thrown away
// (cancelled after a lower interval succeeded, or discarded because
// skip-ahead proved their interval without them). Raced − Won − Wasted
// lanes did useful confirmed-failure work the sequential search would
// have performed anyway.
type LaneStats struct {
	Raced, Won, Wasted atomic.Uint64
}

// attemptReplayer is the optional strategy capability gating speculation.
// ReplayFailedAttempt reproduces exactly the cross-attempt state evolution
// of one failed II attempt — for the paper chain, the partition-refinement
// step — without running the rest of the chain, so a lane can reconstruct
// the refinement lineage of the intervals it leapfrogs. Strategies without
// the capability always search sequentially.
type attemptReplayer interface {
	ReplayFailedAttempt(ctx *Context)
}

// replayPartitionStep is the lineage replay of the partition-based chains
// (paper, unified): the PartitionPass assignment step alone — initial
// partition on the first attempt, refinement of the carried assignment
// afterwards — with the placement and communication bookkeeping omitted
// (it is per-attempt state the real attempt rebuilds).
func replayPartitionStep(ctx *Context) {
	sc := ctx.arena.Part
	if ctx.Assign == nil {
		ctx.Assign = partition.InitialScratch(ctx.Graph, ctx.Machine, ctx.II, sc)
	} else {
		ctx.Assign = partition.RefineScratch(ctx.Graph, ctx.Machine, ctx.II, ctx.Assign, sc)
	}
}

// Search compiles one loop under the strategy opts.Strategy selects: it
// resolves and validates the strategy, applies its machine rewrite, and
// drives its pass chain through the II search configured by cfg. The
// context is checked before every attempt and between passes; an abandoned
// compilation returns ctx.Err() unwrapped and no partial Result.
func Search(cctx context.Context, g *ddg.Graph, m machine.Config, opts Options, cfg SearchConfig) (*Result, error) {
	s, m, err := resolveStrategy(opts, m)
	if err != nil {
		return nil, err
	}
	sa, ok := s.(skipAheadCapable)
	rep, _ := s.(attemptReplayer)
	return search(cctx, g, m, opts, s.Chain(), rep, ok && sa.SkipAhead(), cfg)
}

// search drives an explicit pass chain through the II search. Each attempt
// resets the per-attempt context state and runs the chain; the chain must
// leave Schedule and Placement set on success. rep == nil disables
// speculation, skip == false the skip-ahead.
func search(cctx context.Context, g *ddg.Graph, m machine.Config, opts Options, passes []Pass, rep attemptReplayer, skip bool, cfg SearchConfig) (*Result, error) {
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
	defer func() { *front = Context{} }()
	for ii := res.MII; ii <= maxII; {
		if err := cctx.Err(); err != nil {
			return nil, err
		}
		var lanes *round
		if width := min(cfg.Lanes-1, maxII-ii); width > 0 && rep != nil {
			lanes = launch(cctx, front, ii, width, passes, rep, cfg, track)
		}
		front.reset(ii)
		err := attempt(cctx, front, passes, tr, tid)
		// Decide in II order. front holds the attempt being decided — the
		// frontier's own, then each adopted lane's — and at is its track.
		at := tid
		for err == nil && front.failed {
			cause := front.failCause
			res.IIIncreases[cause]++
			ii++
			if skip {
				// Every interval in [ii, next) is proven to fail exactly as
				// this one did; tally those failures and jump. The tallied
				// range is capped at maxII, matching the last attempt the
				// one-by-one search makes before it gives up.
				if next := front.skipTarget(); next > ii {
					skipped := min(next, maxII+1) - ii
					res.IIIncreases[cause] += skipped
					if tr != nil {
						tr.Instant(at, "search", "skip-ahead",
							telemetry.Arg{Key: "from", Val: ii},
							telemetry.Arg{Key: "to", Val: ii + skipped})
					}
					ii += skipped
				}
			}
			ln := lanes.next(ii)
			if ln == nil {
				break // round exhausted: the frontier attempts ii itself
			}
			if err = ln.err; err == nil {
				front.adopt(ln.ctx)
				at = ln.tid
			}
		}
		lanes.finish()
		if err != nil {
			return nil, err
		}
		if front.failed {
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

// adopt makes a decided lane's attempt the frontier's: every field but the
// frontier's own arena and its cached skip-ahead threshold.
func (c *Context) adopt(from *Context) {
	arena, w := c.arena, c.wStableII
	*c = *from
	c.arena, c.wStableII = arena, w
}

// lane is one speculative attempt of a round. ctx and err are written by
// the lane's goroutine and published by closing done; cancel aborts the
// lane between passes.
type lane struct {
	ii, tid int
	ctx     *Context
	err     error
	done    chan struct{}
	cancel  context.CancelFunc
}

// round is the extra lanes of one search round, in II order.
type round struct {
	lanes   []*lane
	decided int // lanes[:decided] have been decided or discarded
	wg      sync.WaitGroup
	tr      *telemetry.Trace
	stats   *LaneStats
}

// launch starts up to width lanes at ii+1, ii+2, … on their own goroutines
// and pooled arenas, and returns nil when none was admitted. The lanes seed
// from a snapshot of the frontier taken here, before its attempt at ii
// runs: each replays the lineage from ii up to its own interval. It is a
// separate function so the plain search pays for none of its state.
func launch(cctx context.Context, front *Context, ii, width int, passes []Pass, rep attemptReplayer, cfg SearchConfig, track string) *round {
	r := &round{tr: cfg.Trace, stats: cfg.Stats}
	seed := front.Assign
	for j := 1; j <= width; j++ {
		var arena *Arena
		if cfg.Pool != nil {
			a, ok := cfg.Pool.Acquire()
			if !ok {
				break // budget exhausted; candidates must stay contiguous
			}
			arena = a
		}
		lctx, cancel := context.WithCancel(cctx)
		ln := &lane{ii: ii + j, done: make(chan struct{}), cancel: cancel}
		if r.tr != nil {
			ln.tid = r.tr.Track(track + " spec+" + strconv.Itoa(j))
		}
		ln.ctx = &Context{Graph: front.Graph, Machine: front.Machine, Opts: front.Opts,
			MII: front.MII, Assign: seed, arena: arena.filled()}
		r.lanes = append(r.lanes, ln)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ln.err = ln.run(lctx, ii, passes, rep, r.tr)
			// What the attempt left in the arena is released with it. A
			// lane that never reassigned still holds the seed, which is the
			// frontier's to keep alive.
			if a := ln.ctx.Assign; ln.err == nil && a != seed {
				ln.ctx.Assign = a.Clone()
			}
			ln.ctx.Placement = nil
			close(ln.done)
			if cfg.Pool != nil {
				cfg.Pool.Release(arena)
			}
		}()
	}
	if len(r.lanes) == 0 {
		return nil
	}
	if r.stats != nil {
		r.stats.Raced.Add(uint64(len(r.lanes)))
	}
	return r
}

// run replays the refinement lineage of the presumed-failed intervals
// [from, ln.ii) and then makes the real attempt at ln.ii. Cancellation is
// checked between lineage steps and between passes, so a cancelled lane
// stops within one pass.
func (ln *lane) run(cctx context.Context, from int, passes []Pass, rep attemptReplayer, tr *telemetry.Trace) error {
	start := tr.Now()
	for ii := from; ii < ln.ii; ii++ {
		if err := cctx.Err(); err != nil {
			return err
		}
		ln.ctx.reset(ii)
		rep.ReplayFailedAttempt(ln.ctx)
	}
	if tr != nil {
		tr.Span(ln.tid, "lane", "replay", start,
			telemetry.Arg{Key: "from", Val: from},
			telemetry.Arg{Key: "to", Val: ln.ii - 1})
	}
	ln.ctx.reset(ln.ii)
	return attempt(cctx, ln.ctx, passes, tr, ln.tid)
}

// next returns the lane at interval ii once it has finished, or nil when
// the round has none (r may be nil). Lanes below ii are discarded on the
// way: skip-ahead already proved and tallied their intervals, so they are
// stopped, not awaited.
func (r *round) next(ii int) *lane {
	if r == nil {
		return nil
	}
	for r.decided < len(r.lanes) {
		ln := r.lanes[r.decided]
		r.decided++
		if ln.ii < ii {
			ln.cancel()
			if r.stats != nil {
				r.stats.Wasted.Add(1)
			}
			if r.tr != nil {
				r.tr.Instant(ln.tid, "lane", "discarded", telemetry.Arg{Key: "ii", Val: ln.ii})
			}
			continue
		}
		<-ln.done
		if ln.err == nil && !ln.ctx.failed {
			if r.stats != nil {
				r.stats.Won.Add(1)
			}
			if r.tr != nil {
				r.tr.Instant(ln.tid, "lane", "won", telemetry.Arg{Key: "ii", Val: ln.ii})
			}
		}
		return ln
	}
	return nil
}

// finish stops the lanes left undecided — a lower interval won or erred, so
// their work is wasted — and joins every goroutine of the round: arenas are
// back in the pool and nothing outlives the search (r may be nil).
func (r *round) finish() {
	if r == nil {
		return
	}
	if r.stats != nil {
		r.stats.Wasted.Add(uint64(len(r.lanes) - r.decided))
	}
	for _, ln := range r.lanes {
		ln.cancel()
	}
	r.wg.Wait()
}
