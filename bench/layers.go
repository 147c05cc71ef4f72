package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"clusched/internal/corpus/validate"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/pipeline"
	"clusched/internal/replic"
	"clusched/internal/sched"
	"clusched/internal/service"
	"clusched/internal/vliwsim"
	"clusched/internal/wire"
)

// replayer calls the layers' exported functions directly, from outside,
// on inputs a workload produced, and records one span per call. It reuses
// one pipeline.Arena the way an engine worker does; without it the
// remainders (driver self, pipeline self) would be dominated by
// allocation the real path never performs.
//
// A replay must meet its job as cold, or as hot, as the call it stands
// for did. Replayed right after the call it is subtracted from, a
// compilation finds the graph, the tables and the branch history hot and
// runs ~10% faster than the original, and that difference lands in the
// outer layer's self time; replayed a whole window later, it runs in
// other weather (another GC phase, another neighbour on the host). So the
// onions and probes work in chunks of replayChunk jobs: all the outer
// calls of a chunk, then the inner layer over the same chunk — a few MB of
// other jobs' data apart, a few milliseconds apart. What runs back to back
// on one job inside the program (the passes of one attempt, the steps of
// a remap, the simulation of a schedule just compiled) is replayed back
// to back too.
type replayer struct {
	t     *tracer
	ctx   context.Context
	arena *pipeline.Arena
	// mismatches counts accepted-attempt replays that failed to reproduce
	// a schedule at the accepted II; reported, never hidden.
	mismatches int
	clones     int64
}

const replayChunk = 64

func newReplayer(t *tracer) *replayer {
	return &replayer{t: t, ctx: context.Background(), arena: pipeline.NewArena()}
}

// item is one job on its way down the layers: the index all its spans
// share, the span its next replay hangs under, and the result the call
// above returned.
type item struct {
	id     int
	job    driver.Job
	parent int
	res    *pipeline.Result
}

// each runs f once per item, each run inside a span under the item's
// parent, and returns the items re-parented to those spans.
func (r *replayer) each(items []item, layer, name string, f func(i int, it *item)) []item {
	out := slices.Clone(items)
	for i := range out {
		it := &out[i]
		it.parent = r.t.call(layer, name, it.parent, it.id, func() { f(i, it) })
	}
	return out
}

// compile replays the whole II search of every item and returns, for the
// paper strategy, the items whose passes can be replayed under it. What
// is left of a compile span after those children is the search itself:
// failed attempts, intermediate refinements, bookkeeping.
func (r *replayer) compile(items []item) (paper []item) {
	for _, it := range items {
		j, name := it.job, "pipeline.compile"
		if j.Opts.StrategyName() != pipeline.DefaultStrategy {
			name += "." + j.Opts.StrategyName()
		}
		var res *pipeline.Result
		id := r.t.call("pipeline", name, it.parent, it.id, func() {
			res, _ = pipeline.CompileContextArena(r.ctx, j.Graph, j.Machine, j.Opts, r.arena)
		})
		if res != nil && name == "pipeline.compile" {
			paper = append(paper, item{it.id, j, id, res})
		}
	}
	return paper
}

// passes replays what the search did on its way to the accepted schedule:
// the MII bound, the initial partition at MII, the refinement at the
// accepted II when the first attempt failed, and — on the accepted
// placement's own home clusters, so the work is the accepted attempt's —
// placement, replication, scheduling and verification. They run back to
// back on one job, as they do inside the search.
func (r *replayer) passes(items []item) {
	for _, it := range items {
		r.passesOf(it)
	}
}

func (r *replayer) passesOf(it item) {
	j, res, parent, job, t := it.job, it.res, it.parent, it.id, r.t
	g, m, ii := j.Graph, j.Machine, res.II
	t.call("mii", "mii.mii", parent, job, func() { mii.MIIScratch(g, m, r.arena.MII) })
	var a *partition.Assignment
	t.call("partition", "partition.initial", parent, job, func() { a = partition.InitialScratch(g, m, res.MII, r.arena.Part) })
	if ii > res.MII {
		t.call("partition", "partition.refine", parent, job, func() { partition.RefineScratch(g, m, ii, a, r.arena.Part) })
	}
	home := &partition.Assignment{Cluster: res.Placement.Home, K: res.Placement.K}
	var p *sched.Placement
	t.call("sched", "sched.placement", parent, job, func() { p = sched.NewPlacement(g, home) })
	if j.Opts.Replicate && m.Clustered() && p.Comms() > m.BusComs(ii) {
		t.call("replic", "replic.run", parent, job, func() { replic.RunScratch(p, m, ii, r.arena.Repl) })
	}
	var s *sched.Schedule
	opts := sched.Options{SkipRegisterCheck: j.Opts.IgnoreRegisterPressure}
	t.call("sched", "sched.schedule", parent, job, func() {
		s, _ = sched.ScheduleLoopScratch(p, m, ii, j.Opts.ZeroBusLatency, opts, r.arena.Sched)
	})
	if s == nil {
		r.mismatches++
		return
	}
	t.call("sched", "sched.verify", parent, job, func() { sched.Verify(s) })
}

// remap replays the semantic-hit path for one item: canonical labeling of
// a fresh presentation of its loop, then the transplant of its (cached)
// result onto it, with the re-proof (sched.Adopt) the transplant ends in
// as its child — back to back, as inside one Compile.
func (r *replayer) remap(it item) {
	r.clones++
	clone := ddg.PermuteRandom(it.job.Graph, it.job.Graph.Name+"#replay", r.clones)
	it.res.Loop.CanonicalForm() // memoized on every graph an engine has cached
	r.t.call("ddg", "ddg.canonical", it.parent, it.id, func() { clone.CanonicalForm() })
	var out *pipeline.Result
	id := r.t.call("pipeline", "pipeline.remap", it.parent, it.id, func() { out, _ = pipeline.RemapResult(it.res, clone, it.job.Opts) })
	if out != nil {
		r.adopt([]item{{it.id, it.job, id, out}})
	}
}

func (r *replayer) adopt(items []item) {
	r.each(items, "sched", "sched.adopt", func(_ int, it *item) {
		s := it.res.Schedule
		sched.Adopt(s.IG, s.II, s.Time, sched.Options{SkipRegisterCheck: it.job.Opts.IgnoreRegisterPressure})
	})
}

// wire replays the four codec steps a remote job pays — each including
// its JSON step — with the DDG text work and the decode-side schedule
// re-proof as children. It returns the items as the server decodes them
// (fresh, unmemoized graphs) and the total job and outcome bytes.
func (r *replayer) wire(items []item) (decoded []item, jobBytes, outcomeBytes int) {
	n := len(items)
	jobs, blobs := make([]wire.Job, n), make([][]byte, n)
	enc := r.each(items, "wire", "wire.encode_job", func(i int, it *item) {
		jobs[i], _ = wire.EncodeJob(it.job)
		blobs[i], _ = json.Marshal(jobs[i])
	})
	r.each(enc, "ddg", "ddg.marshal", func(_ int, it *item) { ddg.MarshalText(it.job.Graph) })
	decoded = slices.Clone(items)
	dec := r.each(items, "wire", "wire.decode_job", func(i int, _ *item) {
		var in wire.Job
		json.Unmarshal(blobs[i], &in)
		decoded[i].job, _ = in.Decode()
	})
	r.each(dec, "ddg", "ddg.parse", func(i int, _ *item) { ddg.ParseOne(strings.NewReader(jobs[i].Loop)) })

	outs, oblobs := make([]wire.Outcome, n), make([][]byte, n)
	enc = r.each(items, "wire", "wire.encode_outcome", func(i int, it *item) {
		outs[i], _ = wire.EncodeOutcome(driver.Outcome{Job: it.job, Result: it.res})
		oblobs[i], _ = json.Marshal(outs[i])
	})
	r.each(enc, "ddg", "ddg.marshal", func(_ int, it *item) { ddg.MarshalText(it.res.Loop) })
	dec = r.each(items, "wire", "wire.decode_outcome", func(i int, _ *item) {
		var in wire.Outcome
		json.Unmarshal(oblobs[i], &in)
		in.Decode()
	})
	r.each(dec, "ddg", "ddg.parse", func(i int, _ *item) { ddg.ParseOne(strings.NewReader(outs[i].Result.Loop)) })
	r.adopt(dec)
	for i := range items {
		jobBytes += len(blobs[i])
		outcomeBytes += len(oblobs[i])
	}
	return decoded, jobBytes, outcomeBytes
}

// ticket submits jobs to an in-process server as one ticket and watches
// it to completion; first is the delay to the first completion event.
func (r *replayer) ticket(name string, parent, job int, srv *service.Server, jobs []driver.Job) (id int, first time.Duration) {
	id = r.t.call("service", name, parent, job, func() {
		t0 := time.Now()
		tk, err := srv.Submit(jobs, service.SubmitOptions{})
		if err != nil {
			panic(fmt.Sprintf("bench: in-process submit: %v", err)) // one ticket at a time never fills the queue
		}
		events, _ := srv.Watch(r.ctx, tk)
		for range events {
			if first == 0 {
				first = time.Since(t0)
			}
		}
	})
	return id, first
}

// simulateIters is how many loop iterations corpus-sim simulates.
const simulateIters = validate.DefaultIters

// simulate replays the simulator under one validate.Schedule span: the
// measurement, then one execution and one reference evaluation under that
// (Measure executes twice, at two lengths, to difference the completion
// cycles; the second execution stays in its self time).
func (r *replayer) simulate(validated item) {
	s, id := validated.res.Schedule, validated.id
	measure := r.t.call("vliwsim", "vliwsim.measure", validated.parent, id, func() { vliwsim.Measure(s, simulateIters) })
	r.t.call("vliwsim", "vliwsim.execute", measure, id, func() { vliwsim.Execute(s, simulateIters) })
	r.t.call("vliwsim", "vliwsim.reference", measure, id, func() { vliwsim.Reference(validated.res.Loop, simulateIters) })
}

// validateSchedule is corpus-sim's check of one compiled schedule, as the
// workload itself calls it.
func validateSchedule(j driver.Job, res *pipeline.Result, index int) *validate.Divergence {
	return validate.Schedule(res, j.Opts.StrategyName(), j.Opts, index, 0, simulateIters)
}

// class names the cache outcome of one Compile from the engine's counter
// deltas around it. An engine with caching off moves no counter: every
// job is a compilation.
func (d cacheCounts) class() string {
	switch {
	case d.exact > 0:
		return "exact_hit"
	case d.semantic > 0:
		return "semantic_hit"
	}
	return "miss"
}

// replayOutcome hangs the inner replay of one engine answer under its
// driver span — the whole compilation for a miss, the remap for a
// semantic hit, nothing for an exact hit (the lookup is all driver) — and
// returns what compile returns.
func (r *replayer) replayOutcome(it item, class string) (paper []item) {
	switch class {
	case "miss":
		return r.compile([]item{it})
	case "semantic_hit":
		r.remap(it)
	}
	return nil
}
