package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"clusched"
	"clusched/internal/cluster"
	"clusched/internal/corpus"
	"clusched/internal/corpus/validate"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/mii"
	"clusched/internal/pipeline"
	"clusched/internal/service"
)

// ledgerGate is the largest |ledger.residual_frac| a workload whose
// ledger must close (suite-cold) may show: a ledger further than this
// from what a caller waits means the replay itself has stopped being a
// faithful copy of the work.
const ledgerGate = 0.15

// ledgerOpenError reports a ledger that had to close and did not.
type ledgerOpenError struct{ led *ledger }

func (e *ledgerOpenError) Error() string {
	return fmt.Sprintf("ledger does not close: layer self times sum to %.2f us/loop, a caller waits %.2f us/loop (residual %.3f, gate %.2f)",
		e.led.SumUs, e.led.EndToEndUs, e.led.ResidualFrac, ledgerGate)
}

// runTraced is the traced run of one workload. After the normal set-up it
// walks two windows chunk by chunk, alternating: one chunk as an onion —
// every outermost call in a span, the inner layers replayed under it —
// the next one plain and timed, the reference for the ledger's residual
// and the tracing overhead. The roles swap in the second window, so on
// the workloads that repeat their jobs both sides see every job; and
// because the two sides are never more than a chunk apart in time, a
// neighbour on the host slows both or neither. Then come the probes that
// produce the per-layer metrics. tracePath != "" also writes the spans as
// a Chrome trace.
func runTraced(w workloadDef, cfg config, tracePath string) (record, error) {
	in := w.setup(cfg)
	defer in.close()

	t := newTracer()
	r := newReplayer(t)
	cacheBefore := in.cacheCounts()
	var fleetBefore fleetCounts
	if in.fleet != nil {
		fleetBefore = in.fleet.counts()
	}
	trace, done := in.onion(in, r)
	var tl, plain tally
	var waited time.Duration
	var lat []int64
	for pass := 0; pass < 2; pass++ {
		in.gate.window = min(pass, in.windows-1)
		for c, chunk := range in.gen(in.gate.window).chunks() {
			if c%2 == pass {
				tl.add(trace(chunk))
				continue
			}
			lat = slices.Grow(lat[:0], len(chunk.jobs))[:len(chunk.jobs)]
			wall, u := in.exec(chunk, lat, func(i int, res *pipeline.Result, err error) bool { return in.gate.cheap(chunk, i, res, err) })
			waited += time.Duration(in.callers) * wall
			plain.add(u)
		}
	}
	done()
	cache := in.cacheCounts().sub(cacheBefore)
	untracedUs := float64(waited.Nanoseconds()) / 1e3 / float64(max(1, plain.succeeded))

	led := t.newLedger(max(1, tl.succeeded), untracedUs)

	t.probe = true
	p := &prober{in: in, r: r, vals: map[string]float64{}}
	p.run(in.gen(0))
	if in.fleet != nil {
		p.fleetFracs(in.fleet.counts().sub(fleetBefore))
	}
	lookups := float64(max(1, cache.exact+cache.semantic+cache.miss))
	p.vals["driver.exact_hit_frac"] = float64(cache.exact) / lookups
	p.vals["driver.semantic_hit_frac"] = float64(cache.semantic) / lookups
	p.vals["driver.miss_frac"] = 1 - float64(cache.exact+cache.semantic)/lookups
	p.vals["ledger.residual_frac"] = led.ResidualFrac
	// Self times telescope to the traced outermost calls' time.
	p.vals["ledger.trace_overhead_frac"] = (led.SumUs - untracedUs) / untracedUs

	rec := record{
		Workload: w.name, Traced: true, Correct: in.gate.failed == 0 && tl.succeeded > 0,
		Attempted: tl.attempted, Succeeded: tl.succeeded, Failed: tl.attempted - tl.succeeded,
		Metrics: map[string]metric{}, Ledger: led, Failures: in.gate.failures,
	}
	for _, d := range perLayer {
		v, ok := p.vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, fmt.Errorf("%s: per-layer metric %s was not measured (%v)", w.name, d.name, v)
		}
		rec.Metrics[d.name] = metric{v, d.unit}
	}
	if tracePath != "" {
		if err := t.writeChrome(tracePath); err != nil {
			return rec, err
		}
	}
	if r.mismatches > 0 {
		return rec, fmt.Errorf("%s: %d pass replays did not reproduce the accepted schedule", w.name, r.mismatches)
	}
	if in.ledgerMustClose && math.Abs(led.ResidualFrac) > ledgerGate {
		rec.Correct = false
		return rec, &ledgerOpenError{led}
	}
	return rec, nil
}

// --- onions -------------------------------------------------------------
//
// An onion traces one chunk (see replayer): the chunk's outermost calls
// first, then each inner layer over the chunk.

// onionLocal traces unary in-process chunks: the outermost call is the
// engine's Compile (then validate.Schedule on corpus-sim); what the
// engine did is read from its counters and the matching inner path
// replayed.
func onionLocal(in *instance, r *replayer) (func(*window) tally, func()) {
	return func(win *window) (tl tally) {
		var compiled, validated []item
		var classes []string
		before := in.cacheCounts()
		for i, j := range win.jobs {
			id := win.offset + i
			var res *pipeline.Result
			var err error
			root := r.t.call("driver", "driver.compile", -1, id, func() { res, err = in.backend.Compile(r.ctx, j) })
			after := in.cacheCounts()
			class := after.sub(before).class()
			before = after
			ok, vroot := in.gate.cheap(win, i, res, err), -1
			if ok && in.simulate {
				var div *validate.Divergence
				vroot = r.t.call("validate", "validate.schedule", -1, id, func() { div = validateSchedule(j, res, id) })
				if div != nil {
					in.gate.fail(id, "simulator divergence: "+div.String())
					ok = false
				}
			}
			tl.record(res, ok)
			if ok {
				compiled, classes = append(compiled, item{id, j, root, res}), append(classes, class)
				validated = append(validated, item{id, j, vroot, res})
			}
		}
		// The simulator meets a schedule that was compiled a moment ago;
		// so does its replay.
		var paper []item
		for k, it := range compiled {
			paper = append(paper, r.replayOutcome(it, classes[k])...)
			if in.simulate {
				r.simulate(validated[k])
			}
		}
		r.passes(paper)
		return tl
	}, func() {}
}

// streamBatch is the outermost level of a batch workload: the chunk's one
// Stream call inside a span, every outcome through the gate. It returns
// one item per job that came back good, under the batch's span.
func streamBatch(in *instance, r *replayer, win *window, layer, name string, tl *tally) (root int, jobs []item) {
	results := make([]*pipeline.Result, len(win.jobs))
	root = r.t.call(layer, name, -1, win.offset, func() {
		for i, out := range in.backend.(streamer).Stream(r.ctx, win.jobs) {
			ok := in.gate.cheap(win, i, out.Result, out.Err)
			tl.record(out.Result, ok)
			if ok {
				results[i] = out.Result
			}
		}
	})
	for i, res := range results {
		if res != nil {
			jobs = append(jobs, item{win.offset + i, win.jobs[i], root, res})
		}
	}
	return root, jobs
}

// onionRemote traces remote-stream: the outermost call is Client.Stream
// on one batch; under it the codec steps of every job and the same batch
// as an in-process ticket, under that the batch on a bare engine, under
// that each compilation. What remains of the outermost span is HTTP,
// NDJSON framing and client bookkeeping.
func onionRemote(in *instance, r *replayer) (func(*window) tally, func()) {
	srv := service.New(service.Config{Workers: 1, CacheSize: -1})
	eng := clusched.NewLocal(clusched.WithWorkers(1), clusched.WithCacheSize(-1))
	return func(win *window) (tl tally) {
		root, jobs := streamBatch(in, r, win, "client", "client.stream", &tl)
		decoded, _, _ := r.wire(jobs)
		batch := make([]driver.Job, len(decoded))
		for i, it := range decoded {
			batch[i] = it.job
		}
		ticket, _ := r.ticket("service.batch", root, win.offset, srv, batch)
		stream := r.t.call("driver", "driver.stream", ticket, win.offset, func() {
			for range eng.Stream(r.ctx, batch) {
			}
		})
		for i := range decoded {
			decoded[i].parent = stream
		}
		r.passes(r.compile(decoded))
		return tl
	}, func() { srv.Shutdown(r.ctx) }
}

// onionFleet traces fleet-mix: the outermost call is Cluster.Stream on one
// batch; under it every job again as a serial HTTPNode.Do against a
// single node, under that its codec steps and a one-job in-process
// ticket, under that the engine's Compile with its cache outcome
// replayed. The three inner stacks are each one server or engine with
// the fleet's total cache, warmed with the workload's own warm-up window,
// so their hit classes follow the fleet's. The cluster layer's self time
// is what routing, stealing and two nodes working at once add to — or,
// when negative, save over — dispatching the same jobs one by one.
func onionFleet(in *instance, r *replayer) (func(*window) tally, func()) {
	size := in.cacheSize * len(in.fleet.servers)
	srvB, tsB := startServer(size)
	node := cluster.NewHTTPNode(tsB.URL, tsB.Client(), time.Minute)
	srvC := service.New(service.Config{Workers: 1, CacheSize: size})
	engD := clusched.NewLocal(clusched.WithWorkers(1), clusched.WithCacheSize(size))
	warm := in.gen(-1)
	for _, j := range warm.jobs {
		node.Do(r.ctx, j)
		engD.Compile(r.ctx, j)
	}
	if tk, err := srvC.Submit(warm.jobs, service.SubmitOptions{}); err == nil {
		srvC.Wait(r.ctx, tk)
	}
	counts := engineCounts(engD)
	return func(win *window) (tl tally) {
		_, jobs := streamBatch(in, r, win, "cluster", "cluster.stream", &tl)
		sent := r.each(jobs, "client", "client.unary", func(_ int, it *item) { node.Do(r.ctx, it.job) })
		decoded, _, _ := r.wire(sent)
		for i := range decoded {
			it := &decoded[i]
			it.parent, _ = r.ticket("service.ticket", it.parent, it.id, srvC, []driver.Job{it.job})
		}
		classes := make([]string, len(decoded))
		before := counts()
		for i := range decoded {
			it := &decoded[i]
			it.parent = r.t.call("driver", "driver.compile", it.parent, it.id, func() { it.res, _ = engD.Compile(r.ctx, it.job) })
			after := counts()
			classes[i], before = after.sub(before).class(), after
		}
		var paper []item
		for i, it := range decoded {
			if it.res != nil {
				paper = append(paper, r.replayOutcome(it, classes[i])...)
			}
		}
		r.passes(paper)
		return tl
	}, func() { srvC.Shutdown(r.ctx); stopServer(srvB, tsB) }
}

// --- fleet counters -----------------------------------------------------

type fleetCounts struct {
	jobs, steals, hedges, semantic uint64
	perNode                        []uint64
}

func (f *fleet) counts() fleetCounts {
	st := f.cluster.FleetStats(context.Background())
	c := fleetCounts{jobs: st.Jobs, steals: st.Steals, hedges: st.HedgesFired, semantic: st.SemanticHits + st.SemanticStoreHits}
	for _, n := range st.Nodes {
		c.perNode = append(c.perNode, n.Jobs)
	}
	return c
}

func (a fleetCounts) sub(b fleetCounts) fleetCounts {
	d := fleetCounts{jobs: a.jobs - b.jobs, steals: a.steals - b.steals, hedges: a.hedges - b.hedges, semantic: a.semantic - b.semantic}
	for i, n := range a.perNode {
		d.perNode = append(d.perNode, n-b.perNode[i])
	}
	return d
}

// --- probes -------------------------------------------------------------

// perLayer is every per-layer metric, in BENCHMARK.json's order. Times
// are mean µs per call over the workload's probe sample unless the name
// says per_loop; counts and fractions are exact.
var perLayer = []struct{ name, unit string }{
	{"ddg.parse_us", "us"}, {"ddg.marshal_us", "us"}, {"ddg.fingerprint_us", "us"}, {"ddg.shapehash_us", "us"}, {"ddg.canonical_us", "us"},
	{"mii.mii_us", "us"},
	{"partition.initial_us", "us"}, {"partition.refine_us", "us"}, {"partition.comms_per_loop", "count"},
	{"replic.run_us", "us"}, {"replic.applied_frac", "ratio"}, {"replic.comms_removed_frac", "ratio"}, {"replic.added_instr_pct", "%"},
	{"sched.schedule_us", "us"}, {"sched.verify_us", "us"}, {"sched.adopt_us", "us"},
	{"pipeline.compile_us", "us"}, {"pipeline.compile_us.uas", "us"}, {"pipeline.compile_us.moddist", "us"}, {"pipeline.compile_us.unified", "us"},
	{"pipeline.self_us", "us"}, {"pipeline.attempts_per_loop", "count"}, {"pipeline.first_try_frac", "ratio"}, {"pipeline.remap_us", "us"},
	{"driver.self_us", "us"}, {"driver.jobkey_us", "us"}, {"driver.exact_hit_us", "us"}, {"driver.semantic_hit_us", "us"}, {"driver.miss_us", "us"},
	{"driver.exact_hit_frac", "ratio"}, {"driver.semantic_hit_frac", "ratio"}, {"driver.miss_frac", "ratio"},
	{"driver.bytes_per_entry", "bytes"}, {"driver.pool_speedup", "ratio"}, {"driver.spec_speedup", "ratio"},
	{"wire.encode_job_us", "us"}, {"wire.decode_job_us", "us"}, {"wire.encode_outcome_us", "us"}, {"wire.decode_outcome_us", "us"},
	{"wire.job_bytes", "bytes"}, {"wire.outcome_bytes", "bytes"},
	{"service.ticket_us", "us"}, {"service.batch_us_per_loop", "us"}, {"service.first_event_ms", "ms"},
	{"client.unary_us", "us"}, {"client.stream_us_per_loop", "us"}, {"client.transport_self_us", "us"}, {"client.first_result_ms", "ms"},
	{"cluster.self_us", "us"}, {"cluster.steal_frac", "ratio"}, {"cluster.node_share_max", "ratio"}, {"cluster.semantic_hit_frac", "ratio"}, {"cluster.hedges_fired", "count"},
	{"vliwsim.execute_us", "us"}, {"vliwsim.reference_us", "us"}, {"vliwsim.measure_us", "us"}, {"vliwsim.ops_per_loop", "count"}, {"vliwsim.ns_per_op", "ns"},
	{"validate.schedule_us", "us"}, {"corpus.loop_us", "us"}, {"corpus.nodes_mean", "count"}, {"corpus.edges_mean", "count"},
	{"ledger.residual_frac", "ratio"}, {"ledger.trace_overhead_frac", "ratio"},
}

// probeBatch is the program-sized batch the service, client and cluster
// probes use (the suite's programs average 68 loops).
const probeBatch = 68

// prober measures every per-layer metric on the workload's own inputs: a
// sample of the distinct (loop, machine) pairs of the traced window, each
// compiled with the paper strategy, plus the rival strategies on the same
// pairs.
type prober struct {
	in   *instance
	r    *replayer
	vals map[string]float64

	jobs []driver.Job
	// top is the sample as parentless items carrying their paper-strategy
	// results (loops that did not compile are left out).
	top []item
}

func (p *prober) run(win *window) {
	type pair struct {
		g *ddg.Graph
		m string
	}
	limit := min(1024, max(16, int(4096*p.in.cfg.scale)))
	seen := map[pair]bool{}
	for i, j := range win.jobs {
		if win.clone != nil && win.clone[i] {
			continue // probes make their own clones
		}
		if k := (pair{j.Graph, j.Machine.Name}); !seen[k] && len(p.jobs) < limit {
			seen[k] = true
			p.jobs = append(p.jobs, driver.Job{Graph: j.Graph, Machine: j.Machine, Opts: paperOpts})
		}
	}
	p.compileProbes()
	p.codecProbes()
	p.cacheProbes()
	p.concurrencyProbes()
	p.httpProbes()
	if p.in.fleet == nil {
		// The workload has no fleet of its own: stream its window through
		// a cold two-node one built like fleet-mix's.
		fl := startFleet(2, max(0, p.in.cacheSize))
		for lo := 0; lo < len(win.jobs); lo += 64 {
			for range fl.cluster.Stream(p.r.ctx, win.jobs[lo:min(lo+64, len(win.jobs))]) {
			}
		}
		p.fleetFracs(fl.counts())
		fl.close()
	}
	p.simProbes()
}

// compileProbes: a cache-off engine's Compile with the compilation
// replayed under it (driver.self, pipeline.*, the passes), then the three
// rival strategies on the same loops, bounded like corpus-sim's screen so
// an unschedulable loop costs a bounded sweep.
func (p *prober) compileProbes() {
	eng := clusched.NewLocal(clusched.WithWorkers(1), clusched.WithCacheSize(-1))
	var attempts, firstTry, comms, commsLeft, applied, added, nodes float64
	for lo := 0; lo < len(p.jobs); lo += replayChunk {
		var compiled, rivals []item
		for k := lo; k < min(lo+replayChunk, len(p.jobs)); k++ {
			j := p.jobs[k]
			var res *pipeline.Result
			id := p.r.t.call("driver", "driver.compile_off", -1, k, func() { res, _ = eng.Compile(p.r.ctx, j) })
			if res == nil {
				continue
			}
			compiled = append(compiled, item{k, j, id, res})
			p.top = append(p.top, item{k, j, -1, res})
			attempts++
			for _, c := range res.IIIncreases {
				attempts += float64(c)
			}
			if res.II == res.MII {
				firstTry++
			}
			comms += float64(res.CommsBeforeReplication)
			commsLeft += float64(res.Comms)
			if res.ReplicationSteps > 0 {
				applied++
			}
			for _, c := range res.Replicated {
				added += float64(c)
			}
			added -= float64(res.Removed)
			nodes += float64(j.Graph.NumNodes())
			for _, name := range corpusStrategies[1:] {
				o := strategyOpts(name)
				o.MaxII = mii.MII(j.Graph, j.Machine) + screenSlack
				rivals = append(rivals, item{k, driver.Job{Graph: j.Graph, Machine: j.Machine, Opts: o}, -1, nil})
			}
		}
		p.r.passes(p.r.compile(compiled))
		p.r.compile(rivals)
	}
	n := max(1, float64(len(p.top)))
	self := p.r.t.selfTimes()
	v := p.vals
	v["driver.self_us"] = p.r.t.perCall("driver.compile_off", self)
	v["pipeline.compile_us"] = p.r.t.perCall("pipeline.compile", nil)
	v["pipeline.self_us"] = p.r.t.perCall("pipeline.compile", self)
	for _, name := range corpusStrategies[1:] {
		v["pipeline.compile_us."+name] = p.r.t.perCall("pipeline.compile."+name, nil)
	}
	v["pipeline.attempts_per_loop"] = attempts / n
	v["pipeline.first_try_frac"] = firstTry / n
	v["mii.mii_us"] = p.r.t.perCall("mii.mii", nil)
	v["partition.initial_us"] = p.r.t.perCall("partition.initial", nil)
	v["partition.refine_us"] = p.r.t.perCall("partition.refine", nil)
	v["partition.comms_per_loop"] = comms / n
	v["replic.run_us"] = p.r.t.perCall("replic.run", nil)
	v["replic.applied_frac"] = applied / n
	v["replic.comms_removed_frac"] = (comms - commsLeft) / max(1, comms)
	v["replic.added_instr_pct"] = 100 * added / max(1, nodes)
	v["sched.schedule_us"] = p.r.t.perCall("sched.placement", nil) + p.r.t.perCall("sched.schedule", nil)
	v["sched.verify_us"] = p.r.t.perCall("sched.verify", nil)
}

// codecProbes: graph digests, the wire codec, remap onto a fresh clone.
func (p *prober) codecProbes() {
	var jobBytes, outcomeBytes int
	for chunk := range slices.Chunk(p.top, replayChunk) {
		p.r.each(chunk, "ddg", "ddg.fingerprint", func(_ int, it *item) { it.job.Graph.Fingerprint() })
		p.r.each(chunk, "ddg", "ddg.shapehash", func(_ int, it *item) { it.job.Graph.ShapeHash() })
		_, jb, ob := p.r.wire(chunk)
		jobBytes, outcomeBytes = jobBytes+jb, outcomeBytes+ob
		for _, it := range chunk {
			p.r.remap(it)
		}
		p.r.each(chunk, "driver", "driver.jobkey", func(_ int, it *item) { driver.JobKey(it.job) })
	}
	v := p.vals
	for _, name := range []string{"ddg.parse", "ddg.marshal", "ddg.fingerprint", "ddg.shapehash", "ddg.canonical",
		"wire.encode_job", "wire.decode_job", "wire.encode_outcome", "wire.decode_outcome",
		"sched.adopt", "pipeline.remap", "driver.jobkey"} {
		v[name+"_us"] = p.r.t.perCall(name, nil)
	}
	n := float64(max(1, len(p.top)))
	v["wire.job_bytes"], v["wire.outcome_bytes"] = float64(jobBytes)/n, float64(outcomeBytes)/n
}

// cacheProbes: a default-cache engine sees the sample three times — new
// (miss + fill), again (exact hit), and as fresh clones (semantic hit) —
// and each unary call is named for what the counters say it was. The heap
// the first pass leaves behind, per cached entry, is bytes_per_entry.
func (p *prober) cacheProbes() {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	eng := clusched.NewLocal(clusched.WithWorkers(1))
	counts := engineCounts(eng)
	pass := func(jobs []driver.Job) {
		before := counts()
		for k, j := range jobs {
			id := p.r.t.call("driver", "", -1, k, func() { eng.Compile(p.r.ctx, j) })
			after := counts()
			p.r.t.spans[id].name, before = "driver."+after.sub(before).class(), after
		}
	}
	pass(p.jobs)
	p.vals["driver.bytes_per_entry"] = float64(int64(heap())-int64(h0)) / float64(max(1, eng.CacheStats().Entries))
	pass(p.jobs)
	clones := make([]driver.Job, len(p.jobs))
	for k, j := range p.jobs {
		clones[k] = driver.Job{Graph: ddg.PermuteRandom(j.Graph, j.Graph.Name+"#probe", int64(k)+1), Machine: j.Machine, Opts: j.Opts}
	}
	pass(clones)
	for _, class := range []string{"exact_hit", "semantic_hit", "miss"} {
		p.vals["driver."+class+"_us"] = p.r.t.perCall("driver."+class, nil)
	}
}

// concurrencyProbes: the worker pool against one worker on the sample as
// a batch, and the speculative II search against the plain one on the
// sample's slowest twentieth. On one CPU both read about 1.
func (p *prober) concurrencyProbes() {
	batch := func(workers, spec int, jobs []driver.Job) float64 {
		eng := clusched.NewLocal(clusched.WithWorkers(workers), clusched.WithCacheSize(-1), clusched.WithSpeculation(spec))
		start := time.Now()
		for range eng.Stream(p.r.ctx, jobs) {
		}
		return time.Since(start).Seconds()
	}
	p.vals["driver.pool_speedup"] = batch(1, 0, p.jobs) / batch(runtime.GOMAXPROCS(0), 0, p.jobs)

	type timed struct {
		job int32
		dur int64
	}
	var all []timed
	for i := range p.r.t.spans {
		if s := &p.r.t.spans[i]; s.probe && s.name == "pipeline.compile" {
			all = append(all, timed{s.job, s.dur()})
		}
	}
	slices.SortFunc(all, func(a, b timed) int { return cmp.Compare(b.dur, a.dur) })
	var slow []driver.Job
	for _, x := range all[:max(1, len(all)/20)] {
		slow = append(slow, p.jobs[x.job])
	}
	var off, on float64
	for round := 0; round < 3; round++ {
		off += batch(1, 0, slow)
		on += batch(1, 2, slow)
	}
	p.vals["driver.spec_speedup"] = off / on
}

// httpProbes: a warm server, so every job is an exact hit and compile is
// about zero: what is timed is the ticket machinery, the HTTP client and
// the one-member cluster around it.
func (p *prober) httpProbes() {
	ctx := p.r.ctx
	srv, ts := startServer(0)
	defer stopServer(srv, ts)
	for lo := 0; lo < len(p.jobs); lo += probeBatch {
		if tk, err := srv.Submit(p.jobs[lo:min(lo+probeBatch, len(p.jobs))], service.SubmitOptions{}); err == nil {
			srv.Wait(ctx, tk)
		}
	}
	n := float64(len(p.jobs))
	batches := func(size int, f func(b int, jobs []driver.Job)) (count float64) {
		for lo := 0; lo < len(p.jobs); lo += size {
			f(lo/size, p.jobs[lo:min(lo+size, len(p.jobs))])
			count++
		}
		return count
	}
	sum := func(name string) float64 {
		us, _ := p.r.t.total(name, nil)
		return us
	}

	for k, j := range p.jobs {
		p.r.ticket("service.ticket", -1, k, srv, []driver.Job{j})
	}
	var first time.Duration
	nb := batches(probeBatch, func(b int, jobs []driver.Job) {
		_, f := p.r.ticket("service.batch", -1, b, srv, jobs)
		first += f
	})
	hit := p.vals["driver.exact_hit_us"]
	ticketRaw := p.r.t.perCall("service.ticket", nil)
	p.vals["service.ticket_us"] = ticketRaw - hit
	p.vals["service.batch_us_per_loop"] = sum("service.batch")/n - hit
	p.vals["service.first_event_ms"] = first.Seconds() * 1e3 / nb

	client := clusched.NewRemote(ts.URL, clusched.WithHTTPClient(ts.Client()))
	for k, j := range p.jobs {
		p.r.t.call("client", "client.unary", -1, k, func() { client.Compile(ctx, j) })
	}
	first = 0
	batches(probeBatch, func(b int, jobs []driver.Job) {
		p.r.t.call("client", "client.stream", -1, b, func() {
			t0 := time.Now()
			got := false
			for range client.Stream(ctx, jobs) {
				if !got {
					first += time.Since(t0)
					got = true
				}
			}
		})
	})
	p.vals["client.unary_us"] = p.r.t.perCall("client.unary", nil)
	p.vals["client.stream_us_per_loop"] = sum("client.stream") / n
	p.vals["client.first_result_ms"] = first.Seconds() * 1e3 / nb
	codec := p.vals["wire.encode_job_us"] + p.vals["wire.decode_job_us"] + p.vals["wire.encode_outcome_us"] + p.vals["wire.decode_outcome_us"]
	p.vals["client.transport_self_us"] = p.vals["client.unary_us"] - ticketRaw - codec

	// The one-member cluster against the bare node, chunk by chunk: the
	// difference of two ~400 µs exchanges only means something when both
	// were measured in the same weather.
	node := cluster.NewHTTPNode(ts.URL, ts.Client(), time.Minute)
	one, err := cluster.New(cluster.Config{Members: []cluster.Member{{Name: "n0", Node: node}}, NodeInFlight: 1, Hedge: -1, HealthInterval: -1})
	if err != nil {
		panic(err) // static misconfiguration of the harness
	}
	defer one.Close()
	batches(64, func(b int, jobs []driver.Job) {
		for k, j := range jobs {
			p.r.t.call("cluster", "cluster.node_do", -1, 64*b+k, func() { node.Do(ctx, j) })
		}
		p.r.t.call("cluster", "cluster.stream1", -1, b, func() {
			for range one.Stream(ctx, jobs) {
			}
		})
	})
	p.vals["cluster.self_us"] = sum("cluster.stream1")/n - p.r.t.perCall("cluster.node_do", nil)
}

func (p *prober) fleetFracs(c fleetCounts) {
	jobs := float64(max(1, c.jobs))
	p.vals["cluster.steal_frac"] = float64(c.steals) / jobs
	p.vals["cluster.node_share_max"] = float64(slices.Max(c.perNode)) / jobs
	p.vals["cluster.semantic_hit_frac"] = float64(c.semantic) / jobs
	p.vals["cluster.hedges_fired"] = float64(c.hedges)
}

// simProbes: the simulator on every sampled schedule, and the corpus
// generator at the sample's size.
func (p *prober) simProbes() {
	for k := range p.top {
		validated := p.r.each(p.top[k:k+1], "validate", "validate.schedule", func(_ int, it *item) { validateSchedule(it.job, it.res, it.id) })
		p.r.simulate(validated[0])
	}
	var ops, nodes, edges float64
	for _, it := range p.top {
		ops += float64(it.res.Schedule.IG.NumInstances()) * simulateIters
		nodes += float64(it.job.Graph.NumNodes())
		edges += float64(it.job.Graph.NumEdges())
	}
	n := max(1, float64(len(p.top)))
	spec := corpus.DefaultSpec()
	spec.Seed = seedFor(p.in.cfg.seed, 3)
	for k := range p.jobs {
		p.r.t.call("corpus", "corpus.loop", -1, k, func() { spec.Loop(k) })
	}
	v := p.vals
	for _, name := range []string{"vliwsim.execute", "vliwsim.reference", "vliwsim.measure", "validate.schedule", "corpus.loop"} {
		v[name+"_us"] = p.r.t.perCall(name, nil)
	}
	v["vliwsim.ops_per_loop"] = ops / n
	v["vliwsim.ns_per_op"] = v["vliwsim.execute_us"] * 1e3 * n / max(1, ops)
	v["corpus.nodes_mean"] = nodes / n
	v["corpus.edges_mean"] = edges / n
}
