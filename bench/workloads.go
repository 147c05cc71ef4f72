package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http/httptest"
	"time"

	"clusched"
	"clusched/internal/cluster"
	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/pipeline"
	"clusched/internal/service"
	"clusched/internal/workload"
)

// The five workloads. Names are final: later issues cite them. Each why is
// the reason the workload exists — which layers it loads and which it
// leaves idle — and is repeated in BENCHMARK.json and bench/README.md.
type workloadDef struct {
	name, why string
	setup     func(cfg config) *instance
}

var workloads = []workloadDef{
	{"suite-cold", "678-loop suite x 6 machines, cache off: every job a real II search; cache, wire, service, cluster, vliwsim idle", setupSuiteCold},
	{"cache-mix", "Zipf requests, 30% fresh clones, LRU half the population: exact hit, semantic remap, fill and eviction at stationary rates", setupCacheMix},
	{"remote-stream", "suite jobs as program-sized Stream batches over loopback HTTP: wire codec, DDG re-parse, tickets and NDJSON around each compile", setupRemoteStream},
	{"fleet-mix", "cache-mix traffic through a 2-node fleet: per-job POST, canonical routing, stealing; compile is a few percent of the time", setupFleetMix},
	{"corpus-sim", "corpus loops x 4 strategies, compile then simulate, 2 callers on shared engines: vliwsim, rival strategies, lock contention, write-only cache", setupCorpusSim},
}

// headlineMachine is the configuration every single-machine workload
// compiles for (the paper's headline 4-cluster, 2-bus machine).
var headlineMachine = machine.MustParse("4c2b2l64r")

// paperOpts is the paper's pipeline: multilevel partition + replication,
// with the engine's own verification pass on, as every CLI runs it.
var paperOpts = pipeline.Options{Replicate: true, VerifySchedules: true}

// strategyOpts returns the options corpus-sim compiles strategy name
// under: only the paper's chain has a replication pass.
func strategyOpts(name string) pipeline.Options {
	o := pipeline.Options{Strategy: name, VerifySchedules: true}
	if name == pipeline.DefaultStrategy {
		o.Replicate = true
	}
	return o
}

var corpusStrategies = []string{"paper", "uas", "moddist", "unified"}

// window is one timed unit of a workload: the jobs handed to the backend,
// the reference-table key of each (see gate), and — for batch workloads —
// the end offset of every Stream batch. ends == nil means unary Compile.
type window struct {
	jobs  []driver.Job
	keys  []int32
	clone []bool
	ends  []int
	// offset is the index of jobs[0] in the window this one was cut from.
	offset int
}

// chunks cuts the window into the pieces a traced run alternates between
// tracing and timing: its Stream batches, or replayChunk unary jobs.
func (w *window) chunks() []*window {
	bounds := w.ends
	for e := replayChunk; w.ends == nil && e < len(w.jobs)+replayChunk; e += replayChunk {
		bounds = append(bounds, min(e, len(w.jobs)))
	}
	var out []*window
	lo := 0
	for _, hi := range bounds {
		sub := &window{jobs: w.jobs[lo:hi], keys: w.keys[lo:hi], offset: w.offset + lo}
		if w.clone != nil {
			sub.clone = w.clone[lo:hi]
		}
		if w.ends != nil {
			sub.ends = []int{hi - lo}
		}
		out = append(out, sub)
		lo = hi
	}
	return out
}

// instance is one set-up workload: backends running, warm-up done, gate
// armed. gen is a pure function of (seed, w); it runs untimed.
type instance struct {
	cfg     config
	backend compiler
	callers int
	windows int
	// simulate makes every unary operation Compile + validate.Schedule.
	simulate bool
	gen      func(w int) *window
	gate     *gate
	// onion prepares the workload's traced pass (see traced.go): trace runs
	// one chunk as an onion, done releases what the onion started.
	onion func(in *instance, r *replayer) (trace func(chunk *window) tally, done func())
	// cacheCounts reads the exact/semantic/miss counters of every engine
	// behind the backend; fleet is non-nil for the cluster workload.
	cacheCounts func() cacheCounts
	fleet       *fleet
	// cacheSize is the per-engine LRU bound the workload runs with.
	// ledgerMustClose makes a traced run fail when the layer self times do
	// not sum to what a caller waits: only where every layer on the path is
	// directly callable.
	ledgerMustClose bool
	cacheSize       int
	closers         []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

type cacheCounts struct{ exact, semantic, miss uint64 }

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{a.exact - b.exact, a.semantic - b.semantic, a.miss - b.miss}
}

func engineCounts(engines ...*driver.Compiler) func() cacheCounts {
	return func() cacheCounts {
		var c cacheCounts
		for _, e := range engines {
			st := e.CacheStats()
			c.exact += st.Hits
			c.semantic += st.SemanticHits
			c.miss += st.Misses
		}
		return c
	}
}

func serverCounts(servers ...*service.Server) func() cacheCounts {
	return func() cacheCounts {
		var c cacheCounts
		for _, s := range servers {
			st := s.Stats().Cache
			c.exact += st.Hits
			c.semantic += st.SemanticHits
			c.miss += st.Misses
		}
		return c
	}
}

// scaled returns max(1, round(nominal*scale)).
func scaled(nominal int, scale float64) int {
	return max(1, int(math.Round(float64(nominal)*scale)))
}

// seedFor derives an independent generator seed for stream k of a run.
func seedFor(seed int64, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "clusched-bench/%d/%d", seed, k)
	return int64(h.Sum64() >> 1)
}

// suiteLoops regenerates the pinned SPECfp95 suite program by program
// (workload.SPECfp95 memoizes process-wide, which would hide generation
// from every set-up after the first). frac < 1 keeps that share of each
// program's loops, at least one.
func suiteLoops(frac float64) [][]*workload.Loop {
	var progs [][]*workload.Loop
	for _, p := range workload.Profiles() {
		ls := workload.GenerateBench(p)
		if frac < 1 {
			ls = ls[:max(1, int(float64(len(ls))*frac))]
		}
		progs = append(progs, ls)
	}
	return progs
}

// --- suite-cold ---------------------------------------------------------

func setupSuiteCold(cfg config) *instance {
	const nominalPasses = 60
	passes := scaled(nominalPasses, cfg.scale)
	var jobs []driver.Job
	for _, prog := range suiteLoops(min(1, nominalPasses*cfg.scale)) {
		for _, l := range prog {
			for _, m := range machine.PaperConfigs() {
				jobs = append(jobs, driver.Job{Graph: l.Graph, Machine: m, Opts: paperOpts})
			}
		}
	}
	// The suite is pinned; the seed decides the order it is presented in.
	win := &window{jobs: make([]driver.Job, len(jobs)), keys: make([]int32, len(jobs))}
	for i, k := range rand.New(rand.NewSource(seedFor(cfg.seed, 0))).Perm(len(jobs)) {
		win.jobs[i], win.keys[i] = jobs[k], int32(k)
	}
	eng := clusched.NewLocal(clusched.WithWorkers(1), clusched.WithCacheSize(-1))
	in := &instance{
		cfg: cfg, backend: eng, callers: 1, windows: passes, cacheSize: -1, ledgerMustClose: true,
		gen:         func(int) *window { return win },
		gate:        newGate("suite-cold", cfg.seed, len(jobs), gateExact),
		cacheCounts: engineCounts(eng),
		onion:       onionLocal,
	}
	in.warmUp(win)
	return in
}

// --- cache-mix / fleet-mix request stream -------------------------------

// mixStream is the request generator cache-mix and fleet-mix share: Zipf
// draws over a corpus population, a share of them presented as a fresh
// isomorphic clone (new name, node and edge order) that no exact key can
// match.
//
// The population is pinned, like the suite: with s = 1.1 the hottest loop
// draws one request in six and the top ten nearly half, so which loops
// those are decides the median latency and the hit cost, and a seeded
// population moved both by 15% from seed to seed. The seed drives what a
// run can average over: the draws, which requests are clones, and every
// clone's permutation.
type mixStream struct {
	seed int64
	pop  []*ddg.Graph
	zipf float64
	frac float64
}

// mixPopulationSeed pins the cache-mix / fleet-mix loop population.
const mixPopulationSeed = 20030703

func newMixStream(seed int64, n int) *mixStream {
	spec := corpus.DefaultSpec()
	spec.Seed = mixPopulationSeed
	pop := make([]*ddg.Graph, n)
	for i := range pop {
		pop[i] = spec.Loop(i)
	}
	return &mixStream{seed: seed, pop: pop, zipf: 1.1, frac: 0.30}
}

// window generates requests [w*n, (w+1)*n) of the stream; batch > 0 cuts
// them into Stream batches of that size. Window -1 is the warm-up: it
// starts with the hottest eighth of the population in rank order and
// original presentation — the loops hot enough never to be evicted, whose
// first-compiled presentation every later clone inherits its II from — so
// the cache's long-lived contents do not depend on the seed.
func (s *mixStream) window(w, n, batch int) *window {
	rng := rand.New(rand.NewSource(seedFor(s.seed, 100+w)))
	z := rand.NewZipf(rng, s.zipf, 1, uint64(len(s.pop)-1))
	win := &window{}
	add := func(k int, g *ddg.Graph, clone bool) {
		win.jobs = append(win.jobs, driver.Job{Graph: g, Machine: headlineMachine, Opts: paperOpts})
		win.keys = append(win.keys, int32(k))
		win.clone = append(win.clone, clone)
	}
	if w < 0 {
		for k, g := range s.pop[:len(s.pop)/8] {
			add(k, g, false)
		}
	}
	for i := 0; i < n; i++ {
		k := int(z.Uint64())
		g, clone := s.pop[k], rng.Float64() < s.frac
		if clone {
			g = ddg.PermuteRandom(g, fmt.Sprintf("%s#%d.%d", g.Name, w, i), rng.Int63())
		}
		add(k, g, clone)
	}
	for e := batch; batch > 0 && e < len(win.jobs)+batch; e += batch {
		win.ends = append(win.ends, min(e, len(win.jobs)))
	}
	return win
}

func setupCacheMix(cfg config) *instance {
	const nominalRequests, nominalWindow, nominalPop = 400_000, 10_000, 4096
	requests := scaled(nominalRequests, cfg.scale)
	per := min(nominalWindow, max(200, requests))
	pop := max(32, nominalPop*per/nominalWindow)
	stream := newMixStream(cfg.seed, pop)
	lru := pop / 2 // working set is 2x the LRU, so eviction stays live
	eng := clusched.NewLocal(clusched.WithWorkers(1), clusched.WithCacheSize(lru))
	in := &instance{
		cfg: cfg, backend: eng, callers: 1, windows: max(1, requests/per), cacheSize: lru,
		gen:         func(w int) *window { return stream.window(w, per, 0) },
		gate:        newGate("cache-mix", cfg.seed, pop, gateMII),
		cacheCounts: engineCounts(eng),
		onion:       onionLocal,
	}
	in.warmUp(stream.window(-1, per, 0))
	return in
}

// fleet is an in-process compilation fleet: n service instances behind
// loopback listeners and a cluster backend over them.
type fleet struct {
	servers []*service.Server
	https   []*httptest.Server
	cluster *cluster.Cluster
}

// startFleet brings up n nodes (one engine worker each, the given LRU
// bound) and a cluster over them. Members are named n0, n1, … rather than
// by their random-port URLs, so ring placement repeats run to run.
func startFleet(n, cacheSize int) *fleet {
	f := &fleet{}
	members := make([]cluster.Member, n)
	for i := range members {
		srv, ts := startServer(cacheSize)
		f.servers, f.https = append(f.servers, srv), append(f.https, ts)
		members[i] = cluster.Member{
			Name: fmt.Sprintf("n%d", i),
			Node: cluster.NewHTTPNode(ts.URL, ts.Client(), time.Minute),
		}
	}
	cl, err := cluster.New(cluster.Config{Members: members, NodeInFlight: 1, Hedge: -1, HealthInterval: -1})
	if err != nil {
		panic(err) // static misconfiguration of the harness
	}
	f.cluster = cl
	return f
}

func (f *fleet) close() {
	f.cluster.Close()
	for i := range f.servers {
		stopServer(f.servers[i], f.https[i])
	}
}

// startServer runs one service instance on a loopback listener: one
// engine worker, no disk store, no speculation.
func startServer(cacheSize int) (*service.Server, *httptest.Server) {
	srv := service.New(service.Config{Workers: 1, CacheSize: cacheSize})
	return srv, httptest.NewServer(srv.Handler())
}

func stopServer(srv *service.Server, ts *httptest.Server) {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx) // drained already: every batch was consumed
}

func setupFleetMix(cfg config) *instance {
	const nominalRequests, nominalWindow, nominalPop, batch = 64_000, 4096, 4096, 64
	requests := scaled(nominalRequests, cfg.scale)
	per := min(nominalWindow, max(2*batch, requests/batch*batch))
	pop := max(32, nominalPop*per/nominalWindow)
	stream := newMixStream(cfg.seed, pop)
	lru := pop / 4 // two nodes, so the fleet holds half the population
	fl := startFleet(2, lru)
	in := &instance{
		cfg: cfg, backend: fl.cluster, callers: 1, windows: max(1, requests/per), cacheSize: lru,
		gen:         func(w int) *window { return stream.window(w, per, batch) },
		gate:        newGate("fleet-mix", cfg.seed, pop, gateMII),
		cacheCounts: serverCounts(fl.servers...),
		fleet:       fl,
		onion:       onionFleet,
		closers:     []func(){fl.close},
	}
	in.gate.requireLocal(true)
	in.warmUp(stream.window(-1, per, batch))
	return in
}

// --- remote-stream ------------------------------------------------------

func setupRemoteStream(cfg config) *instance {
	const nominalPasses = 100
	passes := scaled(nominalPasses, cfg.scale)
	progs := suiteLoops(min(1, nominalPasses*cfg.scale))
	// One Stream batch per SPECfp95 program. The seed orders the programs;
	// the loops inside a batch keep suite order, because a batch's slowest
	// latencies are its last few jobs' and shuffling which jobs those are
	// moved the p99 by 15% from seed to seed.
	pass := &window{}
	key := int32(0)
	base := make([]int32, len(progs))
	for p, prog := range progs {
		base[p] = key
		key += int32(len(prog))
	}
	for _, p := range rand.New(rand.NewSource(seedFor(cfg.seed, 0))).Perm(len(progs)) {
		for k, l := range progs[p] {
			pass.jobs = append(pass.jobs, driver.Job{Graph: l.Graph, Machine: headlineMachine, Opts: paperOpts})
			pass.keys = append(pass.keys, base[p]+int32(k))
		}
		pass.ends = append(pass.ends, len(pass.jobs))
	}
	// A window is five passes: 3390 latency samples, and enough instances
	// of the largest batch that the window's p99 does not hinge on whether
	// one of them met a GC cycle.
	per := min(5, passes)
	win := &window{}
	for r := 0; r < per; r++ {
		for _, e := range pass.ends {
			win.ends = append(win.ends, r*len(pass.jobs)+e)
		}
		win.jobs = append(win.jobs, pass.jobs...)
		win.keys = append(win.keys, pass.keys...)
	}
	srv, ts := startServer(-1)
	in := &instance{
		cfg: cfg, callers: 1, windows: max(1, passes/per), cacheSize: -1,
		backend:     clusched.NewRemote(ts.URL, clusched.WithHTTPClient(ts.Client())),
		gen:         func(int) *window { return win },
		gate:        newGate("remote-stream", cfg.seed, int(key), gateExact),
		cacheCounts: serverCounts(srv),
		onion:       onionRemote,
		closers:     []func(){func() { stopServer(srv, ts) }},
	}
	in.gate.requireLocal(false)
	in.warmUp(pass)
	return in
}

// --- corpus-sim ---------------------------------------------------------

// strategyEngines is corpus-sim's backend: one default-cache engine per
// strategy, each shared by every caller.
type strategyEngines map[string]*driver.Compiler

func (s strategyEngines) Compile(ctx context.Context, j driver.Job) (*pipeline.Result, error) {
	return s[j.Opts.StrategyName()].Compile(ctx, j)
}

// schedulable screens corpus-sim's population. At the seed commit the uas
// strategy cannot schedule ~0.25% of corpus loops (large reduction trees)
// at any II, and each such job sweeps ~1000 intervals (~40 ms, 500x a
// normal job) before it gives up. A benchmark operation must not fail, so
// those loops are left out: a loop stays when uas schedules it within
// screenSlack intervals of its MII (over 32k corpus loops the largest gap
// uas ever closed was 91). Every other compile error is a gate miss.
type schedulable struct{ arena *pipeline.Arena }

const screenSlack = 128

func newSchedulable() schedulable { return schedulable{pipeline.NewArena()} }

func (s schedulable) ok(g *ddg.Graph) bool {
	opts := pipeline.Options{Strategy: "uas", MaxII: mii.MII(g, headlineMachine) + screenSlack}
	_, err := pipeline.CompileContextArena(context.Background(), g, headlineMachine, opts, s.arena)
	return err == nil
}

// corpusSimSeed pins corpus-sim's loop corpus.
const corpusSimSeed = 20031203

func setupCorpusSim(cfg config) *instance {
	const nominalLoops, nominalWindow, warmLoops = 16_000, 4096, 128
	loops := max(16, scaled(nominalLoops, cfg.scale))
	warm := min(warmLoops, loops/4)
	// The corpus is pinned (a seeded one moved ii_over_mii by 0.7% from
	// seed to seed, more than a scheduler regression worth catching); the
	// seed decides the order the loops arrive in, and so which of them warm
	// up and how the callers interleave. Loop-major order with the four
	// strategies interleaved keeps every window the same mix. The first
	// warm loops are the warm-up; the timed section never repeats a loop,
	// so every timed job is a miss + fill.
	spec := corpus.DefaultSpec()
	spec.Seed = corpusSimSeed
	screen := newSchedulable()
	var graphs []*ddg.Graph
	for i := 0; len(graphs) < warm+loops; i++ {
		if g := spec.Loop(i); screen.ok(g) {
			graphs = append(graphs, g)
		}
	}
	all := &window{}
	for _, k := range rand.New(rand.NewSource(seedFor(cfg.seed, 2))).Perm(len(graphs)) {
		for s, name := range corpusStrategies {
			all.keys = append(all.keys, int32(4*k+s))
			all.jobs = append(all.jobs, driver.Job{Graph: graphs[k], Machine: headlineMachine, Opts: strategyOpts(name)})
		}
	}
	cut := func(lo, hi int) *window { return &window{jobs: all.jobs[lo:hi], keys: all.keys[lo:hi]} }
	engines := strategyEngines{}
	var list []*driver.Compiler
	for _, name := range corpusStrategies {
		engines[name] = clusched.NewLocal()
		list = append(list, engines[name])
	}
	timed := len(all.jobs) - 4*warm
	windows := max(1, int(math.Round(float64(timed)/nominalWindow)))
	per := timed / windows
	in := &instance{
		cfg: cfg, backend: engines, callers: cfg.callers(2), windows: windows,
		simulate:    true,
		gen:         func(w int) *window { return cut(4*warm+w*per, 4*warm+(w+1)*per) },
		gate:        newGate("corpus-sim", cfg.seed, len(all.jobs), gateExact),
		cacheCounts: engineCounts(list...),
		onion:       onionLocal,
	}
	in.warmUp(cut(0, 4*warm))
	return in
}
