package pipeline

// The retired RemapResult, which re-proved every transplant with
// sched.Prove, is the oracle of today's, which checks the isomorphism and
// moves the schedule with the mover every compilation relabels with: the
// two must return deep-equal Results — placement, times, instance graph
// and MaxLive — and refuse the same inputs.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"clusched/internal/arena"
	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// proveLaidOut is the retired door of sched.Prove, whose times callback was
// shown the instance graph its placement expands to: the graph is built
// once more here, on an arena of the test's, for the callback to read.
func proveLaidOut(g *ddg.Graph, m machine.Config, zeroBusLat bool, ii int, opts sched.Options,
	place func(home []int, replicas []sched.ClusterSet) error,
	times func(ig *sched.IGraph, buf []int) ([]int, error)) (*sched.Schedule, error) {
	p := &sched.Placement{G: g, K: m.Clusters, Home: make([]int, g.NumNodes()), Replicas: make([]sched.ClusterSet, g.NumNodes())}
	if err := place(p.Home, p.Replicas); err != nil {
		return nil, err
	}
	ig, _, err := sched.NewScratch().InstanceTiming(p, m, ii)
	if err != nil {
		return nil, err
	}
	t, err := times(ig, make([]int, ig.NumInstances()))
	if err != nil {
		return nil, err
	}
	return sched.Prove(g, m, zeroBusLat, ii, opts, place, t)
}

// referenceRemapPerms recycles the three node-permutation vectors of one
// referenceRemapResult (invDst, sigma, invSigma) as one slab: they are
// dead once the call returns.
var referenceRemapPerms arena.Pool[[]int32]

// referenceRemapResult transplants a cached compilation onto an isomorphic graph:
// it composes the two canonical permutations into a node isomorphism,
// carries the cached placement and issue times across it, and re-proves
// the transplanted schedule with sched.Prove — the same dependence,
// resource and register checks the wire decode path runs, so a remapped
// result is never trusted, only proven (a failed proof returns an error
// and the caller falls back to a fresh compilation). The target graph must
// have the same canonical fingerprint as cached.Loop.
func referenceRemapResult(cached *Result, g *ddg.Graph, opts Options) (*Result, error) {
	src := cached.Loop
	if cached.Schedule == nil || cached.Placement == nil {
		return nil, fmt.Errorf("pipeline: remap: cached result has no schedule")
	}
	n := g.NumNodes()
	if src.NumNodes() != n || src.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("pipeline: remap: graph size mismatch")
	}
	cSrc, cDst := src.CanonicalForm(), g.CanonicalForm()
	if cSrc.Sum != cDst.Sum {
		return nil, fmt.Errorf("pipeline: remap: canonical fingerprints differ")
	}

	// sigma maps cached node → target node through the shared canonical
	// ordering: a node and its image occupy the same canonical position.
	slab := referenceRemapPerms.Get()
	defer referenceRemapPerms.Put(slab)
	*slab = arena.Grown(*slab, 3*n)
	invDst, sigma, invSigma := (*slab)[:n], (*slab)[n:2*n], (*slab)[2*n:]
	for v, c := range cDst.Perm {
		invDst[c] = int32(v)
	}
	for v := 0; v < n; v++ {
		sigma[v] = invDst[cSrc.Perm[v]]
		if g.Nodes[sigma[v]].Op != src.Nodes[v].Op {
			// Only reachable through a canonical-sum hash collision.
			return nil, fmt.Errorf("pipeline: remap: opcode mismatch under permutation")
		}
	}

	cp := cached.Placement
	place := func(home []int, replicas []sched.ClusterSet) error {
		for v := 0; v < n; v++ {
			home[sigma[v]] = cp.Home[v]
			replicas[sigma[v]] = cp.Replicas[v]
		}
		return nil
	}

	cig := cached.Schedule.IG
	for v := 0; v < n; v++ {
		invSigma[sigma[v]] = int32(v)
	}
	// Pull each target instance's issue time from its cached counterpart:
	// same original node (through sigma) in the same cluster, or the
	// node's copy instance.
	var layoutErr error
	layout := func(ig *sched.IGraph, times []int) ([]int, error) {
		if ig.NumInstances() != cig.NumInstances() {
			layoutErr = fmt.Errorf("pipeline: remap: instance count mismatch")
			return nil, layoutErr
		}
		for i, inst := range ig.Inst {
			v := int(invSigma[inst.Orig])
			var ci int32
			if inst.IsCopy {
				ci = cig.CopyIdx[v]
			} else {
				ci = cig.InstanceAt(v, int(inst.Cluster))
			}
			if ci < 0 {
				layoutErr = fmt.Errorf("pipeline: remap: instance %d has no cached counterpart", i)
				return nil, layoutErr
			}
			times[i] = cached.Schedule.Time[ci]
		}
		return times, nil
	}
	s, err := proveLaidOut(g, cached.Machine, opts.ZeroBusLatency, cached.Schedule.II,
		sched.Options{SkipRegisterCheck: opts.IgnoreRegisterPressure}, place, layout)
	if err != nil {
		var unproven *sched.Error // declared here: errors.As moves it to the heap
		switch {
		case layoutErr != nil:
			return nil, layoutErr
		case errors.As(err, &unproven):
			return nil, fmt.Errorf("pipeline: remapped schedule does not verify: %w", err)
		default:
			return nil, fmt.Errorf("pipeline: remap: %w", err)
		}
	}
	if s.Length != cached.Length || s.SC != cached.SC {
		return nil, fmt.Errorf("pipeline: remap: length/SC changed (%d/%d vs %d/%d)",
			s.Length, s.SC, cached.Length, cached.SC)
	}
	if c := s.IG.P.Comms(); c != cached.Comms {
		return nil, fmt.Errorf("pipeline: remap: comm count changed (%d vs %d)", c, cached.Comms)
	}

	out := *cached
	out.Loop = g
	out.Schedule = s
	out.Placement = s.IG.P
	return &out, nil
}

// remapStrategies are the four strategies, each with the options bench/
// compiles it under: the paper's chain replicates, the rivals have no
// replication pass.
var remapStrategies = []string{"paper", "uas", "moddist", "unified"}

func remapStrategyOptions(name string) Options {
	return Options{Strategy: name, Replicate: name == DefaultStrategy}
}

// remapOracle compiles loops on one arena and holds RemapResult to the
// retired one on three relabelings of each, and on the loop checked
// before it (of another class, unless the two are isomorphic).
type remapOracle struct {
	arena                        *Arena
	last                         *ddg.Graph // the loop checked before
	remaps, incomplete, refusals int
}

func (o *remapOracle) check(t *testing.T, g *ddg.Graph, m machine.Config, opts Options) {
	t.Helper()
	res, err := CompileContextArena(context.Background(), g, m, opts, o.arena)
	if err != nil {
		return // nothing to remap
	}
	targets := []*ddg.Graph{o.last}
	for k := range int64(3) {
		targets = append(targets, ddg.PermuteRandom(g, fmt.Sprintf("%s#r%d", g.Name, k), k*7919+int64(len(g.Name))))
	}
	o.last = g
	for _, h := range targets {
		if h == nil {
			continue
		}
		got, gerr := RemapResult(res, h, opts)
		want, werr := referenceRemapResult(res, h, opts)
		switch {
		case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
			t.Fatalf("%s on %s, %+v, onto %s: error %v, the retired remap's %v", g.Name, m.Name, opts, h.Name, gerr, werr)
		case gerr != nil:
			o.refusals++
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%s on %s, %+v, onto %s: the remap is not the retired one's:\n got  %+v %v\n want %+v %v",
				g.Name, m.Name, opts, h.Name, got.Placement, got.Schedule.Time, want.Placement, want.Schedule.Time)
		default:
			o.remaps++
			if !h.CanonicalForm().Complete {
				o.incomplete++
			}
		}
	}
}

// TestRemapMatchesReference: the suite on the six Table 1 machines under
// the four strategies, each with its default options, zero-latency buses
// and no register check; then the first 1 000 loops of corpus-sim's
// population, screened as bench/ screens them, on its machine under the
// four strategies. Every compiled loop is remapped onto three random
// relabelings and onto the loop checked before it: each remap must be
// deep-equal to the retired one's — placement, times, instance graph and
// MaxLive — and each refusal must be the retired one's.
func TestRemapMatchesReference(t *testing.T) {
	stride, corpusLoops := 1, 1000
	if testing.Short() || raceDetector {
		stride, corpusLoops = 97, 10
	}
	o := &remapOracle{arena: NewArena()}
	loops := workload.SPECfp95()
	for _, m := range machine.PaperConfigs() {
		for _, name := range remapStrategies {
			for _, mode := range []func(*Options){
				func(*Options) {},
				func(o *Options) { o.ZeroBusLatency = true },
				func(o *Options) { o.IgnoreRegisterPressure = true },
			} {
				opts := remapStrategyOptions(name)
				mode(&opts)
				for i := 0; i < len(loops); i += stride {
					o.check(t, loops[i].Graph, m, opts)
				}
			}
		}
	}
	suite := o.remaps
	m := machine.MustParse("4c2b2l64r")
	spec := corpus.DefaultSpec()
	spec.Seed = 20031203
	screen := NewArena()
	for i, kept := 0, 0; kept < corpusLoops; i++ {
		g := spec.Loop(i)
		if _, err := CompileContextArena(context.Background(), g, m, Options{Strategy: "uas", MaxII: mii.MII(g, m) + 128}, screen); err != nil {
			continue
		}
		kept++
		for _, name := range remapStrategies {
			o.check(t, g, m, remapStrategyOptions(name))
		}
	}
	t.Logf("%d remaps deep-equal to the retired one's (%d on the suite, %d on the corpus), %d of them onto a clone whose labeling is not Complete; %d refusals the same",
		o.remaps, suite, o.remaps-suite, o.incomplete, o.refusals)
	if o.incomplete == 0 || o.refusals == 0 {
		t.Fatal("no clone with an incomplete labeling, or no refusal: the oracle does not reach the paths it is for")
	}
}
