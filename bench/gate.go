package main

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"clusched"
	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
)

// gateMode says what a repeated request must reproduce.
type gateMode int

const (
	// gateExact: the same key always yields the same (II, Length, Comms) —
	// true wherever no cache can answer one presentation of a loop with a
	// schedule compiled for another.
	gateExact gateMode = iota
	// gateMII: behind a semantic cache a remapped schedule inherits the II
	// of whichever presentation was compiled first, and eviction can
	// change which one that is mid-run; only the loop's MII (a property of
	// graph and machine) and II >= MII are invariant.
	gateMII
)

// ref is what the gate remembers about a key from its first outcome
// (mii == 0: none yet; an MII is at least 1).
type ref struct{ mii, ii, length, comms int32 }

// failure is one replayable gate miss: rerun the workload with the seed
// and look at request index of the window (-1 = the warm-up window).
type failure struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Window   int    `json:"window"`
	Index    int    `json:"index"`
	Reason   string `json:"reason"`
}

const maxRecordedFailures = 20

// gate is the benchmark's correctness check. The warm-up window gets the
// full treatment (full); timed windows get comparisons cheap enough to
// leave on the clock (cheap). Every miss counts as a failed job, is
// recorded replayably, and makes the command exit non-zero.
type gate struct {
	workload string
	seed     int64
	mode     gateMode
	window   int // -1 during warm-up

	mu       sync.Mutex
	refs     []ref
	failed   int
	failures []failure

	// local, when non-nil, is the NewLocal reference remote results must
	// match bit for bit; cached says the remote side has a semantic cache,
	// which exempts shapes presented more than once (multi).
	local  *driver.Compiler
	cached bool
	multi  map[uint64]bool
}

func newGate(workload string, seed int64, keys int, mode gateMode) *gate {
	return &gate{workload: workload, seed: seed, mode: mode, window: -1, refs: make([]ref, keys)}
}

// requireLocal arms the bit-identity check against an in-process
// cache-off reference engine.
func (g *gate) requireLocal(remoteCached bool) {
	g.local = clusched.NewLocal(clusched.WithWorkers(1), clusched.WithCacheSize(-1))
	g.cached = remoteCached
}

// begin prepares the full gate for the warm-up window: with a semantic
// cache on the far side, a shape that arrives in two presentations may be
// answered with either one's schedule, so it cannot be held to a fresh
// local compile of its own presentation.
func (g *gate) begin(win *window) {
	if g.local == nil || !g.cached {
		return
	}
	first := map[uint64]uint64{}
	g.multi = map[uint64]bool{}
	for _, j := range win.jobs {
		cf, fp := j.Graph.CanonicalFingerprint(), j.Graph.Fingerprint()
		if f, ok := first[cf]; !ok {
			first[cf] = fp
		} else if f != fp {
			g.multi[cf] = true
		}
	}
}

func (g *gate) fail(index int, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failed++
	if len(g.failures) < maxRecordedFailures {
		g.failures = append(g.failures, failure{g.workload, g.seed, g.window, index, reason})
	}
}

// full checks one warm-up outcome: the job compiled, the schedule is for
// the job's own graph and passes sched.Verify, and — where a local
// reference is armed — II, length and every issue time equal a fresh
// in-process compilation of the same job.
func (g *gate) full(win *window, i int, res *pipeline.Result, err error) bool {
	if !g.cheap(win, i, res, err) {
		return false
	}
	j := win.jobs[i]
	if verr := sched.Verify(res.Schedule); verr != nil {
		g.fail(win.offset+i, "sched.Verify: "+verr.Error())
		return false
	}
	if g.local == nil || (g.cached && g.multi[j.Graph.CanonicalFingerprint()]) {
		return true
	}
	want, lerr := g.local.Compile(context.Background(), j)
	if lerr != nil {
		g.fail(win.offset+i, "local reference failed: "+lerr.Error())
		return false
	}
	if res.II != want.II || res.Length != want.Length || !slices.Equal(res.Schedule.Time, want.Schedule.Time) {
		g.fail(win.offset+i, fmt.Sprintf("differs from local reference: II %d/%d length %d/%d", res.II, want.II, res.Length, want.Length))
		return false
	}
	return true
}

// cheap checks one outcome against what the gate first saw for its key.
func (g *gate) cheap(win *window, i int, res *pipeline.Result, err error) bool {
	if err != nil {
		g.fail(win.offset+i, "compile: "+err.Error())
		return false
	}
	j := win.jobs[i]
	if res == nil || res.Schedule == nil || res.Loop.NumNodes() != j.Graph.NumNodes() || res.Loop.Name != j.Graph.Name {
		g.fail(win.offset+i, "result is not a schedule of the submitted loop")
		return false
	}
	r := &g.refs[win.keys[i]]
	if r.mii == 0 {
		*r = ref{int32(res.MII), int32(res.II), int32(res.Length), int32(res.Comms)}
	}
	switch {
	case res.II < res.MII || int32(res.MII) != r.mii:
		g.fail(win.offset+i, fmt.Sprintf("MII %d II %d, first outcome of this loop had MII %d", res.MII, res.II, r.mii))
	case g.mode == gateExact && (int32(res.II) != r.ii || int32(res.Length) != r.length || int32(res.Comms) != r.comms):
		g.fail(win.offset+i, fmt.Sprintf("(II, length, comms) = (%d, %d, %d), first outcome was (%d, %d, %d)",
			res.II, res.Length, res.Comms, r.ii, r.length, r.comms))
	default:
		return true
	}
	return false
}
