package vliwsim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// The differential tests hold the single-pass executor to the one it
// replaced (reference_test.go) on honest schedules, on mutated ones, and
// on issue times no sweep over cycles could survive.

// validateIters is corpus/validate's DefaultIters, which this package
// cannot import.
const validateIters = 16

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameError checks error-vs-nil agreement and the error type, and the text
// too when exact is set.
func sameError(what string, got, want error, exact bool) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("%s: error %s, oracle %s", what, errString(got), errString(want))
	}
	var gs, ws *ScheduleError
	if errors.As(got, &gs) != errors.As(want, &ws) {
		return fmt.Errorf("%s: error type %T, oracle %T", what, got, want)
	}
	if exact && errString(got) != errString(want) {
		return fmt.Errorf("%s: error %q, oracle %q", what, got, want)
	}
	return nil
}

// maxDist is the largest iteration distance of any edge of the schedule's
// instance graph.
func maxDist(s *sched.Schedule) int {
	d := 0
	for i := range s.IG.Edges {
		d = max(d, int(s.IG.Edges[i].Dist))
	}
	return d
}

// diffSchedule runs Execute and Measure and their oracles on one schedule
// at one iteration count.
//
// Execute must agree exactly, error text included: it walks the same events
// in the same order. Measure must return a deep-equal Report or an error of
// the same type; the error text must match too whenever iters exceeds every
// edge distance. The old Measure ran Execute(iters) to the end before
// Execute(iters+steadySpan), so it named the first violation among the
// first iters iterations; the single pass names the first among all
// iters+steadySpan. An operand that is late (or a producer that is
// unsimulated, or a copy that is malformed) in iteration k is so in every
// iteration ≥ its edge's distance, so with iters above every distance the
// first violation overall already lies in the first iters iterations and
// the two agree. With a shorter run the old code could name a different
// violation of the same broken schedule first.
func diffSchedule(s *sched.Schedule, iters int) error {
	gotTr, gotDone, gotErr := Execute(s, iters)
	wantTr, wantDone, wantErr := referenceExecute(s, iters)
	if err := sameError("Execute", gotErr, wantErr, true); err != nil {
		return err
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		return fmt.Errorf("Execute: trace differs from the oracle's: %s", gotTr.Diff(wantTr))
	}
	if gotDone != wantDone {
		return fmt.Errorf("Execute: last completion cycle %d, oracle %d", gotDone, wantDone)
	}

	gotRep, gotErr := Measure(s, iters)
	wantRep, wantErr := referenceMeasure(s, iters)
	if err := sameError("Measure", gotErr, wantErr, iters > maxDist(s)); err != nil {
		return err
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		return fmt.Errorf("Measure: report %+v, oracle %+v", gotRep, wantRep)
	}
	return nil
}

func diffReference(g *ddg.Graph, iters int) error {
	if got, want := Reference(g, iters), referenceReference(g, iters); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Reference: trace differs from the oracle's: %s", got.Diff(want))
	}
	return nil
}

// strategyOptions mirrors experiments.StrategyOptions: the paper chain
// with its replication pass, every rival bare.
func strategyOptions(name string) pipeline.Options {
	return pipeline.Options{Strategy: name, Replicate: name == pipeline.DefaultStrategy}
}

// TestDifferentialSuite: the 678-loop suite on the six Table-1 machines,
// at the iteration count validation runs.
func TestDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := strategyOptions(pipeline.DefaultStrategy)
	compiled := 0
	for _, m := range machine.PaperConfigs() {
		for _, l := range workload.SPECfp95() {
			res, err := pipeline.Compile(l.Graph, m, opts)
			if err != nil {
				continue
			}
			compiled++
			if err := diffSchedule(res.Schedule, validateIters); err != nil {
				t.Fatalf("%s on %s: %v", l.Graph.Name, m, err)
			}
		}
	}
	for _, l := range workload.SPECfp95() {
		if err := diffReference(l.Graph, validateIters); err != nil {
			t.Fatalf("%s: %v", l.Graph.Name, err)
		}
	}
	if compiled == 0 {
		t.Fatal("nothing compiled")
	}
}

// TestDifferentialCorpus: the first 2000 loops of the default generated
// corpus under every registered strategy.
func TestDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := corpus.DefaultSpec()
	m := machine.MustParse("4c2b2l64r")
	compiled := 0
	for i := 0; i < 2000; i++ {
		g := spec.Loop(i)
		if err := diffReference(g, validateIters); err != nil {
			t.Fatalf("loop %d: %v", i, err)
		}
		for _, name := range pipeline.StrategyNames() {
			res, err := pipeline.Compile(g, m, strategyOptions(name))
			if err != nil {
				continue
			}
			compiled++
			if err := diffSchedule(res.Schedule, validateIters); err != nil {
				t.Fatalf("loop %d under %s: %v", i, name, err)
			}
		}
	}
	if compiled == 0 {
		t.Fatal("nothing compiled")
	}
}

// mutant copies a schedule deeply enough to corrupt its issue times,
// instances and edges without touching the original. The copied IGraph
// keeps the original's adjacency index, so edges keep their positions.
func mutant(s *sched.Schedule) *sched.Schedule {
	c := *s
	ig := *s.IG
	ig.Inst = append([]sched.Instance(nil), s.IG.Inst...)
	ig.Edges = append([]sched.IEdge(nil), s.IG.Edges...)
	c.IG = &ig
	c.Time = append([]int(nil), s.Time...)
	return &c
}

// mutations returns corrupted variants of s: each a name and a schedule.
func mutations(s *sched.Schedule, rng *rand.Rand) map[string]*sched.Schedule {
	out := map[string]*sched.Schedule{}
	n := s.IG.NumInstances()
	// One issue time moved by ±1..±II.
	for j := 0; j < 12; j++ {
		i, d := rng.Intn(n), 1+rng.Intn(s.II)
		if rng.Intn(2) == 0 {
			d = -d
		}
		c := mutant(s)
		c.Time[i] += d
		out[fmt.Sprintf("time[%d]%+d", i, d)] = c
	}
	// A swapped pair of issue times.
	for j := 0; j < 6; j++ {
		a, b := rng.Intn(n), rng.Intn(n)
		c := mutant(s)
		c.Time[a], c.Time[b] = c.Time[b], c.Time[a]
		out[fmt.Sprintf("swap[%d,%d]", a, b)] = c
	}
	// A copy with a second operand (an instance with two data operands
	// turned into a copy) and a copy with none (its feeding edge demoted
	// to a memory edge).
	for i := 0; i < n; i++ {
		data := 0
		for _, eid := range s.IG.In(int32(i)) {
			if s.IG.Edges[eid].Data {
				data++
			}
		}
		if data >= 2 && !s.IG.Inst[i].IsCopy {
			c := mutant(s)
			c.IG.Inst[i].IsCopy = true
			out["copy with two operands"] = c
			break
		}
	}
	for i := 0; i < n; i++ {
		if in := s.IG.In(int32(i)); s.IG.Inst[i].IsCopy && len(in) > 0 {
			c := mutant(s)
			c.IG.Edges[in[0]].Data = false
			out["copy with no operand"] = c
			break
		}
	}
	// A zero-latency producer issuing in its consumer's cycle behind it in
	// instance order: ready by the clock, not yet simulated.
	for i := range s.IG.Edges {
		if e := s.IG.Edges[i]; e.Data && e.Dist == 0 && e.Src > e.Dst {
			c := mutant(s)
			c.IG.Edges[i].Lat = 0
			c.Time[e.Dst] = c.Time[e.Src]
			out["producer behind its consumer"] = c
			break
		}
	}
	// One store node executed by two instances that disagree.
	first := -1
	for i := 0; i < n; i++ {
		if in := s.IG.Inst[i]; in.IsCopy || !s.IG.G.Nodes[in.Orig].Op.IsStore() {
			continue
		}
		if first >= 0 {
			c := mutant(s)
			c.IG.Inst[i].Orig = s.IG.Inst[first].Orig
			out["two stores of one node"] = c
			break
		}
		first = i
	}
	// Structural defects validate must refuse.
	c := mutant(s)
	c.Time = c.Time[:n-1]
	out["truncated Time"] = c
	for _, ii := range []int{0, -1} {
		c = mutant(s)
		c.II = ii
		out[fmt.Sprintf("II=%d", ii)] = c
	}
	for _, o := range []int{-1, s.IG.G.NumNodes()} {
		c = mutant(s)
		c.IG.Inst[rng.Intn(n)].Orig = o
		out[fmt.Sprintf("Orig=%d", o)] = c
	}
	if ne := len(s.IG.Edges); ne > 0 {
		c = mutant(s)
		c.IG.Edges[rng.Intn(ne)].Src = int32(n)
		out["edge Src out of range"] = c
		c = mutant(s)
		c.IG.Edges[rng.Intn(ne)].Dst = -1
		out["edge Dst out of range"] = c
	}
	return out
}

// TestDifferentialMutations corrupts honest schedules and runs each mutant
// at iteration counts on both sides of the largest edge distance.
func TestDifferentialMutations(t *testing.T) {
	spec := corpus.DefaultSpec()
	m := machine.MustParse("4c2b2l64r")
	rng := rand.New(rand.NewSource(13))
	bases, rejected := 0, 0
	for i := 0; bases < 24 && i < 200; i++ {
		res, err := pipeline.Compile(spec.Loop(i), m, strategyOptions(pipeline.StrategyNames()[i%len(pipeline.StrategyNames())]))
		if err != nil {
			continue
		}
		bases++
		s := res.Schedule
		d := maxDist(s)
		for name, c := range mutations(s, rng) {
			for _, iters := range []int{1, 2, d, d + 1, validateIters} {
				if iters < 1 {
					continue
				}
				if err := diffSchedule(c, iters); err != nil {
					t.Fatalf("loop %d, %s, %d iterations: %v", i, name, iters, err)
				}
			}
			if _, err := Measure(c, validateIters); err != nil {
				rejected++
			}
		}
	}
	if bases == 0 || rejected == 0 {
		t.Fatalf("%d base schedules, %d mutants rejected: the test exercised nothing", bases, rejected)
	}
}

// twoChains is a loop of two independent load→op→store chains, so its
// instances split into two groups no edge connects.
func twoChains(t *testing.T) *sched.Schedule {
	t.Helper()
	b := ddg.NewBuilder("two-chains")
	for c := 0; c < 2; c++ {
		idx := b.Node("", ddg.OpIAdd)
		b.Edge(idx, idx, 1)
		ld := b.Node("", ddg.OpLoad)
		b.Edge(idx, ld, 0)
		f := b.Node("", ddg.OpFMul)
		b.Edge(ld, f, 0)
		b.Edge(f, f, 2)
		st := b.Node("", ddg.OpStore)
		b.Edge(f, st, 0)
		b.Edge(idx, st, 0)
	}
	res, err := pipeline.Compile(b.MustBuild(), machine.MustParse("2c1b2l64r"), strategyOptions(pipeline.DefaultStrategy))
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

// TestHugeIssueTimes: issue times are caller data. A stage sweep or cycle
// bucket sized by their range would hang or exhaust memory on 1<<40 where
// the old comparison sort did not care; the executor must still agree with
// the oracle, in milliseconds and in memory proportional to the event
// count.
func TestHugeIssueTimes(t *testing.T) {
	s := twoChains(t)
	n := s.IG.NumInstances()
	// Instances reachable from instance 0 form one chain's group.
	group := make([]bool, n)
	group[0] = true
	for changed := true; changed; {
		changed = false
		for i := range s.IG.Edges {
			e := &s.IG.Edges[i]
			if group[e.Src] != group[e.Dst] {
				group[e.Src], group[e.Dst] = true, true
				changed = true
			}
		}
	}
	const far = 1 << 40
	shift := func(up, down int) *sched.Schedule {
		c := mutant(s)
		for i := range c.Time {
			if group[i] {
				c.Time[i] += up
			} else {
				c.Time[i] += down
			}
		}
		return c
	}
	one := func(i, to int) *sched.Schedule {
		c := mutant(s)
		c.Time[i] = to
		return c
	}
	cases := map[string]*sched.Schedule{
		"all +2^40":        shift(far, far),
		"all -2^40":        shift(-far, -far),
		"groups ±2^40":     shift(far, -far),
		"groups +2^40, +0": shift(far, 0),
		"one +2^40":        one(n/2, far),
		"one -2^40":        one(n/2, -far),
		"first +, last -":  func() *sched.Schedule { c := one(0, far); c.Time[n-1] = -far; return c }(),
		"staggered by 2^30": func() *sched.Schedule {
			c := mutant(s)
			for i := range c.Time {
				c.Time[i] += i << 30
			}
			return c
		}(),
	}
	confirmed := 0
	for name, c := range cases {
		// On a goroutine with a deadline: a regression here is a hang.
		result := make(chan error, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		go func() { result <- diffSchedule(c, validateIters) }()
		select {
		case err := <-result:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no result after 10 s", name)
		}
		runtime.ReadMemStats(&after)
		// Both executors and both oracles ran; a generous bound on four
		// small simulations that a range-sized buffer would still blow.
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: took %v", name, took)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: allocated %d bytes", name, grew)
		}
		if _, err := Measure(c, validateIters); err == nil {
			confirmed++
		}
	}
	if confirmed < 3 {
		t.Errorf("only %d far-shifted schedules executed to the end; the group shifts should all", confirmed)
	}
}

// TestConcurrentCallers: the scratch pool is shared by every caller in the
// process — corpus validation fans Measure out over a worker per CPU. Many
// goroutines, schedules of different sizes so recycled buffers are regrown
// and reshaped, every answer checked against the one computed alone. Run
// under -race in CI.
func TestConcurrentCallers(t *testing.T) {
	spec := corpus.DefaultSpec()
	m := machine.MustParse("4c2b2l64r")
	type answer struct {
		s    *sched.Schedule
		rep  *Report
		tr   *Trace
		done int
		ref  *Trace
	}
	var answers []answer
	for i := 0; len(answers) < 32; i++ {
		res, err := pipeline.Compile(spec.Loop(i), m, strategyOptions(pipeline.DefaultStrategy))
		if err != nil {
			continue
		}
		a := answer{s: res.Schedule}
		if a.rep, err = Measure(a.s, validateIters); err != nil {
			t.Fatal(err)
		}
		if a.tr, a.done, err = Execute(a.s, validateIters); err != nil {
			t.Fatal(err)
		}
		a.ref = Reference(a.s.IG.G, validateIters)
		answers = append(answers, a)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for j := range answers {
					a := &answers[(j*7+w*5)%len(answers)]
					rep, err := Measure(a.s, validateIters)
					if err != nil || !reflect.DeepEqual(rep, a.rep) {
						t.Errorf("Measure under contention: %+v, %v; alone %+v", rep, err, a.rep)
						return
					}
					tr, done, err := Execute(a.s, validateIters)
					if err != nil || done != a.done || !reflect.DeepEqual(tr, a.tr) {
						t.Errorf("Execute under contention differs from the run alone (err %v)", err)
						return
					}
					if ref := Reference(a.s.IG.G, validateIters); !reflect.DeepEqual(ref, a.ref) {
						t.Error("Reference under contention differs from the run alone")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
