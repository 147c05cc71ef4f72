package wire

import (
	"reflect"
	"runtime"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// A schedule this process did not search for — an outcome frame read off a
// stream, a cached result transplanted onto an isomorphic loop — becomes a
// Result under the arena's lifetime rule: the foreign placement and times
// are range-checked and written straight into sched.Prove's pooled arena,
// the transplanted ones carried into the relabel mover's, and what passed
// leaves once. The census pins the first half, survival the second.

// foreignObjects is what either door allocates on warm pools: the Result
// and the six objects of sched's accept (pipeline's censusObjects — a
// foreign schedule costs what a searched one does).
const foreignObjects = 7

// leastAllocs is the exact number of heap objects one more call of f
// allocates: the least of three counted runs, so a collection's own
// bookkeeping cannot show up as one of ours.
func leastAllocs(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestForeignScheduleCensus: every suite loop on the six Table 1 machines
// and a 300-loop corpus sample, compiled, then (a) sent as a loop=0 outcome
// frame, walked into one recycled Frame and decoded for its job, and (b)
// remapped onto a permuted clone: exactly foreignObjects each.
func TestForeignScheduleCensus(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		f                 Frame
		line              []byte
		decoded, remapped int
	)
	census := func(out driver.Outcome) {
		g, opts := out.Job.Graph, out.Job.Opts
		line = AppendOutcomeFrame(line[:0], 0, out, false)
		if err := DecodeFrame(line, &f); err != nil {
			t.Fatal(err)
		}
		decode := func() {
			if _, err := f.Outcome.DecodeFor(out.Job); err != nil {
				t.Fatalf("%s on %s: %v", g.Name, out.Job.Machine.Name, err)
			}
		}
		decode() // the arena grows to this loop
		if n := leastAllocs(decode); n != foreignObjects {
			t.Errorf("%s on %s: DecodeFor allocates %d objects, want %d", g.Name, out.Job.Machine.Name, n, foreignObjects)
		}
		decoded++

		clone := ddg.PermuteRandom(g, g.Name+"#p", int64(decoded))
		if _, err := pipeline.RemapResult(out.Result, clone, opts); err != nil {
			return // an incomplete labeling may miss its relabeling (DESIGN.md "Semantic caching"); nothing to count
		}
		remap := func() {
			if _, err := pipeline.RemapResult(out.Result, clone, opts); err != nil {
				t.Fatal(err)
			}
		}
		if n := leastAllocs(remap); n != foreignObjects {
			t.Errorf("%s on %s: RemapResult allocates %d objects, want %d", g.Name, out.Job.Machine.Name, n, foreignObjects)
		}
		remapped++
	}
	compile := func(jobs []driver.Job) {
		outs, err := collect(driver.New(driver.Config{Workers: 1}), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range outs {
			census(out)
		}
	}
	opts := pipeline.Options{Replicate: true}
	for _, m := range machine.PaperConfigs() {
		var jobs []driver.Job
		for _, l := range workload.SPECfp95() {
			jobs = append(jobs, driver.Job{Graph: l.Graph, Machine: m, Opts: opts})
		}
		compile(jobs)
	}
	m, spec := machine.MustParse("4c2b2l64r"), corpus.DefaultSpec()
	var jobs []driver.Job
	for i := 0; i < 300; i++ {
		jobs = append(jobs, driver.Job{Graph: spec.Loop(i), Machine: m, Opts: opts})
	}
	compile(jobs)
	if want := 6*len(workload.SPECfp95()) + 300; decoded != want || remapped < want*9/10 {
		t.Errorf("counted %d decodes and %d remaps of %d results", decoded, remapped, want)
	}
}

// ownedCopy is a deep copy of what a foreign Result owns, taken the moment
// it was made.
type ownedCopy struct {
	home     []int
	replicas []sched.ClusterSet
	time     []int
	maxLive  []int
	inst     []sched.Instance
	edges    []sched.IEdge
}

func copyOwned(r *pipeline.Result) ownedCopy {
	return ownedCopy{
		home:     append([]int(nil), r.Placement.Home...),
		replicas: append([]sched.ClusterSet(nil), r.Placement.Replicas...),
		time:     append([]int(nil), r.Schedule.Time...),
		maxLive:  append([]int(nil), r.Schedule.MaxLive...),
		inst:     append([]sched.Instance(nil), r.Schedule.IG.Inst...),
		edges:    append([]sched.IEdge(nil), r.Schedule.IG.Edges...),
	}
}

// TestForeignResultSurvivesTheArena is pipeline's
// TestAcceptedResultSurvivesTheArena for the two doors that search for
// nothing: every decoded and every remapped Result of the suite is kept and
// checked only after 50 later proofs and remaps — of other loops, and
// refused ones — have gone through the pooled arenas: it must still hold
// what it held when it was made, placement included, and still verify.
func TestForeignResultSurvivesTheArena(t *testing.T) {
	const gap = 50
	outs := suiteOutcomes(t)
	type kept struct {
		res  *pipeline.Result
		then ownedCopy
	}
	for _, door := range []struct {
		name string
		make func(i int) *pipeline.Result
	}{
		{"decoded", func(i int) *pipeline.Result {
			var f Frame
			if err := DecodeFrame(AppendOutcomeFrame(nil, i, outs[i], false), &f); err != nil {
				t.Fatal(err)
			}
			dec, err := f.Outcome.DecodeFor(outs[i].Job)
			if err != nil {
				t.Fatal(err)
			}
			// One with its schedule shifted out of its windows is refused
			// after the arena has taken its placement.
			f.Outcome.Result.Schedule.Time[0] += 1 << 20
			if _, err := f.Outcome.DecodeFor(outs[i].Job); err == nil {
				t.Fatalf("%s: a corrupted time vector decoded", outs[i].Job.Graph.Name)
			}
			return dec.Result
		}},
		{"remapped", func(i int) *pipeline.Result {
			g := outs[i].Job.Graph
			res, err := pipeline.RemapResult(outs[i].Result, ddg.PermuteRandom(g, g.Name+"#p", int64(i)), outs[i].Job.Opts)
			if err != nil {
				return nil // an incomplete labeling may miss its relabeling
			}
			return res
		}},
	} {
		t.Run(door.name, func(t *testing.T) {
			var made []kept
			check := func(k kept) {
				r := k.res
				if now := copyOwned(r); !reflect.DeepEqual(now, k.then) {
					t.Fatalf("%s: the kept Result changed under %d later proofs on its arena\n then %+v\n now  %+v",
						r.Loop.Name, gap, k.then, now)
				}
				if r.Placement != r.Schedule.IG.P || r.Placement.G != r.Loop {
					t.Fatalf("%s: Result.Placement is not the schedule's placement of the Result's loop", r.Loop.Name)
				}
				if err := sched.Verify(r.Schedule); err != nil {
					t.Fatalf("%s: kept schedule no longer verifies: %v", r.Loop.Name, err)
				}
			}
			for i := range outs {
				if res := door.make(i); res != nil {
					made = append(made, kept{res, copyOwned(res)})
				}
				if n := len(made); n > gap {
					check(made[n-1-gap])
				}
			}
			if len(made) < len(outs)*9/10 {
				t.Fatalf("only %d of %d results came through", len(made), len(outs))
			}
			for _, k := range made[len(made)-gap:] {
				check(k)
			}
		})
	}
}

// TestDecodeAdoptsTheJobsMachine: a result whose machine is, field for
// field, the wire form of the job's is decoded onto the job's Config
// instead of rebuilding an equal one; any other machine — another name, a
// heterogeneous matrix, no job at all — is decoded as it always was. A
// request's jobs share a decoded machine the same way.
func TestDecodeAdoptsTheJobsMachine(t *testing.T) {
	opts := pipeline.Options{Replicate: true}
	decodeFor := func(out driver.Outcome, j driver.Job) *pipeline.Result {
		t.Helper()
		var f Frame
		if err := DecodeFrame(AppendOutcomeFrame(nil, 0, out, false), &f); err != nil {
			t.Fatal(err)
		}
		dec, err := f.Outcome.DecodeFor(j)
		if err != nil {
			t.Fatal(err)
		}
		return dec.Result
	}
	for _, m := range append(machine.PaperConfigs(), machine.Unified(64), machine.Unified(32)) {
		out := compileSample(t, "tomcatv", 1, m, opts)[0]
		want, err := encodeMachine(m).Decode()
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeFor(out, out.Job).Machine; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: adopted machine %+v, decoding gives %+v", m.Name, got, want)
		}
		// The job's machine under another name is not what the frame says:
		// the frame's is decoded.
		alias := out.Job
		alias.Machine.Name = "mine"
		if got := decodeFor(out, alias).Machine; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a job naming its machine differently got %+v, want the decoded %+v", m.Name, got, want)
		}
	}
	hetero, err := machine.NewHetero(2, 2, 32, [][ddg.NumClasses]int{{2, 1, 2}, {2, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	out := compileSample(t, "tomcatv", 1, hetero, opts)[0]
	got := decodeFor(out, out.Job).Machine
	if !reflect.DeepEqual(got, hetero) {
		t.Errorf("hetero machine changed across the wire: %+v vs %+v", got, hetero)
	}
	if &got.Hetero[0] == &hetero.Hetero[0] {
		t.Error("a heterogeneous machine was adopted, not decoded")
	}

	// Jobs of one request: a repeated wire form is decoded once, a change —
	// and a heterogeneous machine, repeated or not — is decoded.
	var wjs []Job
	machines := []machine.Config{machine.MustParse("4c2b2l64r"), machine.MustParse("4c2b2l64r"), machine.MustParse("2c1b2l64r"),
		hetero, hetero, machine.Unified(64), machine.Unified(64), machine.MustParse("4c2b2l64r")}
	for i, m := range machines {
		wj, err := EncodeJob(driver.Job{Graph: workload.SPECfp95()[i].Graph, Machine: m, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		wjs = append(wjs, wj)
	}
	jobs, err := DecodeJobs(wjs)
	if err != nil {
		t.Fatal(err)
	}
	for i, wj := range wjs {
		alone, err := wj.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jobs[i].Machine, alone.Machine) || jobs[i].Opts != alone.Opts ||
			jobs[i].Graph.Fingerprint() != alone.Graph.Fingerprint() {
			t.Errorf("job %d decodes differently inside its request: %+v vs %+v", i, jobs[i], alone)
		}
	}
	if &jobs[3].Machine.Hetero[0] == &jobs[4].Machine.Hetero[0] {
		t.Error("a repeated heterogeneous machine was shared, not decoded")
	}
	wjs[2].Machine = Machine{}
	if _, err := DecodeJobs(wjs); err == nil || err.Error() != "job 2: wire: empty machine" {
		t.Errorf("an empty machine after a good one: %v", err)
	}
}
