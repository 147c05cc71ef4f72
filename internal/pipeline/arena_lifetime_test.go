package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// The arena's lifetime rule — everything an attempt builds is valid until
// the arena's next attempt and leaves exactly once, on acceptance — has two
// halves, each pinned here: nothing but the accepted schedule and the
// Result is allocated (the census), and nothing that left still points
// into the arena (survival). The two doors that search for nothing — a
// decoded outcome, a remapped result — are held to both in internal/wire
// (TestForeignScheduleCensus, TestForeignResultSurvivesTheArena), which can
// import this package.

// censusObjects is what one compilation on a warm arena allocates: the
// Result and the six objects of sched's accept — whatever the strategy and
// however many attempts failed on the way.
const censusObjects = 7

// compilationAllocs is the exact number of heap objects one more
// compilation on the warm arena allocates, or false when the loop does not
// compile. It is the least of three counted runs so a collection's own
// bookkeeping cannot show up as one of ours.
func compilationAllocs(t *testing.T, g *ddg.Graph, m machine.Config, opts Options, arena *Arena) (uint64, bool) {
	t.Helper()
	ctx := context.Background()
	compile := func() error {
		_, err := Search(ctx, g, m, opts, SearchConfig{Arena: arena})
		return err
	}
	if compile() != nil { // also warms the arena to this loop's size
		return 0, false
	}
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		err := compile()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least, true
}

// TestCompilationCensus is the benchmark's allocs_per_loop as a test: every
// pinned suite loop on the six Table 1 machines with replication on, and
// every loop of a corpus sample on the corpus machine under each of the
// four strategies, allocates exactly censusObjects on a warm arena.
func TestCompilationCensus(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	compiled := 0
	census := func(g *ddg.Graph, m machine.Config, opts Options, arena *Arena) {
		n, ok := compilationAllocs(t, g, m, opts, arena)
		if !ok {
			return // a rival may not schedule a loop at all; nothing to count
		}
		compiled++
		if n != censusObjects {
			t.Errorf("%s on %s (%s): a warm-arena compilation allocates %d objects, want %d",
				g.Name, m.Name, opts.StrategyName(), n, censusObjects)
		}
	}
	for _, m := range machine.PaperConfigs() {
		arena := NewArena()
		for _, l := range workload.SPECfp95() {
			census(l.Graph, m, Options{Replicate: true}, arena)
		}
	}
	if want := 6 * len(workload.SPECfp95()); compiled != want {
		t.Errorf("%d of %d suite compilations succeeded", compiled, want)
	}
	m, spec := machine.MustParse("4c2b2l64r"), corpus.DefaultSpec()
	for _, strategy := range []string{"paper", "uas", "moddist", "unified"} {
		arena, before := NewArena(), compiled
		for i := 0; i < 300; i++ {
			census(spec.Loop(i), m, Options{Strategy: strategy, Replicate: strategy == "paper"}, arena)
		}
		if compiled-before < 250 {
			t.Errorf("%s compiled only %d of 300 corpus loops", strategy, compiled-before)
		}
	}
}

// retainedBytesBound caps what an accepted schedule keeps reachable, in
// bytes, averaged over the suite on 4c2b2l64r with replication. It read
// 3 895 with 24-byte instances and reads 3 356 with 8-byte ones.
const retainedBytesBound = 3500

// TestRetainedScheduleBytes pins what the engine keeps per cached
// schedule: the live heap a suite's worth of accepted schedules adds, after
// a collection, divided by their number. The loops and a warm arena are in
// place before the first reading, so only what accept copies out counts.
func TestRetainedScheduleBytes(t *testing.T) {
	if raceDetector {
		t.Skip("heap readings do not repeat under -race")
	}
	if n := unsafe.Sizeof(sched.Instance{}); n != 8 {
		t.Errorf("sched.Instance is %d bytes, want 8", n)
	}
	if n := 8 * unsafe.Sizeof(sched.ClusterSet(0)); n < machine.MaxClusters {
		t.Errorf("a ClusterSet holds %d clusters, want machine.MaxClusters (%d)", n, machine.MaxClusters)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, loops, arena := machine.MustParse("4c2b2l64r"), workload.SPECfp95(), NewArena()
	kept := make([]*sched.Schedule, 0, len(loops))
	compile := func() {
		kept = kept[:0]
		for _, l := range loops {
			res, err := CompileContextArena(context.Background(), l.Graph, m, Options{Replicate: true}, arena)
			if err != nil {
				t.Fatalf("%s: %v", l.Graph.Name, err)
			}
			kept = append(kept, res.Schedule)
		}
	}
	compile() // labels every loop and grows the arena to the largest
	clear(kept)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	compile()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(kept))
	runtime.KeepAlive(kept)
	t.Logf("%d accepted schedules keep %.0f bytes each", len(kept), per)
	if per > retainedBytesBound {
		t.Errorf("an accepted schedule keeps %.0f bytes, want at most %d", per, retainedBytesBound)
	}
}

// TestIdleArenaPinsNoGraph compiles a fresh corpus loop through a kept
// arena, lets go of the loop and its Result, and requires the loop to be
// collectable: once Search has returned, nothing in its arena may keep the
// job's graph alive, whether the search accepted, ran out of intervals or
// was cancelled, and whatever the strategy.
func TestIdleArenaPinsNoGraph(t *testing.T) {
	m, spec := machine.MustParse("4c1b2l64r"), corpus.DefaultSpec()
	arena := NewArena()
	for i, strategy := range StrategyNames() {
		for _, end := range []string{"accepted", "exhausted", "cancelled"} {
			cfg := SearchConfig{Arena: arena}
			opts := Options{Strategy: strategy, Replicate: strategy == "paper"}
			ref := func() weak.Pointer[ddg.Graph] {
				// The first loop of the corpus whose search climbs: the
				// exhausted search then fails after real attempts.
				g, res := (*ddg.Graph)(nil), (*Result)(nil)
				for j := i; res == nil || res.II == res.MII; j += 5 {
					g = spec.Loop(j)
					res, _ = Search(t.Context(), g, m, opts, cfg)
				}
				ctx, cancel := context.WithCancel(t.Context())
				switch end {
				case "exhausted":
					opts.MaxII = res.II - 1
				case "cancelled":
					cancel()
				}
				if res, err := Search(ctx, g, m, opts, cfg); (err == nil) != (end == "accepted") {
					t.Fatalf("%s search of %s (%s): result %v, error %v", end, g.Name, strategy, res != nil, err)
				}
				cancel()
				return weak.Make(g)
			}()
			runtime.GC()
			runtime.GC()
			if ref.Value() != nil {
				t.Errorf("%s (%s search): the idle arena still pins the loop's graph", strategy, end)
			}
		}
	}
	runtime.KeepAlive(arena)
}

// TestAcceptedResultSurvivesTheArena compiles the suite through one arena,
// keeps every Result, and checks each only after 50 later compilations —
// accepted ones and ones that fail under a search bound below the II the
// loop needs — have run on the same arena: it must still equal a
// fresh-arena compilation field for field, graph tables and placement
// included, and still verify.
func TestAcceptedResultSurvivesTheArena(t *testing.T) {
	const gap = 50
	ctx := context.Background()
	m := machine.MustParse("4c1b2l64r") // the most search-bound machine: the most failed attempts
	loops := workload.SPECfp95()
	optsOf := func(i int) Options { return Options{Replicate: i%2 == 0} }
	// One lane: the plain search, the only one the pipeline runs; the
	// subtest keeps the name it had when the search could race lanes.
	t.Run("lanes=1", func(t *testing.T) {
		cfg := SearchConfig{Arena: NewArena()}
		kept := make([]*Result, len(loops))
		failed := 0
		for i := 0; i < len(loops)+gap; i++ {
			g, opts := loops[i%len(loops)].Graph, optsOf(i%len(loops))
			res, err := Search(ctx, g, m, opts, cfg)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if i < len(loops) {
				kept[i] = res
			}
			if res.II > res.MII {
				opts.MaxII = res.II - 1
				if _, err := Search(ctx, g, m, opts, cfg); err == nil {
					t.Fatalf("%s compiled below its II", g.Name)
				}
				failed++
			}
			if i < gap {
				continue
			}
			old := kept[i-gap]
			fresh, err := Search(ctx, old.Loop, m, optsOf(i-gap), SearchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(old, fresh) {
				t.Fatalf("%s: the kept Result changed under %d later compilations on its arena\n kept  %+v\n fresh %+v",
					old.Loop.Name, gap, old.Schedule, fresh.Schedule)
			}
			if old.Placement != old.Schedule.IG.P {
				t.Fatalf("%s: Result.Placement is not the schedule's placement", old.Loop.Name)
			}
			if err := sched.Verify(old.Schedule); err != nil {
				t.Fatalf("%s: kept schedule no longer verifies: %v", old.Loop.Name, err)
			}
		}
		if failed == 0 {
			t.Error("no failing compilation ran on the arena")
		}
	})
}
