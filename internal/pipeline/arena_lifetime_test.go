package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

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

// recyclingPool lends lane arenas and takes them back for the next search,
// so a lane's arena is reused the way the driver's pooled ones are.
type recyclingPool struct {
	mu   sync.Mutex
	free []*Arena
}

func (p *recyclingPool) Acquire() (*Arena, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a, true
	}
	return NewArena(), true
}

func (p *recyclingPool) Release(a *Arena) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, a)
}

// TestAcceptedResultSurvivesTheArena compiles the suite through one arena
// (and, with lanes, one recycled set of lane arenas), keeps every Result,
// and checks each only after 50 later compilations — accepted ones and ones
// that fail under a search bound below the II the loop needs — have run on
// the same arenas: it must still equal a fresh-arena compilation field for
// field, graph tables and placement included, and still verify.
func TestAcceptedResultSurvivesTheArena(t *testing.T) {
	const gap = 50
	ctx := context.Background()
	m := machine.MustParse("4c1b2l64r") // the most search-bound machine: the most failed attempts
	loops := workload.SPECfp95()
	optsOf := func(i int) Options { return Options{Replicate: i%2 == 0} }
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			cfg := SearchConfig{Arena: NewArena(), Lanes: lanes, Pool: &recyclingPool{}}
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
}
