package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// testPool is a Pool that counts its traffic: admit gates Acquire, and
// onAcquire (when set) runs inside it.
type testPool struct {
	admit              bool
	onAcquire          func()
	acquires, releases atomic.Int64
}

func (p *testPool) Acquire() (*Arena, bool) {
	if p.onAcquire != nil {
		p.onAcquire()
	}
	if !p.admit {
		return nil, false
	}
	p.acquires.Add(1)
	return NewArena(), true
}

func (p *testPool) Release(*Arena) { p.releases.Add(1) }

// hardLoop returns a generated loop whose compilation on m takes several II
// attempts — enough ladder for speculation to have lanes to race.
func hardLoop(t *testing.T, m machine.Config) *ddg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		g := corpus.Generate(corpus.ShapeWide, "hard", rng, 24+rng.Intn(24), corpus.DefaultParams())
		res, err := referenceSearch(g, m, Options{})
		if err != nil {
			continue
		}
		if res.II-res.MII >= 3 {
			return g
		}
	}
	t.Fatal("no multi-attempt loop found in 100 trials")
	return nil
}

// TestSpeculationRacesLanes proves the speculative search actually launches
// extra lanes (acquiring from the budget and borrowing arenas) on a
// multi-attempt compilation, and that every borrowed arena is returned
// before the call completes.
func TestSpeculationRacesLanes(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	g := hardLoop(t, m)

	pool := &testPool{admit: true}
	res, err := Search(context.Background(), g, m, Options{}, SearchConfig{Lanes: 4, Pool: pool})
	if err != nil {
		t.Fatalf("speculative compile: %v", err)
	}
	lin, linErr := referenceSearch(g, m, Options{})
	requireSameResult(t, g.Name, res, lin, err, linErr)
	if a, r := pool.acquires.Load(), pool.releases.Load(); a == 0 || a != r {
		t.Fatalf("lane arenas not balanced on a multi-attempt loop: %d acquired, %d released", a, r)
	}
}

// TestSpeculationDegradesWhenBudgetDenied pins the graceful-degradation
// path: with every acquire denied, the search must still produce the exact
// linear result, borrow no arenas, and never release what it did not
// acquire.
func TestSpeculationDegradesWhenBudgetDenied(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	g := hardLoop(t, m)

	pool := &testPool{admit: false}
	res, err := Search(context.Background(), g, m, Options{}, SearchConfig{Lanes: 4, Pool: pool})
	lin, linErr := referenceSearch(g, m, Options{})
	requireSameResult(t, g.Name, res, lin, err, linErr)
	if r := pool.releases.Load(); r != 0 {
		t.Fatalf("released %d lanes that were never acquired", r)
	}
}

// TestSpeculationCancellation cancels a speculative compilation mid-search
// — deterministically, from inside the lane-budget callback, after the
// round's lanes are already being launched — and requires a prompt
// ctx.Err() return with every lane joined and every borrowed arena back.
func TestSpeculationCancellation(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	g := hardLoop(t, m)

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The cancel lands mid-round: lanes are being launched right now.
	pool := &testPool{admit: true, onAcquire: cancel}
	done := make(chan error, 1)
	go func() {
		_, err := Search(cctx, g, m, Options{}, SearchConfig{Lanes: 4, Pool: pool})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled speculative compile returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled speculative compile did not return promptly")
	}
	if a, r := pool.acquires.Load(), pool.releases.Load(); a == 0 || a != r {
		t.Fatalf("lane arenas not returned after cancellation: %d acquired, %d released", a, r)
	}
}
