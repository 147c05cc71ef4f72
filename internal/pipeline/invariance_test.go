package pipeline

import (
	"fmt"
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// TestIIInvariantUnderPermute pins the metamorphic relation "II is
// invariant under ddg.Permute": a loop compiles to the same MII, II,
// length, stage count, communications, replication and cause tallies
// however it is numbered, because Search compiles every loop in its
// canonical presentation. It covers the suite on the six Table 1 machines
// (paper with replication) and 1 000 corpus loops under the four
// strategies on 4c2b2l64r, each loop as generated and under three seeded
// ddg.PermuteRandom presentations, and each clone's schedule must verify
// on the clone's own graph. The suite loops whose labeling is not Complete
// stay in. Short mode takes every fifth loop.
func TestIIInvariantUnderPermute(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 5
	}
	incomplete, compared := 0, 0
	check := func(g *ddg.Graph, m machine.Config, opts Options, arena *Arena) {
		t.Helper()
		cfg := SearchConfig{Arena: arena}
		want, wantErr := Search(t.Context(), g, m, opts, cfg)
		for seed := int64(1); seed <= 3; seed++ {
			clone := ddg.PermuteRandom(g, fmt.Sprintf("%s#%d", g.Name, seed), seed)
			got, err := Search(t.Context(), clone, m, opts, cfg)
			label := fmt.Sprintf("%s on %s (%s), presentation %d", g.Name, m.Name, opts.StrategyName(), seed)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, as generated %v", label, err, wantErr)
			}
			if err != nil {
				continue
			}
			compared++
			if got.MII != want.MII || got.II != want.II || got.Length != want.Length || got.SC != want.SC ||
				got.Comms != want.Comms || got.CommsBeforeReplication != want.CommsBeforeReplication ||
				got.Replicated != want.Replicated || got.Removed != want.Removed || got.IIIncreases != want.IIIncreases {
				t.Fatalf("%s: MII %d II %d length %d SC %d comms %d/%d replicated %v removed %d causes %v;"+
					" as generated MII %d II %d length %d SC %d comms %d/%d replicated %v removed %d causes %v", label,
					got.MII, got.II, got.Length, got.SC, got.CommsBeforeReplication, got.Comms, got.Replicated, got.Removed, got.IIIncreases,
					want.MII, want.II, want.Length, want.SC, want.CommsBeforeReplication, want.Comms, want.Replicated, want.Removed, want.IIIncreases)
			}
			if got.Loop != clone || got.Schedule.IG.G != clone {
				t.Fatalf("%s: the Result is not a schedule of the clone", label)
			}
			if err := sched.Verify(got.Schedule); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Adopt recounts length, stages and register pressure from the
			// relabeled times; Relabel keeps the accepted schedule's.
			s := got.Schedule
			re, err := sched.Adopt(s.IG, s.II, s.Time, sched.Options{SkipRegisterCheck: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if re.Length != s.Length || re.SC != s.SC || !slices.Equal(re.MaxLive, s.MaxLive) {
				t.Fatalf("%s: recounted length %d SC %d MaxLive %v, relabeled %d %d %v",
					label, re.Length, re.SC, re.MaxLive, s.Length, s.SC, s.MaxLive)
			}
		}
	}

	suite := workload.SPECfp95()
	for i := 0; i < len(suite); i += stride {
		if !suite[i].Graph.CanonicalForm().Complete {
			incomplete++
		}
	}
	for _, m := range machine.PaperConfigs() {
		arena := NewArena()
		for i := 0; i < len(suite); i += stride {
			check(suite[i].Graph, m, Options{Replicate: true}, arena)
		}
	}
	if incomplete == 0 {
		t.Error("no suite loop with an incomplete labeling was compared")
	}

	spec, m := corpus.DefaultSpec(), machine.MustParse("4c2b2l64r")
	for _, strategy := range StrategyNames() {
		arena := NewArena()
		for i := 0; i < 1000; i += stride {
			check(spec.Loop(i), m, Options{Strategy: strategy, Replicate: strategy == "paper"}, arena)
		}
	}
	t.Logf("%d renumbered compilations compared; %d suite loops with an incomplete labeling", compared, incomplete)
}
