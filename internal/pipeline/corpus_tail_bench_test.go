package pipeline

import (
	"context"
	"sync"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
)

// corpusTail is the tail of corpus-sim's compiles (bench/): per strategy,
// the loops of its population — corpus.DefaultSpec() at seed 20031203,
// screened as it screens them (uas schedules the loop within 128 intervals
// of its MII) — whose II search on the headline machine climbs 20
// intervals or more, out of the first tailPopulation loops kept. The
// selection reads interval counts, not clocks, so the set repeats exactly.
var corpusTail = sync.OnceValue(func() map[string][]*ddg.Graph {
	const tailPopulation, tailClimb = 4096, 20
	m := machine.MustParse("4c2b2l64r")
	spec := corpus.DefaultSpec()
	spec.Seed = 20031203
	arena := NewArena()
	tails := map[string][]*ddg.Graph{}
	for i, kept := 0, 0; kept < tailPopulation; i++ {
		g := spec.Loop(i)
		screen := Options{Strategy: "uas", MaxII: mii.MII(g, m) + 128}
		if _, err := CompileContextArena(context.Background(), g, m, screen, arena); err != nil {
			continue
		}
		kept++
		for _, name := range tailStrategies {
			if r, err := CompileContextArena(context.Background(), g, m, tailOptions(name), arena); err == nil && r.II-r.MII >= tailClimb {
				tails[name] = append(tails[name], g)
			}
		}
	}
	return tails
})

// tailStrategies are corpus-sim's strategies, and tailOptions the options
// it compiles each with.
var tailStrategies = []string{"paper", "uas", "moddist", "unified"}

func tailOptions(name string) Options {
	return Options{Strategy: name, Replicate: name == DefaultStrategy, VerifySchedules: true}
}

// BenchmarkCorpusTail compiles corpus-sim's slowest jobs: one op runs the
// II search of every loop of a strategy's tail (corpusTail) once, on one
// warm arena, as the batch engine's workers do. The tail is where
// corpus-sim's p99 comes from: long climbs of the ladder, each failed
// attempt a full partition or sweep and schedule.
func BenchmarkCorpusTail(b *testing.B) {
	m := machine.MustParse("4c2b2l64r")
	tails := corpusTail()
	for _, name := range tailStrategies {
		b.Run(name, func(b *testing.B) {
			loops, opts := tails[name], tailOptions(name)
			if len(loops) == 0 {
				b.Skip("no loop climbs that far")
			}
			cfg := SearchConfig{Arena: NewArena()}
			b.ReportAllocs()
			for b.Loop() {
				for _, g := range loops {
					if _, err := Search(b.Context(), g, m, opts, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(loops)), "loops/op")
		})
	}
}
