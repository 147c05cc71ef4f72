// Package workload synthesizes the evaluation workload: 678 innermost-loop
// DDGs organized into the ten SPECfp95 programs the paper reports on, each
// with profile weights (visit counts and average trip counts). The paper
// obtained its loops from the Ictineo compiler and profiled the programs;
// neither is available, so the generator reproduces the structural
// properties the paper's results depend on — see DESIGN.md for the
// substitution argument and per-program rationale.
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
)

// Loop is one modulo-schedulable innermost loop with its profile data.
type Loop struct {
	// Graph is the loop body DDG.
	Graph *ddg.Graph
	// Bench is the SPECfp95 program the loop belongs to.
	Bench string
	// Visits is how many times the loop is entered during the program run.
	Visits int64
	// AvgIters is the average iteration count per visit.
	AvgIters float64
}

// DynamicInstrs returns the number of useful (original, non-replicated)
// instructions the loop executes across the whole run.
func (l *Loop) DynamicInstrs() float64 {
	return float64(l.Graph.NumNodes()) * l.AvgIters * float64(l.Visits)
}

// Profile describes how loops of one benchmark are synthesized.
type Profile struct {
	// Name is the lower-case program name as in the paper's figures.
	Name string
	// Loops is the number of modulo-schedulable innermost loops.
	Loops int
	// MinOps and MaxOps bound the loop body size.
	MinOps, MaxOps int
	// ShapeWeights gives the relative frequency of each structural family.
	ShapeWeights [4]float64
	// ItersLo and ItersHi bound the average trip count per visit.
	ItersLo, ItersHi float64
	// VisitsLo and VisitsHi bound the visit counts.
	VisitsLo, VisitsHi int64
	// Gen tunes the structural generator (broadcast density, locality).
	Gen corpus.Params
}

// Profiles returns the ten SPECfp95 program profiles, in the presentation
// order of the paper's Fig. 7. The structural choices encode the per-
// program behavior the paper reports:
//
//   - tomcatv/swim/su2cor: stencil codes dominated by broadcast address
//     arithmetic — heavily communication-bound, hence the largest
//     replication wins (+65/+50/+70% in the paper).
//   - hydro2d/turb3d/apsi/wave5: mixed structure, moderate wins.
//   - mgrid: parallel strands, already partition cleanly (Fig. 8).
//   - applu: communication-bound like the stencils, but trip counts around
//     4, so II improvements barely move IPC (Fig. 9 and §4).
//   - fpppp: very wide blocks, register-pressure-bound.
func Profiles() []Profile {
	return []Profile{
		{Name: "tomcatv", Loops: 12, MinOps: 24, MaxOps: 56,
			ShapeWeights: [4]float64{0.9, 0, 0.1, 0}, ItersLo: 60, ItersHi: 260, VisitsLo: 300, VisitsHi: 800,
			Gen: corpus.Params{AddrLo: 4, AddrHi: 5, Sprinkle: 0.38}},
		{Name: "swim", Loops: 24, MinOps: 20, MaxOps: 48,
			ShapeWeights: [4]float64{0.8, 0.1, 0.1, 0}, ItersLo: 60, ItersHi: 520, VisitsLo: 200, VisitsHi: 1200,
			Gen: corpus.Params{AddrLo: 3, AddrHi: 4, Sprinkle: 0.32}},
		{Name: "su2cor", Loops: 66, MinOps: 18, MaxOps: 52,
			ShapeWeights: [4]float64{0.9, 0, 0.1, 0}, ItersLo: 20, ItersHi: 130, VisitsLo: 200, VisitsHi: 2000,
			Gen: corpus.Params{AddrLo: 4, AddrHi: 5, Sprinkle: 0.38}},
		{Name: "hydro2d", Loops: 92, MinOps: 12, MaxOps: 40,
			ShapeWeights: [4]float64{0.5, 0.25, 0.25, 0}, ItersLo: 20, ItersHi: 120, VisitsLo: 100, VisitsHi: 1500,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 3, Sprinkle: 0.16, Locality: true}},
		{Name: "mgrid", Loops: 22, MinOps: 16, MaxOps: 44,
			ShapeWeights: [4]float64{0.05, 0.9, 0.05, 0}, ItersLo: 16, ItersHi: 64, VisitsLo: 500, VisitsHi: 4000,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 2, Sprinkle: 0.15, Locality: true}},
		{Name: "applu", Loops: 84, MinOps: 16, MaxOps: 44,
			ShapeWeights: [4]float64{0.75, 0.1, 0.15, 0}, ItersLo: 4, ItersHi: 5, VisitsLo: 5000, VisitsHi: 40000,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 3, Sprinkle: 0.18, Locality: true}},
		{Name: "turb3d", Loops: 56, MinOps: 12, MaxOps: 36,
			ShapeWeights: [4]float64{0.45, 0.35, 0.2, 0}, ItersLo: 16, ItersHi: 90, VisitsLo: 200, VisitsHi: 2500,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 3, Sprinkle: 0.16, Locality: true}},
		{Name: "apsi", Loops: 104, MinOps: 10, MaxOps: 36,
			ShapeWeights: [4]float64{0.45, 0.3, 0.25, 0}, ItersLo: 10, ItersHi: 80, VisitsLo: 100, VisitsHi: 1200,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 3, Sprinkle: 0.16, Locality: true}},
		{Name: "fpppp", Loops: 34, MinOps: 48, MaxOps: 120,
			ShapeWeights: [4]float64{0.1, 0.1, 0, 0.8}, ItersLo: 8, ItersHi: 40, VisitsLo: 300, VisitsHi: 2000,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 3, Sprinkle: 0.2, Locality: true}},
		{Name: "wave5", Loops: 184, MinOps: 10, MaxOps: 40,
			ShapeWeights: [4]float64{0.55, 0.2, 0.25, 0}, ItersLo: 12, ItersHi: 100, VisitsLo: 100, VisitsHi: 1800,
			Gen: corpus.Params{AddrLo: 2, AddrHi: 3, Sprinkle: 0.18, Locality: true}},
	}
}

// TotalLoops is the number of loops in the full suite; the paper evaluates
// 678 loops from SPECfp95.
const TotalLoops = 678

// Benchmarks returns the program names in presentation order.
func Benchmarks() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

func seedFor(bench string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", bench, i)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

func pickShape(rng *rand.Rand, w [4]float64) corpus.Shape {
	total := 0.0
	for _, x := range w {
		total += x
	}
	r := rng.Float64() * total
	for s, x := range w {
		if r < x {
			return corpus.Shape(s)
		}
		r -= x
	}
	return corpus.ShapeBroadcast
}

// GenerateBench synthesizes all loops of one benchmark profile.
func GenerateBench(p Profile) []*Loop {
	loops := make([]*Loop, 0, p.Loops)
	for i := 0; i < p.Loops; i++ {
		rng := rand.New(rand.NewSource(seedFor(p.Name, i)))
		size := p.MinOps + rng.Intn(p.MaxOps-p.MinOps+1)
		shape := pickShape(rng, p.ShapeWeights)
		g := corpus.Generate(shape, fmt.Sprintf("%s_loop%03d", p.Name, i), rng, size, p.Gen)
		iters := p.ItersLo + rng.Float64()*(p.ItersHi-p.ItersLo)
		visits := p.VisitsLo + rng.Int63n(p.VisitsHi-p.VisitsLo+1)
		loops = append(loops, &Loop{Graph: g, Bench: p.Name, Visits: visits, AvgIters: iters})
	}
	return loops
}

var (
	suiteOnce sync.Once
	suite     []*Loop
	suiteByB  map[string][]*Loop
)

// SPECfp95 returns the full 678-loop suite. The suite is deterministic and
// cached; callers must not mutate the returned loops.
func SPECfp95() []*Loop {
	suiteOnce.Do(func() {
		suiteByB = make(map[string][]*Loop)
		for _, p := range Profiles() {
			ls := GenerateBench(p)
			suite = append(suite, ls...)
			suiteByB[p.Name] = ls
		}
	})
	return suite
}

// LoopsFor returns the loops of one benchmark from the cached suite.
func LoopsFor(bench string) []*Loop {
	SPECfp95()
	return suiteByB[bench]
}
