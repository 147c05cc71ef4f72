package pipeline

import (
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/workload"
)

// BenchmarkRemapResult is the semantic cache tier's hit path: one op per
// schedulable loop of the 678-loop suite, its cached compilation
// transplanted onto a renamed, reordered clone and re-proved by
// sched.Adopt. The canonical forms of both graphs are computed before the
// clock starts, as they are when the driver looks the clone up.
func BenchmarkRemapResult(b *testing.B) {
	m := remapMachine()
	opts := Options{Replicate: true}
	var cached []*Result
	var clones []*ddg.Graph
	for i, l := range workload.SPECfp95() {
		res, err := Compile(l.Graph, m, opts)
		if err != nil {
			continue
		}
		clone := ddg.PermuteRandom(l.Graph, l.Graph.Name+"#p", int64(i)*104729+17)
		l.Graph.CanonicalFingerprint()
		clone.CanonicalFingerprint()
		cached, clones = append(cached, res), append(clones, clone)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := i % len(cached)
		if _, err := RemapResult(cached[k], clones[k], opts); err != nil {
			b.Fatal(err)
		}
	}
}
