package ddg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/workload"
)

func fpLoop(name string, lat int) *ddg.Graph {
	b := ddg.NewBuilder(name)
	x := b.Node("x", ddg.OpLoad)
	y := b.Node("y", ddg.OpFMul)
	s := b.Node("s", ddg.OpStore)
	b.EdgeLat(x, y, 0, lat)
	b.Edge(y, s, 0)
	return b.MustBuild()
}

// fpRecurrence is a loop with every edge field in play: a loop-carried
// data recurrence, a memory edge and a name longer than two words.
func fpRecurrence(name string) *ddg.Graph {
	b := ddg.NewBuilder(name)
	l := b.Node("l", ddg.OpLoad)
	a := b.Node("a", ddg.OpFAdd)
	s := b.Node("s", ddg.OpStore)
	b.Edge(l, a, 0)
	b.EdgeLat(a, a, 2, 3)
	b.Edge(a, s, 0)
	b.MemEdge(s, l, 1)
	return b.MustBuild()
}

// TestFingerprintGolden pins the algorithm: the disk cache writes the
// fingerprint into every entry's header, so a change to it must be made on
// purpose (entries written before it then take the isomorphic-copy path).
func TestFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		g    *ddg.Graph
		want uint64
	}{
		{new(ddg.Graph), 0x85471f6f34455c33},
		{fpLoop("a", 2), 0x20acd2af8cb9cbd9},
		{fpRecurrence("recurrence_with_a_long_name"), 0xe53a2a9dc4f7cbc5},
	} {
		if got := c.g.Fingerprint(); got != c.want {
			t.Errorf("%q: Fingerprint = %#016x, want %#016x", c.g.Name, got, c.want)
		}
	}
}

// TestFingerprintStableAndDiscriminating: equal graphs agree and every
// field the hash reads flips it — name, op, each edge field, edge order —
// while labels do not.
func TestFingerprintStableAndDiscriminating(t *testing.T) {
	g := fpLoop("a", 2)
	if g.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	same := map[string]*ddg.Graph{
		"identical build": fpLoop("a", 2),
		"clone":           g.Clone(),
	}
	relabeled := ddg.NewBuilder("a")
	x := relabeled.Node("in", ddg.OpLoad)
	y := relabeled.Node("mul", ddg.OpFMul)
	s := relabeled.Node("", ddg.OpStore)
	relabeled.EdgeLat(x, y, 0, 2)
	relabeled.Edge(y, s, 0)
	same["labels"] = relabeled.MustBuild()
	for name, h := range same {
		if h.Fingerprint() != g.Fingerprint() || !ddg.Equal(g, h) {
			t.Errorf("%s: fingerprint %x vs %x, Equal %v; want the same loop", name, h.Fingerprint(), g.Fingerprint(), ddg.Equal(g, h))
		}
	}

	// loop builds the three-node loop a → b → c with one field changed.
	type loopEdge struct {
		src, dst, dist, lat int
		kind                ddg.EdgeKind
	}
	loop := func(name string, mid ddg.OpKind, edges ...loopEdge) *ddg.Graph {
		b := ddg.NewBuilder(name)
		b.Node("x", ddg.OpLoad)
		b.Node("y", mid)
		b.Node("s", ddg.OpStore)
		for _, e := range edges {
			if e.kind == ddg.EdgeMem {
				b.MemEdgeLat(e.src, e.dst, e.dist, e.lat)
			} else {
				b.EdgeLat(e.src, e.dst, e.dist, e.lat)
			}
		}
		return b.MustBuild()
	}
	e01, e12 := loopEdge{0, 1, 0, 2, ddg.EdgeData}, loopEdge{1, 2, 0, 4, ddg.EdgeData}
	base := loop("loop_name_longer_than_eight", ddg.OpFMul, e01, e12)
	with := func(e loopEdge, f func(e *loopEdge)) loopEdge { f(&e); return e }
	differ := map[string]*ddg.Graph{
		"op":                     loop(base.Name, ddg.OpFAdd, e01, e12),
		"latency":                loop(base.Name, ddg.OpFMul, e01, with(e12, func(e *loopEdge) { e.lat = 5 })),
		"distance":               loop(base.Name, ddg.OpFMul, e01, with(e12, func(e *loopEdge) { e.dist = 1 })),
		"kind":                   loop(base.Name, ddg.OpFMul, e01, with(e12, func(e *loopEdge) { e.kind = ddg.EdgeMem })),
		"swapped src/dst":        loop(base.Name, ddg.OpFMul, with(e01, func(e *loopEdge) { e.src, e.dst = e.dst, e.src }), e12),
		"edge order":             loop(base.Name, ddg.OpFMul, e12, e01),
		"edge dropped":           loop(base.Name, ddg.OpFMul, e01),
		"name past byte 8":       loop("loop_nam3_longer_than_eight", ddg.OpFMul, e01, e12),
		"name past byte 16":      loop("loop_name_longer_than_eigh7", ddg.OpFMul, e01, e12),
		"name with trailing NUL": loop(base.Name+"\x00", ddg.OpFMul, e01, e12),
	}
	for name, h := range differ {
		if h.Fingerprint() == base.Fingerprint() || ddg.Equal(base, h) {
			t.Errorf("%s: fingerprint %x vs %x, Equal %v; want another loop", name, h.Fingerprint(), base.Fingerprint(), ddg.Equal(base, h))
		}
	}
	// Names that differ only by trailing NULs read the same words but for
	// their length.
	for _, n := range []string{"", "ab", "abcdefgh", "abcdefghijklmnop"} {
		if fpLoop(n, 2).Fingerprint() == fpLoop(n+"\x00", 2).Fingerprint() {
			t.Errorf("%q and %q share a fingerprint", n, n+"\x00")
		}
	}
}

// structure is an injective encoding of what Fingerprint and ddg.Equal
// read: the name, every op and every edge's fields, in order.
func structure(g *ddg.Graph) [sha256.Size]byte {
	b := binary.AppendUvarint(nil, uint64(len(g.Name)))
	b = append(b, g.Name...)
	b = binary.AppendUvarint(b, uint64(len(g.Nodes)))
	for i := range g.Nodes {
		b = binary.AppendVarint(b, int64(g.Nodes[i].Op))
	}
	b = binary.AppendUvarint(b, uint64(len(g.Edges)))
	for _, e := range g.Edges {
		for _, v := range []int{e.Src, e.Dst, e.Dist, int(e.Kind), e.Lat} {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return sha256.Sum256(b)
}

// TestFingerprintCensus: over the 678 suite loops, corpus loops 0–19 999 and
// one same-named PermuteRandom clone of each, fingerprint equality agrees
// with ddg.Equal on every pair. A pair's graphs are Equal exactly when
// their structure encodings are, so the two partitions — by fingerprint and
// by structure digest — must coincide; ddg.Equal itself is checked on each
// loop and its clone, a pair that shares the name and everything but order
// (or nothing but labels, where the permutation happens to be the
// identity).
func TestFingerprintCensus(t *testing.T) {
	digestFP := map[[sha256.Size]byte]uint64{} // structure digest → fingerprint
	fpDigest := map[uint64][sha256.Size]byte{} // fingerprint → structure digest
	census := func(g *ddg.Graph) {
		c := ddg.PermuteRandom(g, g.Name, int64(len(digestFP))+1)
		if eq := ddg.Equal(g, c); eq != (g.Fingerprint() == c.Fingerprint()) {
			t.Fatalf("%s: Equal to its clone %v, fingerprints %x and %x", g.Name, eq, g.Fingerprint(), c.Fingerprint())
		}
		for _, h := range []*ddg.Graph{g, c} {
			fp, d := h.Fingerprint(), structure(h)
			if prev, ok := digestFP[d]; ok && prev != fp {
				t.Fatalf("%s: equal structure under fingerprints %x and %x", h.Name, prev, fp)
			}
			if prev, ok := fpDigest[fp]; ok && prev != d {
				t.Fatalf("%s: fingerprint %x collides with another structure", h.Name, fp)
			}
			digestFP[d], fpDigest[fp] = fp, d
		}
	}
	for _, l := range workload.SPECfp95() {
		census(l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := range 20000 {
		census(spec.Loop(i))
	}
	t.Logf("%d distinct graphs, %d distinct fingerprints", len(digestFP), len(fpDigest))
}

// BenchmarkFingerprint hashes corpus loops 0–63 of the default spec under
// seed 20030703 (the sample the engine's BenchmarkExactHit serves); one op
// is one loop.
func BenchmarkFingerprint(b *testing.B) {
	spec := corpus.DefaultSpec()
	spec.Seed = 20030703
	loops := make([]*ddg.Graph, 64)
	for i := range loops {
		loops[i] = spec.Loop(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += loops[i%len(loops)].Fingerprint()
	}
	if sum == 1 {
		b.Log(sum) // keeps the hash live
	}
}
