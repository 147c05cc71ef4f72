package ddg

import (
	"encoding/binary"
	"math/bits"
)

// Fingerprint returns a 64-bit hash of the graph's identity: its name,
// operations and dependences (labels are excluded — they never affect
// compilation). Equal graphs always agree, across calls, processes and
// platforms, and the value moves only when the algorithm below is changed
// on purpose: golden values pin it, because the disk cache writes it into
// every entry's header (an entry written under another algorithm reads as
// another loop's, and is parsed and proven on the way in). The
// batch-compilation engine buckets its result cache on (fingerprint,
// machine, options). A fingerprint is a bucket, not an identity: two
// different graphs may collide, so the engine confirms a match with Equal
// and the disk cache proves a stored schedule on the job's own graph.
//
// The hash reads the graph as a stream of 64-bit words — the name's length
// and bytes, the node and edge counts, one word per op, and per edge its
// packed src/dst, dist, kind and lat — folded two at a time by a 64×64→128
// multiply.
func (g *Graph) Fingerprint() uint64 {
	h := fpFold(fpSeed, uint64(len(g.Name)), uint64(len(g.Nodes))<<32|uint64(uint32(len(g.Edges))))
	for name := g.Name; name != ""; {
		var w [16]byte
		name = name[copy(w[:], name):]
		h = fpFold(h, binary.LittleEndian.Uint64(w[:8]), binary.LittleEndian.Uint64(w[8:]))
	}
	nodes := g.Nodes
	for ; len(nodes) >= 2; nodes = nodes[2:] {
		h = fpFold(h, uint64(nodes[0].Op), uint64(nodes[1].Op))
	}
	if len(nodes) == 1 {
		h = fpFold(h, uint64(nodes[0].Op), 0)
	}
	for i := range g.Edges {
		// One word per field but src/dst, which are packed as 32-bit
		// halves, as node counts are.
		e := &g.Edges[i]
		h = fpFold(h, uint64(uint32(e.Src))<<32|uint64(uint32(e.Dst)), uint64(e.Dist))
		h = fpFold(h, uint64(e.Kind), uint64(e.Lat))
	}
	return fpFold(h, fpK1, fpK0)
}

// The fingerprint's constants: a seed and two odd 64-bit multipliers with
// well-spread bits (wyhash's).
const (
	fpSeed = 0x2d358dccaa6c78a5
	fpK0   = 0xa0761d6478bd642f
	fpK1   = 0xe7037ed1a0b428db
)

// fpFold absorbs the words a and b into h: the 128-bit product of a and b,
// each masked with a constant and b with h too, folded to 64 bits.
func fpFold(h, a, b uint64) uint64 {
	hi, lo := bits.Mul64(a^fpK0, b^fpK1^h)
	return hi ^ lo
}

// Equal reports whether a and b are the same loop as Fingerprint reads it:
// the same pointer, or the same name, the same op at every node and the
// same edges in the same order. Labels are not compared.
func Equal(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].Op != b.Nodes[i].Op {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}
