package codegen

import (
	"fmt"
	"sort"

	"clusched/internal/vliwsim"
)

// Simulate executes the expanded software pipeline — prolog, repeated
// kernel blocks, epilog — against a physical register-file model and
// returns the store trace, which must equal vliwsim.Reference of the source
// loop. The trip count must satisfy the preconditioning constraint the
// expansion was emitted for: iters = SC-1 + R·MVE with R ≥ 1 (classic
// modulo-scheduling loop preconditioning; real compilers peel the remainder
// iterations into a scalar loop).
//
// This is an independent implementation of the pipeline semantics: it does
// not consult the schedule's instance graph for timing, only the emitted
// bundles and register numbers (an op's instance only says which node it
// evaluates), so it catches MVE and register-allocation bugs that the
// schedule-level simulator cannot see.
func Simulate(p *Program, iters int) (*vliwsim.Trace, error) {
	if rem := iters - (p.SC - 1); rem < p.MVE || rem%p.MVE != 0 {
		return nil, fmt.Errorf("codegen: trip count %d violates preconditioning N = %d + R·%d",
			iters, p.SC-1, p.MVE)
	}
	ig := p.sched.IG
	g := ig.G

	regs := make([][]uint64, ig.P.K)
	for c := range regs {
		n := p.RegsUsed[c]
		if n == 0 {
			n = 1
		}
		regs[c] = make([]uint64, n)
	}
	// Pending register writes: committed when the producing latency has
	// elapsed, so late consumers of the previous rotation still read the
	// old value exactly as the hardware would.
	var pending []timedWrite
	seq := 0
	commit := func(now int) {
		sort.SliceStable(pending, func(i, j int) bool {
			if pending[i].at != pending[j].at {
				return pending[i].at < pending[j].at
			}
			return pending[i].seq < pending[j].seq
		})
		k := 0
		for ; k < len(pending) && pending[k].at <= now; k++ {
			w := pending[k]
			regs[w.reg.Cluster][w.reg.Index] = w.val
		}
		pending = pending[k:]
	}

	tr := &vliwsim.Trace{}
	var operands []uint64
	execBundle := func(b Bundle, cycle int, iterOf func(op Op) int) error {
		commit(cycle)
		for _, op := range b.Ops {
			iter := iterOf(op)
			in := ig.Inst[op.inst]
			operands = operands[:0]
			for _, r := range op.Srcs {
				operands = append(operands, regs[r.Cluster][r.Index])
			}
			switch {
			case op.Kind.IsStore():
				tr.Stores = append(tr.Stores, vliwsim.StoreRecord{
					Node: int(in.Orig), Iter: iter, Value: vliwsim.StoreValue(operands)})
			case op.Kind == 0:
				return fmt.Errorf("codegen: op %s has invalid kind", op.Name)
			default:
				var val uint64
				lat := op.Kind.Latency()
				if in.IsCopy {
					if len(operands) != 1 {
						return fmt.Errorf("codegen: copy %s has %d operands", op.Name, len(operands))
					}
					val, lat = operands[0], ig.M.BusLatency
				} else {
					val = vliwsim.NodeValue(g, int(in.Orig), iter, operands)
				}
				for _, d := range op.Dest {
					pending = append(pending, timedWrite{at: cycle + lat, reg: d, val: val, seq: seq})
					seq++
				}
			}
		}
		return nil
	}

	// Seed the pending-write queue with the pre-loop values that loop-
	// carried dependences read before their first in-loop definition. A
	// real compiler's preheader plus prolog-inserted initialization copies
	// produce exactly these timed writes; with MVE rotation a single
	// register can carry several distinct pre-loop versions at different
	// prolog cycles, so the writes must be timed, not just preloaded.
	for _, w := range p.initialWrites() {
		w.seq += seq - 1000000
		pending = append(pending, w)
	}

	for _, b := range p.Prolog {
		if err := execBundle(b, b.Cycle, func(op Op) int { return op.iter }); err != nil {
			return nil, err
		}
	}
	steady := (p.SC - 1) * p.II
	reps := (iters - (p.SC - 1)) / p.MVE
	for r := 0; r < reps; r++ {
		base := p.SC - 1 + r*p.MVE
		for _, b := range p.Kernel {
			t := steady + r*p.MVE*p.II + (b.Cycle - steady)
			if err := execBundle(b, t, func(op Op) int { return base + op.iter }); err != nil {
				return nil, err
			}
		}
	}
	epilogStart := steady + reps*p.MVE*p.II
	for _, b := range p.Epilog {
		if err := execBundle(b, epilogStart+b.Cycle, func(op Op) int { return iters - 1 - op.iter }); err != nil {
			return nil, err
		}
	}

	sort.Slice(tr.Stores, func(i, j int) bool {
		a, b := tr.Stores[i], tr.Stores[j]
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Node < b.Node
	})
	return tr, nil
}

// VerifyAgainstReference executes the emitted pipeline for the given trip
// count and compares its store trace against the direct evaluation of the
// source loop.
func (p *Program) VerifyAgainstReference(iters int) error {
	got, err := Simulate(p, iters)
	if err != nil {
		return err
	}
	want := vliwsim.Reference(p.sched.IG.G, iters)
	if d := got.Diff(want); d != "" {
		return fmt.Errorf("codegen: pipeline trace mismatch: %s", d)
	}
	return nil
}

// timedWrite is a register write that lands when cycle at begins: a
// pending result in Simulate, or a preheader/prolog initialization (register
// reg must hold val by then). seq orders writes that land on the same cycle.
type timedWrite struct {
	at  int
	reg Reg
	val uint64
	seq int
}

// initialWrites computes the pre-loop values loop-carried dependences read
// (a reader of iteration k at distance d reads iteration k-d; negative
// source iterations are pre-loop values) and the cycle each must be present
// by. One rotating register can carry several distinct pre-loop versions at
// different cycles, so each (register, version) pair gets its own write,
// timed at the earliest read of that version.
func (p *Program) initialWrites() []timedWrite {
	ig := p.sched.IG
	type key struct {
		reg     Reg
		srcIter int
		orig    int
	}
	earliest := map[key]int{}

	scan := func(bs []Bundle, base int) {
		for _, b := range bs {
			for _, op := range b.Ops {
				iter := base + op.iter
				srcIdx := 0
				for _, eid := range ig.In(op.inst) {
					e := &ig.Edges[eid]
					if !e.Data {
						continue
					}
					if srcIdx >= len(op.Srcs) {
						break
					}
					r := op.Srcs[srcIdx]
					srcIdx++
					srcIter := iter - int(e.Dist)
					if srcIter >= 0 {
						continue
					}
					k := key{reg: r, srcIter: srcIter, orig: int(ig.Inst[e.Src].Orig)}
					if old, ok := earliest[k]; !ok || b.Cycle < old {
						earliest[k] = b.Cycle
					}
				}
			}
		}
	}
	scan(p.Prolog, 0)
	// Only the first kernel block can read pre-loop values (later blocks'
	// iterations are all ≥ MVE); its cycles are the emitted ones.
	scan(p.Kernel, p.SC-1)

	out := make([]timedWrite, 0, len(earliest))
	for k, at := range earliest {
		out = append(out, timedWrite{at: at, reg: k.reg, val: vliwsim.InitialValue(k.orig, k.srcIter)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		if out[i].reg != out[j].reg {
			return out[i].reg.Cluster*1000+out[i].reg.Index < out[j].reg.Cluster*1000+out[j].reg.Index
		}
		return false
	})
	for i := range out {
		out[i].seq = i
	}
	return out
}
