// Package codegen expands a verified modulo schedule into software-
// pipelined VLIW code: a prolog that fills the pipeline, a steady-state
// kernel unrolled for modulo variable expansion (MVE), and an epilog that
// drains it. Values whose lifetimes exceed one II would be overwritten by
// the next iteration's instance of their producer; MVE gives each such
// value q = floor(lifetime/II)+1 rotating registers and unrolls the kernel
// so every occurrence addresses the right one (Rau, "Iterative Modulo
// Scheduling", which the paper's execution model [21] builds on).
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"clusched/internal/ddg"
	"clusched/internal/sched"
)

// Reg names one physical register: a cluster-local index.
type Reg struct {
	Cluster int
	Index   int
}

// String renders like "c1.r4".
func (r Reg) String() string { return fmt.Sprintf("c%d.r%d", r.Cluster, r.Index) }

// Op is one operation slot of a VLIW bundle.
type Op struct {
	// Name is the source node's name (or "copy(name)" for bus copies).
	Name string
	// Kind is the executed operation.
	Kind ddg.OpKind
	// Cluster executes the op (for copies: the value's home cluster).
	Cluster int
	// Stage is the pipeline stage of the op (Time / II).
	Stage int
	// IterTag labels which iteration the occurrence belongs to ("k",
	// "n+2", "N-1", ...), for human consumption.
	IterTag string
	// Dest is the destination register; nil for stores. Copies broadcast:
	// they have one Dest per consuming cluster.
	Dest []Reg
	// Srcs are the operand registers, in dependence-edge order.
	Srcs []Reg

	// inst is the instance the op issues; iter is its iteration as IterTag
	// spells it: absolute in the prolog, relative to the kernel block's
	// first iteration in the kernel, counted back from the last one in the
	// epilog.
	inst int32
	iter int
}

// Bundle is one VLIW instruction: everything issued in one cycle.
type Bundle struct {
	Cycle int
	Ops   []Op
}

// Program is the expanded software pipeline.
type Program struct {
	// II and SC are the initiation interval and stage count.
	II, SC int
	// MVE is the kernel unroll factor Q.
	MVE int
	// Prolog fills stages for iterations 0..SC-2; Kernel is the steady
	// state (Q·II cycles); Epilog drains the final SC-1 iterations.
	Prolog, Kernel, Epilog []Bundle
	// RegsUsed[c] is the number of physical registers allocated in cluster
	// c (the MVE allocation: one block of q registers per value).
	RegsUsed []int
	// FitsRegisterFile reports whether every cluster's allocation fits the
	// machine's register file. MVE without rotating files can need more
	// than MaxLive registers; hardware with rotating registers would get
	// by with MaxLive.
	FitsRegisterFile bool

	sched *sched.Schedule
}

// value identifies a register value: the producing instance, materialized
// in a specific cluster (copies materialize in every consuming cluster).
type value struct {
	inst    int32
	cluster int
}

// StageError reports a schedule that issues an instance past its last
// stage, Time/II ≥ SC, which the expansion has no bundle for. A zero-bus
// schedule can: a copy of latency 0 issued at cycle Length adds nothing to
// Length, so SC = ⌈Length/II⌉ does not count its stage.
type StageError struct {
	Inst         string // the instance's name
	Time, II, SC int
}

func (e *StageError) Error() string {
	return fmt.Sprintf("codegen: %s issues at cycle %d, in stage %d of a %d-stage schedule at II %d",
		e.Inst, e.Time, e.Time/e.II, e.SC, e.II)
}

// Expand builds the software pipeline for a schedule. A schedule that
// issues past its last stage is refused with a *StageError.
func Expand(s *sched.Schedule) (*Program, error) {
	ig := s.IG
	for i, t := range s.Time {
		if t/s.II >= s.SC {
			return nil, &StageError{Inst: ig.Name(int32(i)), Time: t, II: s.II, SC: s.SC}
		}
	}
	p := &Program{II: s.II, SC: s.SC, sched: s, RegsUsed: make([]int, ig.P.K)}

	// 1. Value lifetimes per (instance, cluster).
	defs := map[value]int{}    // cycle the value is available
	lastUse := map[value]int{} // latest read, in producer-iteration time
	for i := int32(0); i < int32(ig.NumInstances()); i++ {
		in := ig.Inst[i]
		if !in.IsCopy && ig.G.Nodes[in.Orig].Op.IsStore() {
			continue
		}
		def := s.Time[i] + ig.Latency(i)
		if in.IsCopy {
			// One materialization per consuming cluster.
			for _, eid := range ig.Out(i) {
				e := &ig.Edges[eid]
				if !e.Data {
					continue
				}
				v := value{inst: i, cluster: int(ig.Inst[e.Dst].Cluster)}
				if _, ok := defs[v]; !ok {
					defs[v] = def
					lastUse[v] = def
				}
				if u := s.Time[e.Dst] + s.II*int(e.Dist); u > lastUse[v] {
					lastUse[v] = u
				}
			}
			continue
		}
		v := value{inst: i, cluster: int(in.Cluster)}
		defs[v] = def
		lastUse[v] = def
		for _, eid := range ig.Out(i) {
			e := &ig.Edges[eid]
			if !e.Data {
				continue
			}
			// Only reads in the producer's cluster consume this
			// materialization; remote reads go through the copy.
			if ig.Inst[e.Dst].Cluster != in.Cluster && !ig.Inst[e.Dst].IsCopy {
				continue
			}
			if u := s.Time[e.Dst] + s.II*int(e.Dist); u > lastUse[v] {
				lastUse[v] = u
			}
		}
	}

	// 2. MVE factors and register allocation: one contiguous block of q
	// registers per value, rotated by iteration index mod q.
	qOf := map[value]int{}
	maxQ := 1
	for v, def := range defs {
		q := (lastUse[v]-def)/s.II + 1
		qOf[v] = q
		if q > maxQ {
			maxQ = q
		}
	}
	// The kernel unroll must be a common multiple of every q; lcm of small
	// numbers stays small, but cap it by promoting every q to maxQ if it
	// would explode.
	Q := 1
	for _, q := range qOf {
		Q = lcm(Q, q)
		if Q > 64 {
			Q = maxQ
			for v := range qOf {
				qOf[v] = maxQ
			}
			break
		}
	}
	p.MVE = Q

	base := map[value]int{}
	// Deterministic allocation order.
	vals := make([]value, 0, len(defs))
	for v := range defs {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].cluster != vals[j].cluster {
			return vals[i].cluster < vals[j].cluster
		}
		return vals[i].inst < vals[j].inst
	})
	for _, v := range vals {
		base[v] = p.RegsUsed[v.cluster]
		p.RegsUsed[v.cluster] += qOf[v]
	}
	p.FitsRegisterFile = true
	for _, used := range p.RegsUsed {
		if used > ig.M.Regs {
			p.FitsRegisterFile = false
		}
	}

	regFor := func(v value, iter int) Reg {
		q := qOf[v]
		idx := ((iter % q) + q) % q
		return Reg{Cluster: v.cluster, Index: base[v] + idx}
	}

	// 3. Emit one op occurrence of iteration iter; off is its iteration
	// as tag spells it.
	emit := func(i int32, iter, off int, tag string) Op {
		in := ig.Inst[i]
		op := Op{
			Name:    ig.Name(i),
			Kind:    in.Op(ig.G),
			Cluster: int(in.Cluster),
			Stage:   s.Time[i] / s.II,
			IterTag: tag,
			inst:    i,
			iter:    off,
		}
		for _, eid := range ig.In(i) {
			e := &ig.Edges[eid]
			if !e.Data {
				continue
			}
			srcIter := iter - int(e.Dist)
			cluster := int(in.Cluster)
			if in.IsCopy {
				cluster = ig.P.Home[in.Orig] // copies read in the home cluster
			}
			op.Srcs = append(op.Srcs, regFor(value{inst: e.Src, cluster: clusterOfRead(ig, e.Src, cluster)}, srcIter))
		}
		if in.IsCopy {
			seen := map[int]bool{}
			for _, eid := range ig.Out(i) {
				e := &ig.Edges[eid]
				if e.Data && !seen[int(ig.Inst[e.Dst].Cluster)] {
					seen[int(ig.Inst[e.Dst].Cluster)] = true
					op.Dest = append(op.Dest, regFor(value{inst: i, cluster: int(ig.Inst[e.Dst].Cluster)}, iter))
				}
			}
			sort.Slice(op.Dest, func(a, b int) bool { return op.Dest[a].Cluster < op.Dest[b].Cluster })
		} else if !ig.G.Nodes[in.Orig].Op.IsStore() {
			op.Dest = []Reg{regFor(value{inst: i, cluster: int(in.Cluster)}, iter)}
		}
		return op
	}

	// 4. Prolog: all issues of iterations 0..SC-2 that land before the
	// steady state begins at cycle (SC-1)·II.
	steady := (s.SC - 1) * s.II
	prolog := make([]Bundle, steady)
	for t := range prolog {
		prolog[t].Cycle = t
	}
	for i := int32(0); i < int32(ig.NumInstances()); i++ {
		for k := 0; k < s.SC-1; k++ {
			t := s.Time[i] + k*s.II
			if t < steady {
				prolog[t].Ops = append(prolog[t].Ops, emit(i, k, k, fmt.Sprintf("%d", k)))
			}
		}
	}
	p.Prolog = trimEmpty(prolog)

	// 5. Kernel: Q·II cycles; at unroll u, the op of stage g executes
	// iteration base+u-g, where base = SC-1 for the first kernel block and
	// advances by Q per block (Q divides every q, so register rotation is
	// block-invariant and the emitted indices are correct for every block).
	kernel := make([]Bundle, Q*s.II)
	for t := range kernel {
		kernel[t].Cycle = steady + t
	}
	for i := int32(0); i < int32(ig.NumInstances()); i++ {
		slot := s.Time[i] % s.II
		stage := s.Time[i] / s.II
		for u := 0; u < Q; u++ {
			d := u - stage
			kernel[u*s.II+slot].Ops = append(kernel[u*s.II+slot].Ops, emit(i, s.SC-1+d, d, fmt.Sprintf("n%+d", d)))
		}
	}
	p.Kernel = kernel

	// 6. Epilog: drain the last SC-1 iterations; the occurrence of stage g
	// for the j-th iteration from the end appears g-j-1 stages into the
	// epilog.
	epilog := make([]Bundle, steady)
	for t := range epilog {
		epilog[t].Cycle = t
	}
	for i := int32(0); i < int32(ig.NumInstances()); i++ {
		stage := s.Time[i] / s.II
		slot := s.Time[i] % s.II
		for j := 0; j < stage; j++ {
			// Iteration N-1-j still needs its stages j+1..SC-1. Register
			// rotation assumes the preconditioned trip count N = SC-1+R·Q
			// (classic modulo-scheduling preconditioning), under which
			// N-1-j ≡ SC-2-j (mod q) for every q dividing Q.
			t := (stage - j - 1) * s.II
			tag := "N-1"
			if j > 0 {
				tag = fmt.Sprintf("N-1-%d", j)
			}
			epilog[t+slot].Ops = append(epilog[t+slot].Ops, emit(i, s.SC-2-j, j, tag))
		}
	}
	p.Epilog = trimEmpty(epilog)

	sortBundles(p.Prolog)
	sortBundles(p.Kernel)
	sortBundles(p.Epilog)
	return p, nil
}

// clusterOfRead resolves which materialization a reader consumes: the
// reader's own cluster (local instance or copy-delivered value).
func clusterOfRead(ig *sched.IGraph, src int32, readerCluster int) int {
	if ig.Inst[src].IsCopy {
		return readerCluster // the copy materialized a register here
	}
	return int(ig.Inst[src].Cluster)
}

func trimEmpty(bs []Bundle) []Bundle {
	out := bs[:0]
	for _, b := range bs {
		if len(b.Ops) > 0 {
			out = append(out, b)
		}
	}
	return out
}

func sortBundles(bs []Bundle) {
	for i := range bs {
		ops := bs[i].Ops
		sort.Slice(ops, func(a, b int) bool {
			if ops[a].Cluster != ops[b].Cluster {
				return ops[a].Cluster < ops[b].Cluster
			}
			return ops[a].Name < ops[b].Name
		})
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Format renders the program as annotated VLIW assembly.
func (p *Program) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; software pipeline: II=%d stages=%d MVE=%d regs/cluster=%v fits=%v\n",
		p.II, p.SC, p.MVE, p.RegsUsed, p.FitsRegisterFile)
	section := func(name string, bs []Bundle) {
		fmt.Fprintf(&sb, "%s:\n", name)
		for _, b := range bs {
			fmt.Fprintf(&sb, "  %4d:", b.Cycle)
			for _, op := range b.Ops {
				sb.WriteString("  ")
				sb.WriteString(formatOp(op))
			}
			sb.WriteByte('\n')
		}
	}
	section("prolog", p.Prolog)
	section("kernel", p.Kernel)
	section("epilog", p.Epilog)
	return sb.String()
}

func formatOp(op Op) string {
	var sb strings.Builder
	if len(op.Dest) > 0 {
		for i, d := range op.Dest {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(d.String())
		}
		sb.WriteString(" = ")
	}
	fmt.Fprintf(&sb, "%s(", op.Name)
	for i, s := range op.Srcs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(s.String())
	}
	fmt.Fprintf(&sb, ")[%s]", op.IterTag)
	return sb.String()
}
