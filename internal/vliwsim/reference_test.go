package vliwsim

import (
	"fmt"
	"sort"

	"clusched/internal/ddg"
	"clusched/internal/sched"
)

// This file is the simulator as it stood before the single-pass rewrite in
// vliwsim.go — the event list ordered by sort.Slice, the two-Execute
// Measure and the slice-per-iteration Reference, moved here verbatim
// (identifiers prefixed "reference", nothing else changed). It is the
// oracle of the differential tests: the production executor must return
// the same traces, completion cycles, Reports and errors. What the rewrite
// left untouched (validate, mix, opSeed, Trace) is shared with production
// rather than copied.

// referenceInitialValue is the value of node v produced "before" the loop
// started (negative iteration indices reached through loop-carried
// dependences). It is keyed by the original node ID so replicas and the
// reference agree.
func referenceInitialValue(v, iter int) uint64 {
	return mix(mix(fnvOffset, uint64(v+1)*0x9e3779b97f4a7c15), uint64(int64(iter))+0x1234)
}

// referenceNodeValue computes the synthetic result of node v given its
// operand values in edge order. Loads additionally fold in the node
// identity and iteration (two loads of different arrays differ; the same
// load in different iterations differs).
func referenceNodeValue(g *ddg.Graph, v, iter int, operands []uint64) uint64 {
	op := g.Nodes[v].Op
	h := opSeed(op)
	for _, x := range operands {
		h = mix(h, x)
	}
	if op == ddg.OpLoad {
		h = mix(h, uint64(v+1)*0xdeadbeef)
		h = mix(h, uint64(iter)+1)
	}
	return h
}

// referenceReference evaluates the source loop directly for the given
// iteration count and returns its trace.
func referenceReference(g *ddg.Graph, iters int) *Trace {
	order := g.TopoOrder()
	// values[iter][node]; only a window of maxDist+1 iterations is needed,
	// but loops are small — keep it simple and store all.
	values := make([][]uint64, iters)
	tr := &Trace{}
	var operands []uint64
	for k := 0; k < iters; k++ {
		values[k] = make([]uint64, g.NumNodes())
		for _, v := range order {
			operands = operands[:0]
			for _, eid := range g.In(v) {
				e := &g.Edges[eid]
				if e.Kind != ddg.EdgeData {
					continue
				}
				src := k - e.Dist
				if src < 0 {
					operands = append(operands, referenceInitialValue(e.Src, src))
				} else {
					operands = append(operands, values[src][e.Src])
				}
			}
			if g.Nodes[v].Op.IsStore() {
				h := opSeed(ddg.OpStore)
				for _, x := range operands {
					h = mix(h, x)
				}
				tr.Stores = append(tr.Stores, StoreRecord{Node: v, Iter: k, Value: h})
				continue
			}
			values[k][v] = referenceNodeValue(g, v, k, operands)
		}
	}
	tr.canonicalize()
	return tr
}

// referenceExecute runs the modulo schedule for the given iteration count
// on a cycle-accurate event order and returns its trace plus the cycle on
// which the last operation completes.
func referenceExecute(s *sched.Schedule, iters int) (*Trace, int, error) {
	if err := validate(s); err != nil {
		return nil, 0, err
	}
	ig := s.IG
	g := ig.G
	n := ig.NumInstances()

	type instIter struct {
		inst int32
		iter int
	}
	// Issue events ordered by cycle; ties broken by instance index. An
	// instance of iteration k issues at Time[inst] + k·II.
	events := make([]instIter, 0, n*iters)
	for i := int32(0); i < int32(n); i++ {
		for k := 0; k < iters; k++ {
			events = append(events, instIter{inst: i, iter: k})
		}
	}
	issueCycle := func(e instIter) int { return s.Time[e.inst] + e.iter*s.II }
	sort.Slice(events, func(i, j int) bool {
		ci, cj := issueCycle(events[i]), issueCycle(events[j])
		if ci != cj {
			return ci < cj
		}
		return events[i].inst < events[j].inst
	})

	values := make([]uint64, n*iters)
	computed := make([]bool, n*iters)
	slot := func(inst int32, iter int) int { return int(inst)*iters + iter }

	tr := &Trace{}
	lastDone := 0
	var operands []uint64
	for _, ev := range events {
		inst := ig.Inst[ev.inst]
		issue := issueCycle(ev)
		operands = operands[:0]
		readFailed := ""
		for _, eid := range ig.In(ev.inst) {
			e := &ig.Edges[eid]
			if !e.Data {
				continue
			}
			srcIter := ev.iter - int(e.Dist)
			if srcIter < 0 {
				operands = append(operands, referenceInitialValue(ig.Inst[e.Src].Orig, srcIter))
				continue
			}
			// The producer must have completed: issue(src) + lat <= issue.
			srcIssue := s.Time[e.Src] + srcIter*s.II
			if srcIssue+int(e.Lat) > issue {
				readFailed = fmt.Sprintf("operand of %s (iter %d) not ready: %s issues at %d+%d, consumer at %d",
					ig.Name(ev.inst), ev.iter, ig.Name(e.Src), srcIssue, e.Lat, issue)
				break
			}
			if !computed[slot(e.Src, srcIter)] {
				readFailed = fmt.Sprintf("internal: producer %s iter %d not simulated before %s",
					ig.Name(e.Src), srcIter, ig.Name(ev.inst))
				break
			}
			operands = append(operands, values[slot(e.Src, srcIter)])
		}
		if readFailed != "" {
			return nil, 0, fmt.Errorf("vliwsim: %s", readFailed)
		}

		switch {
		case inst.IsCopy:
			// A copy transports its single operand unchanged.
			if len(operands) != 1 {
				return nil, 0, fmt.Errorf("vliwsim: copy of %s has %d operands", g.NodeName(inst.Orig), len(operands))
			}
			values[slot(ev.inst, ev.iter)] = operands[0]
		case g.Nodes[inst.Orig].Op.IsStore():
			h := opSeed(ddg.OpStore)
			for _, x := range operands {
				h = mix(h, x)
			}
			tr.Stores = append(tr.Stores, StoreRecord{Node: inst.Orig, Iter: ev.iter, Value: h})
		default:
			values[slot(ev.inst, ev.iter)] = referenceNodeValue(g, inst.Orig, ev.iter, operands)
		}
		computed[slot(ev.inst, ev.iter)] = true
		if done := issue + ig.Latency(ev.inst); done > lastDone {
			lastDone = done
		}
	}
	tr.canonicalize()
	return tr, lastDone, nil
}

// referenceMeasure executes the schedule, compares its trace against the
// reference, and measures steady-state cycles/iteration empirically (by
// running a longer execution and differencing completion cycles).
func referenceMeasure(s *sched.Schedule, iters int) (*Report, error) {
	if iters < 1 {
		iters = 1
	}
	got, lastDone, err := referenceExecute(s, iters)
	if err != nil {
		return nil, err
	}
	_, lastLonger, err := referenceExecute(s, iters+steadySpan)
	if err != nil {
		return nil, err
	}
	ref := referenceReference(s.IG.G, iters)
	return &Report{
		Iters:         iters,
		LastDone:      lastDone,
		ModelLastDone: (iters-1)*s.II + s.Length,
		CyclesPerIter: float64(lastLonger-lastDone) / steadySpan,
		TraceDiff:     got.Diff(ref),
	}, nil
}
