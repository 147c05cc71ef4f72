package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/workload"
)

// referenceUASOrder is the UAS sweep's placement order as it was sorted
// before uasOrder packed its keys, kept verbatim as uasOrder's oracle.
func referenceUASOrder(tm *ddg.Timing) []int32 {
	order := make([]int32, len(tm.ASAP))
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		if c := cmp.Compare(tm.ALAP[a], tm.ALAP[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(tm.ASAP[a], tm.ASAP[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// hostileLatencyLoop is a fan of n loads feeding one add through edges of
// the given latencies (cycled), a loop-carried edge back to the first load,
// and a store: ALAP and ASAP times around and beyond what uasOrder packs,
// with ties among the loads.
func hostileLatencyLoop(n int, lats ...int) *ddg.Graph {
	b := ddg.NewBuilder(fmt.Sprintf("hostile%v", lats))
	sum := b.Node("sum", ddg.OpIAdd)
	for i := 0; i < n; i++ {
		ld := b.Node("", ddg.OpLoad)
		b.EdgeLat(ld, sum, 0, lats[i%len(lats)])
		if i == 0 {
			b.EdgeLat(sum, ld, 2, lats[len(lats)-1])
		}
	}
	b.Edge(sum, b.Node("st", ddg.OpStore), 0)
	return b.MustBuild()
}

// TestUASOrderMatchesReference holds uasOrder to the retired comparator sort
// at a ladder of intervals over the suite, 2 000 corpus loops and a table of
// hostile latencies, where times at and past the packed field's range must
// take the comparator path and still agree.
func TestUASOrderMatchesReference(t *testing.T) {
	var graphs []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		graphs = append(graphs, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := 0; i < 2000; i++ {
		graphs = append(graphs, spec.Loop(i))
	}
	const limit = 1 << uasTimeBits
	hostile := [][]int{
		{limit - 8}, {limit - 8, 1, 3}, {limit}, {limit + 1, 0}, {1 << 40, 1, 1 << 40}, {0, 0, 7},
	}
	for _, lats := range hostile {
		graphs = append(graphs, hostileLatencyLoop(9, lats...))
	}
	sc := NewScratch()
	var ts ddg.TimingScratch
	packed, refused := 0, 0
	for _, g := range graphs {
		for _, ii := range []int{1, 2, 5, 16} {
			tm := g.ComputeTimingScratch(ii, &ts)
			if got, want := uasOrder(tm, sc), referenceUASOrder(tm); !slices.Equal(got, want) {
				t.Fatalf("%s at II=%d: order\n got  %v\n want %v", g.Name, ii, got, want)
			}
			if min(slices.Min(tm.ALAP), slices.Min(tm.ASAP)) >= 0 && max(slices.Max(tm.ALAP), slices.Max(tm.ASAP)) < limit {
				packed++
			} else {
				refused++
			}
		}
	}
	if packed == 0 || refused == 0 {
		t.Errorf("%d orders took the packed path and %d the comparator: both must run", packed, refused)
	}
}
