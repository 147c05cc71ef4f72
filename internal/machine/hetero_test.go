package machine

import (
	"strings"
	"testing"

	"clusched/internal/ddg"
)

func TestNewHeteroBasics(t *testing.T) {
	m, err := NewHetero(1, 2, 32, [][ddg.NumClasses]int{
		{2, 0, 1}, // int-heavy cluster: no FP units
		{0, 3, 1}, // FP-heavy cluster: no integer units
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Clusters != 2 || !m.Clustered() {
		t.Errorf("clusters = %d", m.Clusters)
	}
	if m.FUAt(0, ddg.ClassInt) != 2 || m.FUAt(0, ddg.ClassFP) != 0 {
		t.Errorf("cluster 0 units wrong")
	}
	if m.FUAt(1, ddg.ClassFP) != 3 || m.FUAt(1, ddg.ClassInt) != 0 {
		t.Errorf("cluster 1 units wrong")
	}
	if m.TotalFU(ddg.ClassInt) != 2 || m.TotalFU(ddg.ClassFP) != 3 || m.TotalFU(ddg.ClassMem) != 2 {
		t.Errorf("totals wrong: %d/%d/%d",
			m.TotalFU(ddg.ClassInt), m.TotalFU(ddg.ClassFP), m.TotalFU(ddg.ClassMem))
	}
}

func TestNewHeteroRejectsUnexecutableClass(t *testing.T) {
	_, err := NewHetero(1, 2, 32, [][ddg.NumClasses]int{
		{2, 0, 1},
		{2, 0, 1}, // no FP anywhere
	})
	if err == nil {
		t.Error("machine without FP units accepted")
	}
	if _, err := NewHetero(1, 2, 32, [][ddg.NumClasses]int{{1, 1, 1}}); err == nil {
		t.Error("single-cluster hetero accepted")
	}
	if _, err := NewHetero(0, 2, 32, [][ddg.NumClasses]int{{1, 1, 1}, {1, 1, 1}}); err == nil {
		t.Error("bus-less hetero accepted")
	}
}

func TestHomogeneousFUAtMatchesFU(t *testing.T) {
	m := MustParse("4c2b2l64r")
	for c := 0; c < m.Clusters; c++ {
		for cl := ddg.Class(0); cl < ddg.NumClasses; cl++ {
			if m.FUAt(c, cl) != m.FU[cl] {
				t.Errorf("FUAt(%d,%v) = %d, want %d", c, cl, m.FUAt(c, cl), m.FU[cl])
			}
		}
	}
	if m.TotalFU(ddg.ClassFP) != 4 {
		t.Errorf("TotalFU = %d, want 4", m.TotalFU(ddg.ClassFP))
	}
}

// TestNewHeteroRefusesMoreThanMaxClusters: the scheduler keeps a node's
// clusters in a 32-bit set, so 32 clusters build and 33 are refused with
// the limit named.
func TestNewHeteroRefusesMoreThanMaxClusters(t *testing.T) {
	fu := func(k int) [][ddg.NumClasses]int {
		rows := make([][ddg.NumClasses]int, k)
		for i := range rows {
			rows[i] = [ddg.NumClasses]int{1, 1, 1}
		}
		return rows
	}
	m, err := NewHetero(1, 2, 32, fu(MaxClusters))
	if err != nil || m.Clusters != MaxClusters {
		t.Fatalf("NewHetero of %d clusters = %d clusters, %v", MaxClusters, m.Clusters, err)
	}
	_, err = NewHetero(1, 2, 32, fu(MaxClusters+1))
	if err == nil || !strings.Contains(err.Error(), "at most 32") {
		t.Fatalf("NewHetero of %d clusters: %v, want a refusal naming the limit", MaxClusters+1, err)
	}
}
