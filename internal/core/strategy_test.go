package core

import (
	"testing"

	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// TestCompileWithStrategies drives every registered strategy through the
// one compile door and checks an unregistered name is refused.
func TestCompileWithStrategies(t *testing.T) {
	g := workload.LoopsFor("tomcatv")[0].Graph
	m := machine.MustParse("4c2b2l64r")
	for _, name := range pipeline.StrategyNames() {
		res, err := pipeline.Compile(g, m, pipeline.Options{Strategy: name})
		if err != nil {
			t.Fatalf("strategy %q: %v", name, err)
		}
		if res.Schedule == nil || res.II < res.MII {
			t.Fatalf("strategy %q: implausible result %+v", name, res)
		}
	}
	if _, err := pipeline.Compile(g, m, pipeline.Options{Strategy: "bogus"}); err == nil {
		t.Fatal("Compile accepted an unregistered strategy")
	}
}
