package experiments

import (
	"testing"

	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

func TestSuiteResultsDeterministic(t *testing.T) {
	// Recompiling a sample of loops directly must reproduce the memoized
	// suite results exactly (the suite runs in parallel; results must not
	// depend on goroutine interleaving). The global cache is left intact so
	// sibling tests keep sharing it.
	m := machine.MustParse("4c2b2l64r")
	sr := RunSuite(m, Replication)
	for _, bench := range []string{"tomcatv", "applu", "fpppp"} {
		for i, lr := range sr.ByBench[bench] {
			if i >= 4 {
				break
			}
			fresh, err := pipeline.Compile(lr.Loop.Graph, m, Replication.options())
			if err != nil {
				t.Fatal(err)
			}
			if fresh.II != lr.Result.II || fresh.Comms != lr.Result.Comms {
				t.Fatalf("%s loop %d: suite (%d/%d) vs fresh compile (%d/%d)",
					bench, i, lr.Result.II, lr.Result.Comms, fresh.II, fresh.Comms)
			}
		}
	}
}

func TestIPCNeverExceedsIssueWidth(t *testing.T) {
	// The model counts useful instructions over modeled cycles; no
	// benchmark can beat the 12-wide issue limit, and none should be
	// implausibly slow either.
	for _, mode := range []Mode{Baseline, Replication} {
		sr := RunSuite(machine.MustParse("4c2b2l64r"), mode)
		ipcs, h := IPCByBench(sr)
		for bench, ipc := range ipcs {
			if ipc > 12 {
				t.Errorf("%v/%s: IPC %.2f exceeds the issue width", mode, bench, ipc)
			}
			if ipc < 0.5 {
				t.Errorf("%v/%s: IPC %.2f implausibly low", mode, bench, ipc)
			}
		}
		if h <= 0 || h > 12 {
			t.Errorf("%v: HMEAN %.2f out of range", mode, h)
		}
	}
}

func TestUnifiedUpperBoundsEveryClusteredConfig(t *testing.T) {
	// No clustered machine can beat the unified machine with the same total
	// resources (shorter wires are modeled as equal cycle time; the paper
	// notes clustering could clock faster, which would only shift scale).
	_, unified := IPCByBench(RunSuite(machine.Unified(64), Baseline))
	for _, m := range machine.PaperConfigs() {
		_, h := IPCByBench(RunSuite(m, Replication))
		if h > unified*1.001 {
			t.Errorf("%s replication HMEAN %.2f beats unified %.2f", m.Name, h, unified)
		}
	}
}

func TestModeStrings(t *testing.T) {
	for mode := Baseline; mode <= ReplicationMacro; mode++ {
		if mode.String() == "" {
			t.Errorf("mode %d renders empty", int(mode))
		}
	}
}
