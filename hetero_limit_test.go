package clusched

import (
	"context"
	"strings"
	"testing"

	"clusched/internal/service"
)

// TestMachinesHoldAtMost32Clusters: a machine may have as many clusters as
// the scheduler's cluster set holds, 32, and no more, through both doors
// that take a cluster count: HeteroMachine, and a job's wire hetero matrix
// as a server decodes it. The 32-cluster machine compiles alike on both
// sides; a 33-cluster one, which HeteroMachine would not build, is refused
// by the server with the limit named.
func TestMachinesHoldAtMost32Clusters(t *testing.T) {
	fu := func(k int) [][3]int {
		rows := make([][3]int, k)
		for i := range rows {
			rows[i] = [3]int{1, 1, 1}
		}
		return rows
	}
	m32, err := HeteroMachine(1, 2, 32, fu(32))
	if err != nil {
		t.Fatalf("HeteroMachine of 32 clusters: %v", err)
	}
	if _, err := HeteroMachine(1, 2, 32, fu(33)); err == nil || !strings.Contains(err.Error(), "at most 32") {
		t.Fatalf("HeteroMachine of 33 clusters: %v, want a refusal naming the limit", err)
	}

	ctx := context.Background()
	remote, _ := startService(t, service.Config{})
	job := CompileJob{Graph: BenchmarkLoops("tomcatv")[0].Graph, Machine: m32, Opts: Options{Replicate: true}}
	local, err := NewLocal().Compile(ctx, job)
	if err != nil {
		t.Fatalf("local compile on 32 clusters: %v", err)
	}
	got, err := remote.Compile(ctx, job)
	if err != nil {
		t.Fatalf("remote compile on 32 clusters: %v", err)
	}
	if resultFingerprint(got) != resultFingerprint(local) {
		t.Errorf("32 clusters: remote result differs from local")
	}

	job.Machine.Clusters, job.Machine.Hetero = 33, fu(33)
	if _, err := remote.Compile(ctx, job); err == nil || !strings.Contains(err.Error(), "at most 32") {
		t.Fatalf("remote compile on 33 clusters: %v, want a refusal naming the limit", err)
	}
}
