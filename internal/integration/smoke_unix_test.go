//go:build unix

package integration_test

import (
	"bytes"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// TestSmokeFleetNodeKilledMidBatch SIGKILLs one node of three while a cold
// batch is in flight: the fleet must eject it, fail its jobs over to the
// survivors, and deliver a complete report identical to a local one with
// exit status 0.
//
// The victim is SIGSTOPped before the batch is submitted, so its ring
// share is wedged in flight, unanswered in its accept backlog, when it
// dies. That makes the coverage deterministic rather than a race against
// batch throughput: the batch cannot drain while the victim holds its
// runs in flight (at the default window of four exchanges its whole queue
// goes out at once), and it completes only by failing those jobs over once
// the SIGKILL resets the hung connections.
//
// mgrid holds isomorphic pairs: failover turns a would-be canonical remap
// into a fresh compilation on a survivor, and which loop of a pair fills
// which node's cache is a race. The report still equals the local one,
// because every loop compiles in its canonical presentation: a remap and a
// fresh compilation of an isomorph are the same schedule.
func TestSmokeFleetNodeKilledMidBatch(t *testing.T) {
	f := startFleet(t)
	bigFile, _ := loops(t, "big.ddg",
		[]string{"-bench", "swim"}, []string{"-bench", "su2cor"}, []string{"-bench", "fpppp"}, []string{"-bench", "mgrid"})
	// Exact duplicates inside the corpus are served cached locally too.
	local := uncached(run(t, "replisched", "-config", "4c2b2l64r", bigFile))

	victim, survivors := f[1], fleet{f[0], f[2]}
	if err := victim.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	batch := exec.Command(bin(t, "replisched"), "-cluster", f.urls(), "-config", "4c2b2l64r", bigFile)
	batch.Stdout, batch.Stderr = &stdout, &stderr
	if err := batch.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { batch.Process.Kill() })
	exited := make(chan error, 1)
	go func() { exited <- batch.Wait() }()
	select {
	case <-exited:
		t.Fatal("batch drained with a wedged node: the victim owned no jobs, smoke defeated")
	case <-time.After(time.Second):
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.wait()
	if err := <-exited; err != nil {
		t.Fatalf("fleet batch with a killed node: %v\n%s", err, stderr.String())
	}
	if got := uncached(stdout.String()); got != local {
		t.Fatalf("fleet report after a SIGKILL differs from local:\n--- local\n%s--- fleet\n%s", local, got)
	}
	for _, n := range survivors {
		n.stop()
	}
}
