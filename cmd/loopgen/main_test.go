package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/workload"
)

// TestBadFlagsExit2: an unknown flag, an unknown benchmark and a corpus
// distribution flag that does not parse each exit 2 with the message on
// stderr and print no loop.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-bench", "nosuch"}, `loopgen: unknown benchmark "nosuch"`},
		{[]string{"-corpus", "-size", "big"}, `loopgen: corpus: bad size range "big"`},
		{[]string{"-corpus", "-size", "9:3"}, `loopgen: corpus: bad size range "9:3": want 1 <= lo <= hi`},
		{[]string{"-corpus", "-scc", "chain=-1"}, `loopgen: corpus: bad shape weight "chain=-1"`},
		{[]string{"-corpus", "-scc", "chain=0"}, `loopgen: corpus: shape mix "chain=0" has no positive weight`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("loopgen %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("loopgen %v printed %q", tc.args, stdout.String())
		}
	}
}

// TestCorpusPrintsTheSpecsLoops: -corpus -n 3 -seed 7 prints, for each of
// the spec's first three loops, its comment line and exactly its
// ddg.MarshalText.
func TestCorpusPrintsTheSpecsLoops(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-corpus", "-n", "3", "-seed", "7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	spec := corpus.DefaultSpec()
	spec.N, spec.Seed = 3, 7
	var want strings.Builder
	for i := range 3 {
		g := spec.Loop(i)
		text, err := ddg.MarshalText(g)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "# %s: index=%d loop_seed=%d\n%s", g.Name, i, spec.LoopSeed(i), text)
	}
	if got := stdout.String(); got != want.String() {
		t.Errorf("loopgen -corpus -n 3 -seed 7 printed\n%s\nwant\n%s", got, want.String())
	}
}

// TestPermuteRepeatsAndKeepsTheShape: -bench swim -permute -seed 3 prints
// the same bytes every time, one clone per swim loop, and every clone has
// its original's canonical fingerprint.
func TestPermuteRepeatsAndKeepsTheShape(t *testing.T) {
	args := []string{"-bench", "swim", "-permute", "-seed", "3"}
	var first, again, stderr bytes.Buffer
	if code := run(args, &first, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := run(args, &again, &stderr); code != 0 || !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatalf("a second run (exit %d) printed different bytes", code)
	}
	clones, err := ddg.ParseText(&first)
	if err != nil {
		t.Fatal(err)
	}
	loops := workload.LoopsFor("swim")
	if len(clones) != len(loops) {
		t.Fatalf("%d clones of %d swim loops", len(clones), len(loops))
	}
	for i, c := range clones {
		g := loops[i].Graph
		if c.Name != g.Name+"#p1" {
			t.Errorf("clone %d is named %s", i, c.Name)
		}
		if c.CanonicalFingerprint() != g.CanonicalFingerprint() {
			t.Errorf("%s: canonical fingerprint %016x, original's %016x", c.Name, c.CanonicalFingerprint(), g.CanonicalFingerprint())
		}
	}
}
