package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestBadFlagValuesExit2 covers the two inputs that used to escape the
// tool's own error path: an unparsable -config panicked inside
// machine.MustParse, and -n ≤ 0 was silently replaced by the default
// corpus (discarding -seed, -size and -scc with it).
func TestBadFlagValuesExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "bogus"}, `corpusbench: -config: machine: config "bogus"`},
		{[]string{"-n", "0", "-seed", "7"}, "corpusbench: -n must be positive, got 0"},
		{[]string{"-n", "-5"}, "corpusbench: -n must be positive, got -5"},
		{[]string{"-size", "big"}, "corpusbench: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr) // a panic fails the test
		if code != 2 || !strings.HasPrefix(stderr.String(), tc.want) {
			t.Errorf("corpusbench %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("corpusbench %v printed a table: %q", tc.args, stdout.String())
		}
	}
}

// TestSmallCorpusConfirms drives the zero-divergence contract end to end:
// exit 0, one row per requested strategy, 0 divergent on every row, and no
// timing columns (bench/ owns those). Besides a corpus small enough for any
// `go test`, it runs the bounded shootout on a fixed seed: every registered
// strategy over a 1k-loop corpus at full batch concurrency (semantic-cache
// clones on), on the 4-cluster 2-bus default, the 2- and 4-cluster
// single-bus machines where communication binds hardest, and the 4-bus
// 4-cycle one where bus latency does. A scheduler change that emits a
// plausible but unsound schedule fails here even if every unit test passes;
// corpusbench prints a replayable record of each divergence.
func TestSmallCorpusConfirms(t *testing.T) {
	all := []string{"moddist", "paper", "uas", "unified"}
	for _, tc := range []struct {
		args       []string
		strategies []string
		loops      string // 1 clone follows every 16th loop
	}{
		{[]string{"-n", "48", "-seed", "3", "-strategies", "paper,unified", "-config", "2c1b2l64r"}, []string{"paper", "unified"}, "51"},
		{[]string{"-n", "1000", "-seed", "1", "-clone-every", "16", "-config", "4c2b2l64r"}, all, "1063"},
		{[]string{"-n", "1000", "-seed", "1", "-clone-every", "16", "-config", "2c1b2l64r"}, all, "1063"},
		{[]string{"-n", "1000", "-seed", "1", "-clone-every", "16", "-config", "4c1b2l64r"}, all, "1063"},
		{[]string{"-n", "1000", "-seed", "1", "-clone-every", "16", "-config", "4c4b4l64r"}, all, "1063"},
	} {
		t.Run("n="+tc.args[1]+"/"+tc.args[len(tc.args)-1], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) != 3+len(tc.strategies) {
				t.Fatalf("want header, column names, rule and %d rows; got %d lines:\n%s", len(tc.strategies), len(lines), stdout.String())
			}
			if got, want := strings.Fields(lines[1]), []string{"strategy", "loops", "compiled", "failed", "validated", "divergent", "sem", "hits"}; !slices.Equal(got, want) {
				t.Errorf("columns = %v, want %v", got, want)
			}
			for i, name := range tc.strategies {
				f := strings.Fields(lines[3+i])
				if len(f) != 7 || f[0] != name || f[1] != tc.loops || f[5] != "0" {
					t.Errorf("row %q: want strategy %s, %s loops, 0 divergent", lines[3+i], name, tc.loops)
				}
			}
		})
	}
}
