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

// TestSmallCorpusConfirms drives the zero-divergence contract end to end
// on a corpus small enough for every `go test`: exit 0, one row per
// requested strategy, and no timing columns (bench/ owns those).
func TestSmallCorpusConfirms(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "48", "-seed", "3", "-strategies", "paper,unified", "-config", "2c1b2l64r"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header, column names, rule and two rows; got %d lines:\n%s", len(lines), stdout.String())
	}
	if got, want := strings.Fields(lines[1]), []string{"strategy", "loops", "compiled", "failed", "validated", "divergent", "sem", "hits"}; !slices.Equal(got, want) {
		t.Errorf("columns = %v, want %v", got, want)
	}
	for i, name := range []string{"paper", "unified"} {
		f := strings.Fields(lines[3+i])
		// 48 loops + one clone per 16.
		if len(f) != 7 || f[0] != name || f[1] != "51" || f[5] != "0" {
			t.Errorf("row %q: want strategy %s, 51 loops, 0 divergent", lines[3+i], name)
		}
	}
}
