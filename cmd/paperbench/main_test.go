package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clusched/internal/driver"
	"clusched/internal/experiments"
)

// jsonSections is the golden key set of the -json document, in document
// order: the paper's sections, the strategy comparison and the engine
// counters — nothing that times this repository (that is bench/'s job).
var jsonSections = []string{
	"fig1", "fig7", "fig8", "fig9", "fig10", "fig12", "comm_stats", "macro",
	"reg_sweep", "strategies", "engine",
}

// jsonKeys lists the top-level keys a struct type marshals to, embedded
// structs flattened the way encoding/json flattens them.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			keys = append(keys, jsonKeys(f.Type)...)
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		keys = append(keys, name)
	}
	return keys
}

// TestJSONDoors pins the -json document's section set the way
// TestPipelineDoors pins pipeline's entry points: a section added or
// brought back is a deliberate edit of the golden list.
func TestJSONDoors(t *testing.T) {
	if got := jsonKeys(reflect.TypeOf(jsonReport{})); !slices.Equal(got, jsonSections) {
		t.Fatalf("-json sections changed:\n got: %v\nwant: %v", got, jsonSections)
	}
}

// runJSON runs paperbench with the JSON document on stdout and returns it
// decoded section by section, in document order.
func runJSON(t *testing.T, args ...string) (keys []string, sections map[string]json.RawMessage) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-json", "-"), &stdout, &stderr); code != 0 {
		t.Fatalf("paperbench %v: exit %d\n%s", args, code, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	sections = map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		sections[tok.(string)] = raw
	}
	return keys, sections
}

// TestFigJSONIsAPureFunctionOfTheCode compiles Fig. 9 twice on fresh
// engines (-j builds one per run): the figure section must come out byte
// for byte the same. "engine" is left out on purpose — its counts depend
// on which of two concurrently compiling isomorphic loops fills the
// semantic tier first.
func TestFigJSONIsAPureFunctionOfTheCode(t *testing.T) {
	t.Cleanup(func() { experiments.Configure(driver.Config{}) })
	keys1, first := runJSON(t, "-fig", "9", "-j", "2")
	keys2, second := runJSON(t, "-fig", "9", "-j", "2")
	want := []string{"fig9", "engine"}
	if !slices.Equal(keys1, want) || !slices.Equal(keys2, want) {
		t.Fatalf("-fig 9 -json sections = %v and %v, want %v", keys1, keys2, want)
	}
	if !bytes.Equal(first["fig9"], second["fig9"]) {
		t.Errorf("fig9 differs between two runs:\n%s\n%s", first["fig9"], second["fig9"])
	}
}

// TestRetiredFlagsAreRejected: the performance half went to bench/ with no
// deprecated no-op left behind, so its flags are usage errors.
func TestRetiredFlagsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-dup", "1"},
		{"-cluster-nodes", "2"},
		{"-corpus", "10"},
		{"-corpus-seed", "1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(args, "-fig", "table1"), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("paperbench %v: exit %d, stderr %q; want exit 2 and an undefined-flag error", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("paperbench %v printed a report: %q", args, stdout.String())
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
}

// TestClusterRunIsNotALocalRun: with -cluster the engine lives on the
// servers, so -trace must write no file and -progress no local cache line.
// The node is never contacted: Table 1 compiles nothing.
func TestClusterRunIsNotALocalRun(t *testing.T) {
	t.Cleanup(func() { experiments.Configure(driver.Config{}) })
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-cluster", "http://127.0.0.1:1", "-trace", tracePath, "-progress", "-fig", "table1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("-cluster -trace wrote %s (stat err %v); the flag is documented as ignored", tracePath, err)
	}
	msgs := stderr.String()
	if !strings.Contains(msgs, "-trace is ignored with -cluster") {
		t.Errorf("no -trace warning in %q", msgs)
	}
	for _, localOnly := range []string{"engine cache:", "wrote "} {
		if strings.Contains(msgs, localOnly) {
			t.Errorf("-cluster run printed a local-engine line (%q) in %q", localOnly, msgs)
		}
	}
	if !strings.Contains(stdout.String(), "Issue width") {
		t.Errorf("Table 1 missing from stdout: %q", stdout.String())
	}
}
