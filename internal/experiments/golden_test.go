package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"clusched/internal/driver"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden.json from this run")

// TestFigureSectionsGolden pins every number the full report is rendered
// from: the eight figure sections of `paperbench -json`, byte for byte. A
// PR that means to leave the evaluation alone proves it by leaving this
// file alone; one that means to move a figure reruns with -update and
// shows the diff. It runs on a one-worker engine so that two isomorphic
// loops of the suite can never race to fill the semantic cache tier: the
// sections have come out the same at every worker count so far, but the
// golden should not depend on that.
func TestFigureSectionsGolden(t *testing.T) {
	const path = "testdata/figures.golden.json"
	shared := engine
	defer func() { engine = shared }()
	UseBackend(driver.New(driver.Config{Workers: 1}))

	got, err := json.MarshalIndent(CollectFigures(""), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("figure sections differ from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update if the change is meant)", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figure sections differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
