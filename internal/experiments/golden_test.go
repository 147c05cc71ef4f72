package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"iter"
	"os"
	"strings"
	"testing"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden.json from this run")

// TestFigureSectionsGolden pins every number the full report is rendered
// from: the nine figure sections of `paperbench -json`, byte for byte. A
// PR that means to leave the evaluation alone proves it by leaving this
// file alone; one that means to move a figure reruns with -update and
// shows the diff. It runs on a four-worker engine: whichever of two
// isomorphic suite loops fills the semantic cache tier first, the other's
// answer is the same, because every loop compiles in its canonical
// presentation.
func TestFigureSectionsGolden(t *testing.T) {
	const path = "testdata/figures.golden.json"
	shared := engine
	defer func() { engine = shared }()
	UseBackend(driver.New(driver.Config{Workers: 4}))

	var s FigureSections
	for _, e := range evaluation {
		if e.collect != nil {
			e.collect(&s)
		}
	}
	got, err := json.MarshalIndent(s, "", "  ")
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

// noEngine fails every compilation: a test that must compile nothing runs
// on it.
type noEngine struct{ t *testing.T }

func (e noEngine) Compile(context.Context, driver.Job) (*pipeline.Result, error) {
	e.t.Fatal("compiled a loop")
	return nil, nil
}

func (e noEngine) Stream(context.Context, []driver.Job) iter.Seq2[int, driver.Outcome] {
	e.t.Fatal("compiled a batch")
	return nil
}

// TestReportGolden renders every experiment that has a typed section, plus
// Table 1, from the pinned sections of testdata/figures.golden.json with
// the table's own renderers, and compares each block with its block of
// testdata/report.golden.txt, the full `paperbench -o` report (regenerate
// it with `go run ./cmd/paperbench -o` when a figure moves). It compiles
// nothing; the two experiments without a section (unroll, design) compute
// as they render and are left to the paperbench test.
func TestReportGolden(t *testing.T) {
	shared := engine
	defer func() { engine = shared }()
	UseBackend(noEngine{t})

	blob, err := os.ReadFile("testdata/figures.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var s FigureSections
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile("testdata/report.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSuffix(string(report), "\n"), blockSeparator)
	if len(blocks) != len(evaluation) {
		t.Fatalf("report golden has %d blocks, the table %d rows", len(blocks), len(evaluation))
	}
	rendered := 0
	for i, e := range evaluation {
		if e.collect == nil && e.name != "table1" {
			continue
		}
		rendered++
		if got := e.heading + e.render(&s); got != blocks[i] {
			t.Errorf("-fig %s: block differs from the report golden:\n got:\n%s\nwant:\n%s", e.name, got, blocks[i])
		}
	}
	if rendered != 10 {
		t.Errorf("rendered %d blocks, want 10 (Table 1 and the nine sections)", rendered)
	}
}

// TestCollectFiguresJoinsBlocks swaps the evaluation for a two-row
// stand-in and pins how CollectFigures assembles a report: the full report
// is the blocks joined by blockSeparator plus one final newline, and one
// experiment's report is its block alone, with no trailing newline. Each
// row's section comes back with it. Nothing is compiled.
func TestCollectFiguresJoinsBlocks(t *testing.T) {
	shared, table := engine, evaluation
	defer func() { engine, evaluation = shared, table }()
	UseBackend(noEngine{t})
	evaluation = []experiment{{
		name:    "a",
		heading: "A heading\n\n",
		collect: func(s *FigureSections) { s.Fig1 = []Fig1Row{{Config: "a"}} },
		render:  func(s *FigureSections) string { return "a body, " + s.Fig1[0].Config + "\n" },
	}, {
		name:    "b",
		heading: "B heading\n\n",
		render:  func(*FigureSections) string { return "b body\n" },
	}}
	blockA, blockB := "A heading\n\na body, a\n", "B heading\n\nb body\n"

	s, report, err := CollectFigures("")
	if err != nil {
		t.Fatal(err)
	}
	if want := blockA + blockSeparator + blockB + "\n"; report != want {
		t.Errorf("full report:\n got %q\nwant %q", report, want)
	}
	if len(s.Fig1) != 1 {
		t.Errorf("full run returned section %+v, want the first row's", s)
	}
	for name, want := range map[string]string{"a": blockA, "b": blockB} {
		s, report, err := CollectFigures(name)
		if err != nil {
			t.Fatal(err)
		}
		if report != want {
			t.Errorf("-fig %s:\n got %q\nwant %q", name, report, want)
		}
		if got := len(s.Fig1); got != map[string]int{"a": 1, "b": 0}[name] {
			t.Errorf("-fig %s returned %d Fig1 rows", name, got)
		}
	}
}
