package integration_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it to
// completion: an example is a living document, so a refactor that breaks
// its behaviour, which `go build` alone would not catch, fails here.
func TestExamplesRun(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "examples"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "clusched/examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, e.Name()))
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("examples/%s: %v\n%s", e.Name(), err, stderr.String())
			}
		})
	}
}
