package integration_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsNameRealTests reads every `go test … -run '…'` command
// of the CI workflow and fails when an alternative of its top-level
// pattern selects no Test function in the packages the command lists: a
// renamed test would otherwise drop out of its CI step (the race step, the
// census pins) without a word.
func TestCISelectorsNameRealTests(t *testing.T) {
	root := filepath.Join("..", "..")
	yml, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, line := range strings.Split(string(yml), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		pattern, pkgs := runSelector(cmd)
		if pattern == "" || pattern == "^$" {
			continue
		}
		steps++
		if len(pkgs) == 0 {
			t.Errorf("%q lists no package", strings.TrimSpace(line))
			continue
		}
		var names []string
		for _, pkg := range pkgs {
			names = append(names, testFuncs(t, root, pkg)...)
		}
		// go test splits -run at slashes into one pattern per subtest
		// level; the first names top-level functions.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			if !matchesAny(re, names) {
				t.Errorf("-run alternative %q selects nothing in %v", alt, pkgs)
			}
		}
	}
	if steps == 0 {
		t.Fatal("no go test -run command found in ci.yml")
	}
	t.Logf("%d go test -run commands checked", steps)
}

// runSelector returns the -run pattern of a go test command line and the
// package directories it lists (the arguments that start with ".").
func runSelector(cmd string) (pattern string, pkgs []string) {
	fields := strings.Fields(cmd)
	for i, f := range fields {
		switch {
		case f == "-run" && i+1 < len(fields):
			pattern = strings.Trim(fields[i+1], "'")
		case strings.HasPrefix(f, "."):
			pkgs = append(pkgs, f)
		}
	}
	return pattern, pkgs
}

// testFuncs returns the names of the top-level Test functions of the
// package directory pkg, whatever their files' build constraints.
func testFuncs(t *testing.T, root, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", pkg, err)
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// matchesAny reports whether re selects any of names, as go test -run does.
func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
