package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// manifest is BENCHMARK.json, the contract this program is run under.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory or above it
// (go run ./bench runs at the repository root, go test in bench/).
func loadManifest() (*manifest, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		blob, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(blob, &m); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &m, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in %s or above", dir)
		}
		dir = parent
	}
}

// loadRecords reads an -out file: one JSON record per line, untraced
// records only (end-to-end metrics never come from a traced run).
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Traced {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
		}
	}
	return byWorkload, sc.Err()
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the driver's rule).
func quartiles(values []float64) (q1, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// runCompare prints, per workload and end-to-end metric, both medians,
// how much worse b is than a as a share of a, the bound, and a verdict:
// ok, regressed (worse by more than the bound), or unresolved (either
// side's run-to-run spread is wider than the bound, unless every run of b
// reads better than every run of a). It exits non-zero on regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median)\tb (median)\tworse by\tspread\tbound\tverdict")
	regressed := false
	for _, w := range man.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range man.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse, better := (mb-ma)/ma, func(x, y float64) bool { return x < y }
			if m.Better == "higher" {
				worse, better = (ma-mb)/ma, func(x, y float64) bool { return x > y }
			}
			spread := 0.0
			for _, v := range [][]float64{va, vb} {
				q1, q3 := quartiles(v)
				spread = max(spread, (q3-q1)/median(v))
			}
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter(vb, va, better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
