package experiments

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPCAccumulator(t *testing.T) {
	var a ipcAccumulator
	if a.IPC() != 0 {
		t.Error("empty accumulator IPC != 0")
	}
	a.Add(100, 50)
	a.Add(200, 100)
	if got := a.IPC(); got != 2 {
		t.Errorf("IPC = %v, want 2", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := harmonicMean([]float64{2, 2, 2}); got != 2 {
		t.Errorf("HMEAN(2,2,2) = %v", got)
	}
	got := harmonicMean([]float64{1, 2})
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("HMEAN(1,2) = %v, want 4/3", got)
	}
	if harmonicMean(nil) != 0 || harmonicMean([]float64{1, 0}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestMeansOrdering(t *testing.T) {
	// Property: HMEAN <= GMEAN <= AMEAN for positive values.
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, 1+float64(r%1000))
		}
		if len(xs) == 0 {
			return true
		}
		h, g, a := harmonicMean(xs), geometricMean(xs), arithmeticMean(xs)
		const eps = 1e-9
		return h <= g+eps && g <= a+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("x", 1.23456)
	tb.AddRow("longer-name", 42)
	out := tb.String()
	for _, want := range []string{"name", "value", "1.23", "longer-name", "42", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
	// Columns align: header and separator have equal width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("misaligned header/separator: %q vs %q", lines[0], lines[1])
	}
}

// geometricMean returns the geometric mean of positive values.
func geometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
