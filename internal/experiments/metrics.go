package experiments

// The performance numbers the paper reports (IPC per program, harmonic
// means) and the ASCII tables the experiment reports render them in.

import (
	"fmt"
	"strings"
)

// ipcAccumulator aggregates instructions and cycles across loops. IPC is
// computed over useful (original) instructions only, so replication can
// improve IPC only by reducing cycles, never by inflating the instruction
// count (see DESIGN.md).
type ipcAccumulator struct {
	Instrs float64
	Cycles float64
}

// Add records one loop: useful dynamic instructions and modeled cycles.
func (a *ipcAccumulator) Add(instrs, cycles float64) {
	a.Instrs += instrs
	a.Cycles += cycles
}

// IPC returns instructions per cycle; zero when nothing was recorded.
func (a *ipcAccumulator) IPC() float64 {
	if a.Cycles == 0 {
		return 0
	}
	return a.Instrs / a.Cycles
}

// harmonicMean returns the harmonic mean of the values, the aggregate the
// paper uses across programs (HMEAN bars in Fig. 7). Zero or negative
// values are rejected with a zero result.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// arithmeticMean returns the plain average.
func arithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders aligned ASCII tables for experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells render with %v, floats with 2 decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
