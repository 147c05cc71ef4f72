package sched

import (
	"fmt"
	"sort"
	"strings"
)

// FormatKernel renders the kernel of the modulo schedule as a table: one
// row per II slot, one column per cluster plus a bus column. Each cell
// lists the operations issued in that slot with their stage number in
// brackets, matching the conventional presentation of software-pipelined
// kernels.
func (s *Schedule) FormatKernel() string {
	ig := s.IG
	k := ig.P.K
	cells := make([][]string, s.II*(k+1))
	for i := range ig.Inst {
		in := ig.Inst[i]
		slot := s.Time[i] % s.II
		stage := s.Time[i] / s.II
		col := int(in.Cluster)
		if in.IsCopy {
			col = k
		}
		name := ig.Name(int32(i))
		cells[slot*(k+1)+col] = append(cells[slot*(k+1)+col], fmt.Sprintf("%s[%d]", name, stage))
	}
	for i := range cells {
		sort.Strings(cells[i])
	}

	header := make([]string, 0, k+2)
	header = append(header, "slot")
	for c := 0; c < k; c++ {
		header = append(header, fmt.Sprintf("cluster %d", c))
	}
	header = append(header, "bus")

	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	rows := make([][]string, s.II)
	for slot := 0; slot < s.II; slot++ {
		row := make([]string, 0, k+2)
		row = append(row, fmt.Sprintf("%d", slot))
		for col := 0; col <= k; col++ {
			row = append(row, strings.Join(cells[slot*(k+1)+col], " "))
		}
		rows[slot] = row
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "II=%d length=%d stages=%d\n", s.II, s.Length, s.SC)
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// CyclesFor returns the modeled execution time of the loop for a given
// iteration count: (N − 1 + SC) · II (paper §2.2). Iteration counts below
// one clamp to one.
func (s *Schedule) CyclesFor(iterations float64) float64 {
	if iterations < 1 {
		iterations = 1
	}
	return (iterations - 1 + float64(s.SC)) * float64(s.II)
}
