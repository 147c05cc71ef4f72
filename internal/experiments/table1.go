package experiments

import (
	"fmt"
	"strings"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// Table1 renders the machine configuration table of the paper (Table 1):
// the per-cluster resource split of the 12-issue machine and the operation
// latencies.
func Table1() string {
	var sb strings.Builder
	res := NewTable("Resources", "2-cluster", "4-cluster")
	c2 := machine.MustParse("2c1b2l64r")
	c4 := machine.MustParse("4c1b2l64r")
	res.AddRow("INT/cluster", c2.FU[ddg.ClassInt], c4.FU[ddg.ClassInt])
	res.AddRow("FP/cluster", c2.FU[ddg.ClassFP], c4.FU[ddg.ClassFP])
	res.AddRow("MEM/cluster", c2.FU[ddg.ClassMem], c4.FU[ddg.ClassMem])
	res.AddRow("REGS/cluster (64r)", c2.Regs, c4.Regs)
	sb.WriteString(res.String())
	sb.WriteByte('\n')

	lat := NewTable("Latencies", "INT", "FP")
	lat.AddRow("MEM", ddg.OpLoad.Latency(), ddg.OpLoad.Latency())
	lat.AddRow("ARITH", ddg.OpIAdd.Latency(), ddg.OpFAdd.Latency())
	lat.AddRow("MUL/ABS", ddg.OpIMul.Latency(), ddg.OpFMul.Latency())
	lat.AddRow("DIV/SQRT", ddg.OpIDiv.Latency(), ddg.OpFDiv.Latency())
	sb.WriteString(lat.String())
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "Issue width: %d (4 FP FUs, 4 INT FUs, 4 memory ports)\n", machine.Unified(64).IssueWidth())
	return sb.String()
}
