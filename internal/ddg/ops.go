// Package ddg defines the data dependence graph (DDG) that represents the
// body of an innermost loop, the unit of work for the clustered modulo
// scheduler. Nodes are operations; edges are register data dependences or
// memory ordering dependences, optionally loop-carried (distance > 0).
package ddg

import "fmt"

// Class groups operations by the functional-unit type that executes them.
// The machine model provisions functional units per class and per cluster.
type Class int

const (
	// ClassInt operations execute on integer ALUs.
	ClassInt Class = iota
	// ClassFP operations execute on floating-point units.
	ClassFP
	// ClassMem operations execute on memory ports. The memory hierarchy is
	// centralized and shared by all clusters (paper §2.1).
	ClassMem

	// NumClasses is the number of operation classes.
	NumClasses = 3
)

// String returns the conventional short name of the class.
func (c Class) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFP:
		return "fp"
	case ClassMem:
		return "mem"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// OpKind identifies a concrete operation. The set mirrors the latency table
// of the paper (Table 1): memory ops, simple arithmetic, multiply/absolute
// value, and divide/square root, each in integer and floating-point flavors.
type OpKind int

const (
	// OpInvalid is the zero OpKind; graphs never contain it.
	OpInvalid OpKind = iota

	// Integer operations (ClassInt).

	// OpIAdd is integer addition/subtraction/compare (ARITH, latency 1).
	OpIAdd
	// OpIMul is integer multiply or absolute value (MUL/ABS, latency 2).
	OpIMul
	// OpIDiv is integer division or square root (DIV/SQRT, latency 6).
	OpIDiv

	// Floating-point operations (ClassFP).

	// OpFAdd is FP addition/subtraction/compare (ARITH, latency 3).
	OpFAdd
	// OpFMul is FP multiply or absolute value (MUL/ABS, latency 6).
	OpFMul
	// OpFDiv is FP division or square root (DIV/SQRT, latency 18).
	OpFDiv

	// Memory operations (ClassMem).

	// OpLoad reads from the centralized memory (MEM, latency 2).
	OpLoad
	// OpStore writes to the centralized memory (MEM, latency 2). Stores are
	// never replicated and never require inter-cluster communication because
	// the cache is shared (paper §3.1).
	OpStore

	// OpCopy is an inter-cluster register copy executed on a bus. It never
	// appears in source DDGs; the scheduler materializes copies for values
	// that cross clusters. Its latency is the bus latency of the machine.
	OpCopy

	numOpKinds
)

var opNames = [numOpKinds]string{
	OpInvalid: "invalid",
	OpIAdd:    "iadd",
	OpIMul:    "imul",
	OpIDiv:    "idiv",
	OpFAdd:    "fadd",
	OpFMul:    "fmul",
	OpFDiv:    "fdiv",
	OpLoad:    "load",
	OpStore:   "store",
	OpCopy:    "copy",
}

// String returns the mnemonic used by the text DDG format.
func (k OpKind) String() string {
	if k < 0 || k >= numOpKinds {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opNames[k]
}

// ParseOpKind converts a mnemonic produced by String back into an OpKind.
// "copy" parses (Validate is what keeps OpCopy out of source graphs);
// "invalid" does not.
func ParseOpKind(s string) (OpKind, error) {
	switch s {
	case "iadd":
		return OpIAdd, nil
	case "imul":
		return OpIMul, nil
	case "idiv":
		return OpIDiv, nil
	case "fadd":
		return OpFAdd, nil
	case "fmul":
		return OpFMul, nil
	case "fdiv":
		return OpFDiv, nil
	case "load":
		return OpLoad, nil
	case "store":
		return OpStore, nil
	case "copy":
		return OpCopy, nil
	}
	return OpInvalid, fmt.Errorf("ddg: unknown op kind %q", s)
}

// Class returns the functional-unit class that executes the operation.
// OpCopy belongs to no class: it executes on a bus, not a functional unit.
func (k OpKind) Class() Class {
	switch k {
	case OpIAdd, OpIMul, OpIDiv:
		return ClassInt
	case OpFAdd, OpFMul, OpFDiv:
		return ClassFP
	case OpLoad, OpStore:
		return ClassMem
	}
	return -1
}

// Latency returns the producer latency of the operation in cycles, per the
// paper's Table 1. A consumer may issue Latency cycles after the producer.
func (k OpKind) Latency() int {
	switch k {
	case OpIAdd:
		return 1
	case OpIMul:
		return 2
	case OpIDiv:
		return 6
	case OpFAdd:
		return 3
	case OpFMul:
		return 6
	case OpFDiv:
		return 18
	case OpLoad, OpStore:
		return 2
	}
	return 0
}

// IsStore reports whether the operation is a memory store.
func (k OpKind) IsStore() bool { return k == OpStore }

// Valid reports whether k names a schedulable source operation (everything
// except OpInvalid and OpCopy).
func (k OpKind) Valid() bool { return k > OpInvalid && k < numOpKinds && k != OpCopy }

// AllOpKinds lists every source-level operation kind, for tests and
// generators.
func AllOpKinds() []OpKind {
	return []OpKind{OpIAdd, OpIMul, OpIDiv, OpFAdd, OpFMul, OpFDiv, OpLoad, OpStore}
}
