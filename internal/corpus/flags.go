package corpus

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// SpecFlags is the corpus distribution flag group cmd/loopgen and
// cmd/corpusbench share, so the distributions have one CLI vocabulary:
// -size, -scc, -lat, -mem and -pressure. Each is unset by default (an empty
// string, or -1 for the two numbers) and then keeps the Spec's own value.
type SpecFlags struct {
	size, scc, lat string
	mem, pressure  float64
}

// NewSpecFlags declares the group on fs; prefix starts each usage line.
func NewSpecFlags(fs *flag.FlagSet, prefix string) *SpecFlags {
	f := new(SpecFlags)
	fs.StringVar(&f.size, "size", "", prefix+"ops per loop as lo:hi")
	fs.StringVar(&f.scc, "scc", "", prefix+"shape mix, e.g. chain=1,tree=1,cyclic=2")
	fs.StringVar(&f.lat, "lat", "", prefix+"op latency mix, e.g. fadd=3,fmul=2,iadd=4")
	fs.Float64Var(&f.mem, "mem", -1, prefix+"memory ordering edges per memory op")
	fs.Float64Var(&f.pressure, "pressure", -1, prefix+"register pressure in [0,1]")
	return f
}

// Apply writes the flags that were set onto spec.
func (f *SpecFlags) Apply(spec *Spec) error {
	var err error
	if f.size != "" {
		if spec.Size, err = parseSizeRange(f.size); err != nil {
			return err
		}
	}
	if f.scc != "" {
		if spec.Shapes, err = parseShapeMix(f.scc); err != nil {
			return err
		}
	}
	if f.lat != "" {
		if spec.Ops, err = parseOpMix(f.lat); err != nil {
			return err
		}
	}
	if f.mem >= 0 {
		spec.MemEdges = f.mem
	}
	if f.pressure >= 0 {
		spec.Pressure = f.pressure
	}
	return nil
}

// parseSizeRange parses "lo:hi" (or a single "n") into an IntRange.
func parseSizeRange(s string) (IntRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	l, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return IntRange{}, fmt.Errorf("corpus: bad size range %q: %v", s, err)
	}
	h := l
	if ok {
		h, err = strconv.Atoi(strings.TrimSpace(hi))
		if err != nil {
			return IntRange{}, fmt.Errorf("corpus: bad size range %q: %v", s, err)
		}
	}
	if l < 1 || h < l {
		return IntRange{}, fmt.Errorf("corpus: bad size range %q: want 1 <= lo <= hi", s)
	}
	return IntRange{Lo: l, Hi: h}, nil
}

// shapeByName maps flag names to families.
var shapeByName = map[string]Shape{
	"broadcast": ShapeBroadcast,
	"parallel":  ShapeParallel,
	"reduction": ShapeReduction,
	"wide":      ShapeWide,
	"chain":     ShapeChain,
	"tree":      ShapeTree,
	"cyclic":    ShapeCyclic,
}

// parseShape resolves one family name.
func parseShape(name string) (Shape, error) {
	s, ok := shapeByName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return 0, fmt.Errorf("corpus: unknown shape %q (broadcast, parallel, reduction, wide, chain, tree, cyclic)", name)
	}
	return s, nil
}

// parseShapeMix parses "chain=2,tree=1,cyclic=1" into a ShapeMix.
// Families not named get weight 0; a bare name means weight 1.
func parseShapeMix(s string) (ShapeMix, error) {
	var m ShapeMix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, "=")
		shape, err := parseShape(name)
		if err != nil {
			return m, err
		}
		w := 1.0
		if hasW {
			w, err = strconv.ParseFloat(strings.TrimSpace(wstr), 64)
			if err != nil || w < 0 {
				return m, fmt.Errorf("corpus: bad shape weight %q", part)
			}
		}
		m[shape] = w
	}
	if m.total() <= 0 {
		return m, fmt.Errorf("corpus: shape mix %q has no positive weight", s)
	}
	return m, nil
}

// parseOpMix parses "fadd=3,fmul=2,iadd=4" into an OpMix. Kinds not named
// get weight 0; a bare name means weight 1.
func parseOpMix(s string) (OpMix, error) {
	var m OpMix
	fields := map[string]*float64{
		"iadd": &m.IAdd, "imul": &m.IMul, "idiv": &m.IDiv,
		"fadd": &m.FAdd, "fmul": &m.FMul, "fdiv": &m.FDiv,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, "=")
		p, ok := fields[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return m, fmt.Errorf("corpus: unknown op %q (iadd, imul, idiv, fadd, fmul, fdiv)", name)
		}
		w := 1.0
		if hasW {
			var err error
			w, err = strconv.ParseFloat(strings.TrimSpace(wstr), 64)
			if err != nil || w < 0 {
				return m, fmt.Errorf("corpus: bad op weight %q", part)
			}
		}
		*p = w
	}
	if m.total() <= 0 {
		return m, fmt.Errorf("corpus: op mix %q has no positive weight", s)
	}
	return m, nil
}
