package ddg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// This file is the text codec as it stood before the allocation-lean
// rewrite in text.go — the bufio.Scanner/strings.Fields parser over a
// Builder and the fmt writer, moved here verbatim (identifiers prefixed
// "reference", nothing else changed). It is the oracle of the differential
// tests and of FuzzParseText: the production codec must accept and reject
// exactly what this one does, with the same error strings, and write the
// same bytes.

// referenceEncodableName reports whether a name can survive the whitespace-
// delimited line format: non-empty, no whitespace, and not starting with
// the comment character.
func referenceEncodableName(s string) bool {
	if s == "" || strings.HasPrefix(s, "#") {
		return false
	}
	return strings.IndexFunc(s, unicode.IsSpace) < 0
}

// referenceWireNames returns the node names referenceWriteText emits: explicit labels as-is,
// synthetic "n<ID>" names for unlabeled nodes — disambiguated (with
// trailing underscores) when a synthetic name collides with an explicit
// label elsewhere in the graph, so the emitted names are always unique and
// the text re-parses into the same structure. It errors on labels the
// format cannot carry.
func referenceWireNames(g *Graph) ([]string, error) {
	names := make([]string, len(g.Nodes))
	used := make(map[string]bool, len(g.Nodes))
	for i := range g.Nodes {
		if l := g.Nodes[i].Label; l != "" {
			if !referenceEncodableName(l) {
				return nil, fmt.Errorf("ddg: node %d label %q cannot be encoded in the text format", i, l)
			}
			names[i] = l
			used[l] = true
		}
	}
	for i := range g.Nodes {
		if names[i] != "" {
			continue
		}
		name := fmt.Sprintf("n%d", i)
		for used[name] {
			name += "_"
		}
		names[i] = name
		used[name] = true
	}
	return names, nil
}

// retiredWireNames is wireNames as it stood while the writer materialised
// its names (a []string plus one string per unlabeled node), verbatim but
// for its name; AppendText now synthesises them inline under the same rule.
// It checks that every label of g can be carried by the text format
// and returns the names WriteText emits when they are not simply the
// labels: names is nil when every node is labeled, else it holds explicit
// labels as-is and synthetic "n<ID>" names for unlabeled nodes —
// disambiguated (with trailing underscores) when a synthetic name collides
// with an explicit label elsewhere in the graph, so the emitted names are
// always unique and the text re-parses into the same structure. nameBytes
// is the total length of the emitted node names.
func retiredWireNames(g *Graph) (names []string, nameBytes int, err error) {
	unlabeled := 0
	for i := range g.Nodes {
		l := g.Nodes[i].Label
		if l == "" {
			unlabeled++
			continue
		}
		if !encodableName(l) {
			return nil, 0, fmt.Errorf("ddg: node %d label %q cannot be encoded in the text format", i, l)
		}
		nameBytes += len(l)
	}
	if unlabeled == 0 {
		return nil, nameBytes, nil
	}
	names = make([]string, len(g.Nodes))
	// used holds the labels a synthetic name could collide with: those
	// starting with 'n'. Synthetic names never collide with each other.
	var used map[string]bool
	var scratch [24]byte // room for "n", any int and a few underscores
	for i := range g.Nodes {
		l := g.Nodes[i].Label
		if l == "" {
			continue
		}
		names[i] = l
		if l[0] == 'n' {
			if used == nil {
				used = make(map[string]bool)
			}
			used[l] = true
		}
	}
	for i := range g.Nodes {
		if names[i] != "" {
			continue
		}
		name := strconv.AppendInt(append(scratch[:0], 'n'), int64(i), 10)
		for used[string(name)] {
			name = append(name, '_')
		}
		names[i] = string(name)
		nameBytes += len(name)
	}
	return names, nameBytes, nil
}

// referenceWriteText encodes the graph in the text format. The encoding
// round-trips: parsing it yields a structurally identical graph (same
// operations, edges and fingerprint) whose re-encoding is byte-identical.
// Graphs with labels the format cannot carry (whitespace, leading '#') are
// rejected.
func referenceWriteText(w io.Writer, g *Graph) error {
	names, err := referenceWireNames(g)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if !referenceEncodableName(g.Name) {
		return fmt.Errorf("ddg: loop name %q cannot be encoded in the text format", g.Name)
	}
	fmt.Fprintf(bw, "loop %s\n", g.Name)
	for i := range g.Nodes {
		fmt.Fprintf(bw, "node %s %s\n", names[i], g.Nodes[i].Op)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		fmt.Fprintf(bw, "edge %s %s", names[e.Src], names[e.Dst])
		if e.Dist != 0 {
			fmt.Fprintf(bw, " dist %d", e.Dist)
		}
		if e.Kind == EdgeMem {
			fmt.Fprint(bw, " mem")
			if e.Lat != memEdgeDefaultLat {
				fmt.Fprintf(bw, " lat %d", e.Lat)
			}
		} else if e.Lat != g.Nodes[e.Src].Op.Latency() {
			fmt.Fprintf(bw, " lat %d", e.Lat)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// referenceMarshalText returns the text encoding of the graph as a string.
func referenceMarshalText(g *Graph) (string, error) {
	var sb strings.Builder
	if err := referenceWriteText(&sb, g); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// referenceParseText decodes every loop in the stream.
func referenceParseText(r io.Reader) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		graphs []*Graph
		b      *Builder
		lineNo int
	)
	fail := func(format string, args ...any) ([]*Graph, error) {
		return nil, fmt.Errorf("ddg: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "loop":
			if b != nil {
				return fail("nested loop directive")
			}
			if len(fields) != 2 {
				return fail("loop directive wants a name")
			}
			if !referenceEncodableName(fields[1]) {
				return fail("loop name %q cannot round-trip the text format", fields[1])
			}
			b = NewBuilder(fields[1])
		case "node":
			if b == nil {
				return fail("node outside loop")
			}
			if len(fields) != 3 {
				return fail("node wants <label> <op>")
			}
			if !referenceEncodableName(fields[1]) {
				return fail("node name %q cannot round-trip the text format", fields[1])
			}
			op, err := referenceParseOpKind(fields[2])
			if err != nil {
				return fail("%v", err)
			}
			b.Node(fields[1], op)
		case "edge":
			if b == nil {
				return fail("edge outside loop")
			}
			if len(fields) < 3 {
				return fail("edge wants <src> <dst>")
			}
			src := NodeByLabel(b.g, fields[1])
			dst := NodeByLabel(b.g, fields[2])
			if src < 0 {
				return fail("unknown node %q", fields[1])
			}
			if dst < 0 {
				return fail("unknown node %q", fields[2])
			}
			dist, lat, mem := 0, -1, false
			for i := 3; i < len(fields); i++ {
				switch fields[i] {
				case "dist", "lat":
					if i+1 >= len(fields) {
						return fail("%s wants a value", fields[i])
					}
					v, err := strconv.Atoi(fields[i+1])
					if err != nil {
						return fail("bad %s value %q", fields[i], fields[i+1])
					}
					if fields[i] == "dist" {
						dist = v
					} else {
						// -1 is the "use the default" sentinel below, so a
						// negative latency would be dropped silently; reject
						// it instead (Validate forbids it anyway).
						if v < 0 {
							return fail("lat wants a non-negative value, got %d", v)
						}
						lat = v
					}
					i++
				case "mem":
					mem = true
				default:
					return fail("unknown edge attribute %q", fields[i])
				}
			}
			switch {
			case mem && lat >= 0:
				b.addEdge(src, dst, dist, EdgeMem, lat)
			case mem:
				b.MemEdge(src, dst, dist)
			case lat >= 0:
				b.EdgeLat(src, dst, dist, lat)
			default:
				b.Edge(src, dst, dist)
			}
		case "end":
			if b == nil {
				return fail("end outside loop")
			}
			g, err := b.Build()
			if err != nil {
				return nil, err
			}
			graphs = append(graphs, g)
			b = nil
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ddg: %w", err)
	}
	if b != nil {
		return nil, fmt.Errorf("ddg: loop %s not terminated with end", b.g.Name)
	}
	return graphs, nil
}

// referenceParseOne decodes exactly one loop from the stream.
func referenceParseOne(r io.Reader) (*Graph, error) {
	gs, err := referenceParseText(r)
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("ddg: want exactly one loop, got %d", len(gs))
	}
	return gs[0], nil
}

// referenceParseOpKind is ParseOpKind as a linear scan of the mnemonic
// table.
func referenceParseOpKind(s string) (OpKind, error) {
	for k := OpKind(1); k < numOpKinds; k++ {
		if opNames[k] == s {
			return k, nil
		}
	}
	return OpInvalid, fmt.Errorf("ddg: unknown op kind %q", s)
}

// The differential tests that need the workload and corpus generators live
// in the external test package (those packages import ddg); they reach the
// reference codec through these.
var (
	ReferenceParseText   = referenceParseText
	ReferenceMarshalText = referenceMarshalText
)
