package ddg

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// This file implements a line-oriented text format for DDGs, used by the
// replisched and loopgen commands, the examples and the wire codec:
//
//	loop <name>
//	node <label> <op>
//	edge <srcLabel> <dstLabel> [dist <n>] [lat <n>] [mem]
//	end
//
// Lines end at '\n'; fields are separated by runs of white space as
// unicode.IsSpace defines it (so a trailing '\r' or a U+00A0 between fields
// is just a separator). A line whose first field starts with '#' is a
// comment; blank lines are ignored. Multiple loops may appear in one stream.
//
// The codec is hand-written — no bufio.Scanner, strings.Fields or fmt on the
// success path — because every job and every result crosses it twice on the
// serving path. It is held to the behaviour of the straightforward
// implementation it replaced (kept as the test oracle in
// text_reference_test.go): the same inputs accepted, the same error strings,
// the same bytes written.

// encodableName reports whether a name can survive the whitespace-
// delimited line format: non-empty, no whitespace, and not starting with
// the comment character.
func encodableName(s string) bool {
	if s == "" || s[0] == '#' {
		return false
	}
	return strings.IndexFunc(s, unicode.IsSpace) < 0
}

// wireNames checks that every label of g can be carried by the text format
// and returns the labels a synthetic name could collide with. WriteText
// emits explicit labels as-is and synthetic "n<ID>" names for unlabeled
// nodes — disambiguated (with trailing underscores) when a synthetic name
// collides with an explicit label elsewhere in the graph, so the emitted
// names are always unique and the text re-parses into the same structure.
// Only a label starting with 'n' can collide, and only when some node has
// none: used is nil otherwise. Synthetic names never collide with each
// other.
func wireNames(g *Graph) (used map[string]bool, err error) {
	unlabeled := false
	for i := range g.Nodes {
		l := g.Nodes[i].Label
		if l == "" {
			unlabeled = true
		} else if !encodableName(l) {
			return nil, fmt.Errorf("ddg: node %d label %q cannot be encoded in the text format", i, l)
		}
	}
	for i := 0; unlabeled && i < len(g.Nodes); i++ {
		if l := g.Nodes[i].Label; l != "" && l[0] == 'n' {
			if used == nil {
				used = make(map[string]bool)
			}
			used[l] = true
		}
	}
	return used, nil
}

// appendName appends the name WriteText gives node v; used is wireNames'.
func appendName(dst []byte, g *Graph, v int, used map[string]bool) []byte {
	if l := g.Nodes[v].Label; l != "" {
		return append(dst, l...)
	}
	mark := len(dst)
	dst = strconv.AppendInt(append(dst, 'n'), int64(v), 10)
	for used[string(dst[mark:])] {
		dst = append(dst, '_')
	}
	return dst
}

// TextSize estimates the length of g's text encoding from its node and
// edge counts and the length of its names, underscores aside. An
// underestimate only costs the append a reallocation.
func TextSize(g *Graph) int {
	n, nameBytes := len(g.Nodes), 0
	for i := range g.Nodes {
		if l := len(g.Nodes[i].Label); l > 0 {
			nameBytes += l
			continue
		}
		nameBytes += 2 // "n" and a digit
		for d := i; d >= 10; d /= 10 {
			nameBytes++
		}
	}
	// "node <name> store\n" is 12 bytes around the name; a typical edge is
	// "edge <src> <dst> dist 1\n", 14 bytes around two average names.
	size := len("loop \nend\n") + len(g.Name) + 12*n + nameBytes
	if n > 0 {
		size += len(g.Edges) * (16 + 2*(nameBytes/n+1))
	}
	return size
}

// memEdgeDefaultLat is the latency Builder.MemEdge assigns and the codec
// omits: the writer and the parser must agree on this default or mem edges
// do not round-trip.
const memEdgeDefaultLat = 1

// AppendText appends the text encoding of g (the bytes WriteText writes) to
// dst and returns the extended buffer, growing it at most once when
// TextSize's estimate holds. A graph the format cannot carry is rejected
// before anything is appended.
func AppendText(dst []byte, g *Graph) ([]byte, error) {
	used, err := wireNames(g)
	if err != nil {
		return dst, err
	}
	if !encodableName(g.Name) {
		return dst, fmt.Errorf("ddg: loop name %q cannot be encoded in the text format", g.Name)
	}
	buf := slices.Grow(dst, TextSize(g))

	buf = append(buf, "loop "...)
	buf = append(buf, g.Name...)
	buf = append(buf, '\n')
	for i := range g.Nodes {
		buf = append(buf, "node "...)
		buf = appendName(buf, g, i, used)
		buf = append(buf, ' ')
		buf = append(buf, g.Nodes[i].Op.String()...)
		buf = append(buf, '\n')
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		buf = append(buf, "edge "...)
		buf = appendName(buf, g, e.Src, used)
		buf = append(buf, ' ')
		buf = appendName(buf, g, e.Dst, used)
		if e.Dist != 0 {
			buf = append(buf, " dist "...)
			buf = strconv.AppendInt(buf, int64(e.Dist), 10)
		}
		defaultLat := g.Nodes[e.Src].Op.Latency()
		if e.Kind == EdgeMem {
			buf = append(buf, " mem"...)
			defaultLat = memEdgeDefaultLat
		}
		if e.Lat != defaultLat {
			buf = append(buf, " lat "...)
			buf = strconv.AppendInt(buf, int64(e.Lat), 10)
		}
		buf = append(buf, '\n')
	}
	return append(buf, "end\n"...), nil
}

// WriteText encodes the graph in the text format. The encoding
// round-trips: parsing it yields a structurally identical graph (same
// operations, edges and fingerprint) whose re-encoding is byte-identical.
// Graphs with labels the format cannot carry (whitespace, leading '#') are
// rejected before anything is written.
func WriteText(w io.Writer, g *Graph) error {
	buf, err := AppendText(nil, g)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// MarshalText returns the text encoding of the graph as a string.
func MarshalText(g *Graph) (string, error) {
	buf, err := AppendText(nil, g)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// maxLineBytes bounds the length of one line, terminator excluded. The
// limit (and the error past it) is the 16 MiB token limit of the
// bufio.Scanner the format was first read with; no loop comes near it.
const maxLineBytes = 16*1024*1024 - 1

// asciiSpace is 1 for the ASCII bytes unicode.IsSpace accepts, else 0.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// spaceWidth returns the encoded width of the white-space rune (in the
// unicode.IsSpace sense) at s[i], or 0 when anything else starts there —
// invalid UTF-8 included.
func spaceWidth(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpaceWidth(s[i:])
}

// wideSpaceWidth is spaceWidth off the ASCII fast path.
func wideSpaceWidth(s string) int {
	if r, w := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// nextField returns the first white-space-separated field of s at or after
// index i and the index just past it; the field is empty when only white
// space is left.
func nextField(s string, i int) (field string, end int) {
	for i < len(s) {
		w := spaceWidth(s, i)
		if w == 0 {
			break
		}
		i += w
	}
	start := i
	// Byte steps are safe inside a field: no byte of a multi-byte rune
	// that is not white space decodes as white space on its own.
	for i < len(s) && spaceWidth(s, i) == 0 {
		i++
	}
	return s[start:i], i
}

// appendFields appends the fields of line to dst: strings.Fields into a
// caller-owned slice.
func appendFields(dst []string, line string) []string {
	for i := 0; ; {
		var f string
		if f, i = nextField(line, i); f == "" {
			return dst
		}
		dst = append(dst, f)
	}
}

// countLoop counts the node and edge lines of the loop whose body starts
// at src, so that the graph's slices are sized once. The
// counts are capacity hints and nothing depends on them being exact, so a
// line is classified by its leading bytes rather than tokenized: a body
// the main pass goes on to reject, or one indented with anything but
// blanks and tabs, may miscount.
func countLoop(src string) (nodes, edges int) {
	for src != "" {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		for line != "" && (line[0] == ' ' || line[0] == '\t') {
			line = line[1:]
		}
		switch {
		case strings.HasPrefix(line, "node"):
			nodes++
		case strings.HasPrefix(line, "edge"):
			edges++
		case strings.HasPrefix(line, "end"), strings.HasPrefix(line, "loop"):
			return nodes, edges
		}
	}
	return nodes, edges
}

// textParser is the state of one parse. Parsers are pooled: everything but
// the graphs it hands out — degree, Validate's working memory, the label
// index edges are resolved with, the list of loops read — is scratch that
// the next parse overwrites.
type textParser struct {
	lineNo int
	graphs []*Graph

	// g is the loop being read (nil between loops); dupLabel its first
	// duplicated node label, reported at the end directive the way
	// Builder.Build reports it.
	g        *Graph
	dupLabel string

	// labels maps the labels of g to their nodes; peak is the most node
	// lines a loop has had, which is what labels' buckets and the buffers
	// below stay sized for.
	labels map[string]int
	peak   int

	// Per-node out- and in-degrees (interleaved) and Validate's working
	// memory.
	degree   []int32
	validate validateScratch
}

// maxPooledNodes is the loop size past which a parser is dropped instead of
// pooled: clearing a map costs its largest population ever, which every
// later parse would pay, and the pool would hold the buffers. The largest
// suite loop has 115 nodes.
const maxPooledNodes = 1024

var parserPool = sync.Pool{New: func() any { return &textParser{labels: make(map[string]int)} }}

// release returns p to the pool holding no reference to what it parsed: the
// labels and graph names are substrings of the caller's text.
func (p *textParser) release() {
	p.resetLabels()
	if p.peak > maxPooledNodes {
		return
	}
	clear(p.graphs)
	p.lineNo, p.graphs, p.g, p.dupLabel = 0, p.graphs[:0], nil, ""
	parserPool.Put(p)
}

func (p *textParser) resetLabels() {
	p.peak = max(p.peak, len(p.degree)/2)
	clear(p.labels)
}

func (p *textParser) fail(format string, args ...any) error {
	return fmt.Errorf("ddg: line %d: %s", p.lineNo, fmt.Sprintf(format, args...))
}

// parse decodes every loop of src into p.graphs. readErr is the error that
// ended the read src came from, if any; as with a scanner, everything read
// before it is parsed first and the first bad line wins.
func (p *textParser) parse(src string, readErr error) error {
	var (
		fieldBuf [12]string // an edge line with every attribute has 8 fields
		fields   = fieldBuf[:0]
	)
	for src != "" {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		if len(line) > maxLineBytes {
			return fmt.Errorf("ddg: %w", bufio.ErrTooLong)
		}
		p.lineNo++
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if err := p.directive(fields, src); err != nil {
			return err
		}
	}
	if readErr != nil {
		return fmt.Errorf("ddg: %w", readErr)
	}
	if p.g != nil {
		return fmt.Errorf("ddg: loop %s not terminated with end", p.g.Name)
	}
	return nil
}

// directive executes one non-blank, non-comment line. rest is the input
// after the line, which a loop directive scans ahead for its size.
func (p *textParser) directive(fields []string, rest string) error {
	g := p.g
	switch fields[0] {
	case "loop":
		if g != nil {
			return p.fail("nested loop directive")
		}
		if len(fields) != 2 {
			return p.fail("loop directive wants a name")
		}
		// A field is never empty and holds no white space, so a leading
		// '#' is the only way a name can fail encodableName.
		if fields[1][0] == '#' {
			return p.fail("loop name %q cannot round-trip the text format", fields[1])
		}
		nodes, edges := countLoop(rest)
		p.g = &Graph{Name: fields[1], Nodes: make([]Node, 0, nodes), Edges: make([]Edge, 0, edges)}
		p.dupLabel = ""
		p.resetLabels()
		if cap(p.degree) < 2*nodes {
			p.degree = make([]int32, 0, 2*nodes)
		}
		p.degree = p.degree[:0]
	case "node":
		if g == nil {
			return p.fail("node outside loop")
		}
		if len(fields) != 3 {
			return p.fail("node wants <label> <op>")
		}
		if fields[1][0] == '#' {
			return p.fail("node name %q cannot round-trip the text format", fields[1])
		}
		op, err := ParseOpKind(fields[2])
		if err != nil {
			return p.fail("%v", err)
		}
		// One map operation per node: insert, and see whether the index
		// grew. A duplicate re-points its label at the later node, which no
		// longer matters — the loop is rejected at its end directive.
		id, labels := len(g.Nodes), len(p.labels)
		p.labels[fields[1]] = id
		if len(p.labels) == labels && p.dupLabel == "" {
			p.dupLabel = fields[1]
		}
		g.Nodes = append(g.Nodes, Node{ID: id, Op: op, Label: fields[1]})
		p.degree = append(p.degree, 0, 0)
	case "edge":
		if g == nil {
			return p.fail("edge outside loop")
		}
		if len(fields) < 3 {
			return p.fail("edge wants <src> <dst>")
		}
		src, ok := p.labels[fields[1]]
		if !ok {
			return p.fail("unknown node %q", fields[1])
		}
		dst, ok := p.labels[fields[2]]
		if !ok {
			return p.fail("unknown node %q", fields[2])
		}
		dist, lat, kind := 0, -1, EdgeData
		for i := 3; i < len(fields); i++ {
			switch fields[i] {
			case "dist", "lat":
				if i+1 >= len(fields) {
					return p.fail("%s wants a value", fields[i])
				}
				v, err := strconv.Atoi(fields[i+1])
				if err != nil {
					return p.fail("bad %s value %q", fields[i], fields[i+1])
				}
				if fields[i] == "dist" {
					dist = v
				} else {
					// -1 is the "use the default" sentinel below, so a
					// negative latency would be dropped silently; reject
					// it instead (Validate forbids it anyway).
					if v < 0 {
						return p.fail("lat wants a non-negative value, got %d", v)
					}
					lat = v
				}
				i++
			case "mem":
				kind = EdgeMem
			default:
				return p.fail("unknown edge attribute %q", fields[i])
			}
		}
		if lat < 0 {
			lat = g.Nodes[src].Op.Latency()
			if kind == EdgeMem {
				lat = memEdgeDefaultLat
			}
		}
		g.Edges = append(g.Edges, Edge{ID: len(g.Edges), Src: src, Dst: dst, Dist: dist, Kind: kind, Lat: lat})
		p.degree[2*src]++
		p.degree[2*dst+1]++
	case "end":
		if g == nil {
			return p.fail("end outside loop")
		}
		if p.dupLabel != "" {
			// Builder.Build's wording: one error for a duplicate label,
			// however the graph was made.
			return fmt.Errorf("ddg: builder for %s: duplicate node label %q", g.Name, p.dupLabel)
		}
		g.buildAdjacency(p.degree)
		if err := g.validate(p.labels, &p.validate); err != nil {
			return err
		}
		p.graphs = append(p.graphs, g)
		p.g = nil
	default:
		return p.fail("unknown directive %q", fields[0])
	}
	return nil
}

// buildAdjacency fills g.out and g.in from g.Edges, in edge-ID order like
// Builder. degree holds each node's out- and in-degree, interleaved. The
// per-node lists are sub-slices of one backing array, each with its
// capacity clipped to its length so that an append to one can never write
// into its neighbour.
func (g *Graph) buildAdjacency(degree []int32) {
	n := len(g.Nodes)
	lists := make([][]int32, 2*n)
	g.out, g.in = lists[:n:n], lists[n:]
	ids := make([]int32, 2*len(g.Edges))
	for v := 0; v < n; v++ {
		outDeg, inDeg := degree[2*v], degree[2*v+1]
		g.out[v], g.in[v], ids = ids[:0:outDeg], ids[outDeg:outDeg:outDeg+inDeg], ids[outDeg+inDeg:]
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		g.out[e.Src] = append(g.out[e.Src], int32(i))
		g.in[e.Dst] = append(g.in[e.Dst], int32(i))
	}
}

// ParseString decodes every loop in s. The graphs' names and labels are
// substrings of s, so they keep it alive.
func ParseString(s string) ([]*Graph, error) {
	return parseAll(s, nil)
}

func parseAll(s string, readErr error) ([]*Graph, error) {
	p := parserPool.Get().(*textParser)
	defer p.release()
	if err := p.parse(s, readErr); err != nil {
		return nil, err
	}
	return append([]*Graph(nil), p.graphs...), nil
}

// ParseOneString decodes exactly one loop from s.
func ParseOneString(s string) (*Graph, error) {
	p := parserPool.Get().(*textParser)
	defer p.release()
	if err := p.parse(s, nil); err != nil {
		return nil, err
	}
	return exactlyOne(p.graphs)
}

// ParseText decodes every loop in the stream. It reads the stream to its
// end first; the format has no use for incremental decoding.
func ParseText(r io.Reader) ([]*Graph, error) {
	var sb strings.Builder
	_, err := io.Copy(&sb, r)
	return parseAll(sb.String(), err)
}

// ParseOne decodes exactly one loop from the stream.
func ParseOne(r io.Reader) (*Graph, error) {
	gs, err := ParseText(r)
	if err != nil {
		return nil, err
	}
	return exactlyOne(gs)
}

func exactlyOne(gs []*Graph) (*Graph, error) {
	if len(gs) != 1 {
		return nil, fmt.Errorf("ddg: want exactly one loop, got %d", len(gs))
	}
	return gs[0], nil
}

// DOT renders the graph in Graphviz format. Cluster assignment may be nil;
// when given, nodes are grouped into subgraph clusters.
func DOT(g *Graph, cluster []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", g.Name)
	if cluster == nil {
		for i := range g.Nodes {
			fmt.Fprintf(&sb, "  n%d [label=%q];\n", i, g.NodeName(i)+"\\n"+g.Nodes[i].Op.String())
		}
	} else {
		maxC := 0
		for _, c := range cluster {
			if c > maxC {
				maxC = c
			}
		}
		for c := 0; c <= maxC; c++ {
			fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=\"cluster %d\";\n", c, c)
			for i := range g.Nodes {
				if cluster[i] == c {
					fmt.Fprintf(&sb, "    n%d [label=%q];\n", i, g.NodeName(i)+"\\n"+g.Nodes[i].Op.String())
				}
			}
			fmt.Fprint(&sb, "  }\n")
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		attrs := ""
		if e.Dist != 0 {
			attrs = fmt.Sprintf(" [label=\"d=%d\"]", e.Dist)
		}
		if e.Kind == EdgeMem {
			attrs = " [style=dashed]"
		}
		fmt.Fprintf(&sb, "  n%d -> n%d%s;\n", e.Src, e.Dst, attrs)
	}
	sb.WriteString("}\n")
	return sb.String()
}
