package ddg

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestReleasedParserHoldsNothing: what goes back to the pool references
// neither the text it parsed (labels and names are substrings of it) nor
// the graphs it handed out, whether the parse succeeded or not; and a
// parser that read a loop of more than maxPooledNodes nodes does not go
// back.
func TestReleasedParserHoldsNothing(t *testing.T) {
	if raceDetector {
		t.Skip("under -race the pool drops what is put into it at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	loop := func(name string, nodes int) string {
		var sb strings.Builder
		sb.WriteString("loop " + name + "\n")
		for i := 0; i < nodes; i++ {
			sb.WriteString("node v" + strconv.Itoa(i) + " iadd\n")
		}
		return sb.String() + "edge v0 v1\nend\n"
	}
	pooled := func() *textParser {
		p := parserPool.Get().(*textParser)
		if p.g != nil || p.dupLabel != "" || p.lineNo != 0 || len(p.labels) != 0 || len(p.graphs) != 0 {
			t.Fatalf("a pooled parser still holds state: %+v", p)
		}
		for _, g := range p.graphs[:cap(p.graphs)] {
			if g != nil {
				t.Fatalf("a pooled parser still holds graph %s", g.Name)
			}
		}
		return p
	}
	for _, text := range []string{
		loop("a", 3) + loop("b", 4),
		loop("a", 3) + "loop c\nnode x load\nnode x load\n", // fails mid-loop
	} {
		ParseString(text)
		p := pooled()
		if p.peak != 4 {
			t.Fatalf("the parser that read %q is not the pooled one (peak %d)", text[:12], p.peak)
		}
		parserPool.Put(p)
	}
	// Sized by its node lines, not by its labels: one label a thousand
	// times grows every buffer but the index.
	same := "loop same\n" + strings.Repeat("node x iadd\n", maxPooledNodes+1) + "end\n"
	for _, text := range []string{loop("big", maxPooledNodes+1), same} {
		ParseOneString(text)
		p := pooled()
		if p.peak > maxPooledNodes {
			t.Fatalf("a parser sized for %d nodes went back to the pool", p.peak)
		}
		parserPool.Put(p)
	}
}
