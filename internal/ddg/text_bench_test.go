package ddg_test

import (
	"runtime"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/workload"
)

// pinnedLoop is the suite loop the allocation pins are stated for: the
// first 29-node loop of the SPECfp95 suite (the suite's mean size), with
// its text form.
func pinnedLoop(tb testing.TB) (*ddg.Graph, string) {
	tb.Helper()
	for _, l := range workload.SPECfp95() {
		if l.Graph.NumNodes() == 29 {
			text, err := ddg.MarshalText(l.Graph)
			if err != nil {
				tb.Fatal(err)
			}
			return l.Graph, text
		}
	}
	tb.Fatal("suite has no 29-node loop")
	return nil, ""
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTextCodecAllocs pins what the codec allocates per loop. The parser
// and writer sit on the serving path four times per job; the Scanner/fmt
// implementation they replaced spent 234 allocations and 87 KB to parse
// this loop, most of it a 64 KiB scanner buffer.
func TestTextCodecAllocs(t *testing.T) {
	g, text := pinnedLoop(t)
	var sink *ddg.Graph
	parse := func() {
		var err error
		if sink, err = ddg.ParseOneString(text); err != nil {
			t.Fatal(err)
		}
	}
	// The parser's scratch is pooled, and -race drops pooled objects at
	// random (TestParseCensus is the exact count).
	if n := testing.AllocsPerRun(200, parse); n > 6 && !ddg.RaceDetector {
		t.Errorf("ParseOneString: %v allocs/op, want <= 6", n)
	}
	if b := bytesPerRun(200, parse); b > 6<<10 && !ddg.RaceDetector {
		t.Errorf("ParseOneString: %.0f B/op, want <= %d", b, 6<<10)
	}
	if sink.NumNodes() != g.NumNodes() {
		t.Fatalf("parsed %d nodes, want %d", sink.NumNodes(), g.NumNodes())
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ddg.MarshalText(g); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("MarshalText: %v allocs/op, want <= 3", n)
	}
}

// suiteTexts is the text form of every suite loop.
func suiteTexts(tb testing.TB) (graphs []*ddg.Graph, texts []string) {
	tb.Helper()
	for _, l := range workload.SPECfp95() {
		text, err := ddg.MarshalText(l.Graph)
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, l.Graph)
		texts = append(texts, text)
	}
	return graphs, texts
}

// BenchmarkParseText parses the suite's loops one at a time through the
// string entry point the wire codec uses; one op is one loop.
func BenchmarkParseText(b *testing.B) {
	_, texts := suiteTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddg.ParseOneString(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseTextReader is BenchmarkParseText through the io.Reader
// entry point (commands, ParseLoops), which pays one copy of the input.
func BenchmarkParseTextReader(b *testing.B) {
	_, texts := suiteTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddg.ParseOne(strings.NewReader(texts[i%len(texts)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalText encodes the suite's loops; one op is one loop.
func BenchmarkMarshalText(b *testing.B) {
	graphs, _ := suiteTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddg.MarshalText(graphs[i%len(graphs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseTextReference and BenchmarkMarshalTextReference run the
// retired Scanner/fmt codec on the same loops, so one run of this package's
// benchmarks shows what the rewrite bought.
func BenchmarkParseTextReference(b *testing.B) {
	_, texts := suiteTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddg.ReferenceParseText(strings.NewReader(texts[i%len(texts)])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalTextReference(b *testing.B) {
	graphs, _ := suiteTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddg.ReferenceMarshalText(graphs[i%len(graphs)]); err != nil {
			b.Fatal(err)
		}
	}
}
