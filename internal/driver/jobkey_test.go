package driver

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// jobKeyLoop builds a fixed tiny loop whose fingerprint is stable by
// construction: the golden keys below embed it.
func jobKeyLoop(t *testing.T) *ddg.Graph {
	t.Helper()
	b := ddg.NewBuilder("golden")
	x := b.Node("x", ddg.OpLoad)
	m := b.Node("m", ddg.OpFMul)
	s := b.Node("s", ddg.OpStore)
	b.Edge(x, m, 0)
	b.Edge(m, s, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestJobKeyGolden pins the exact on-disk cache identity of a job. The
// persistent DiskCache addresses entries by this string: if this test
// fails, every existing store entry misses, so the format (and the graph
// fingerprint behind it) must only change deliberately, with the
// jobKeyVersion bumped.
func TestJobKeyGolden(t *testing.T) {
	g := jobKeyLoop(t)
	m := machine.MustParse("4c2b2l64r")
	cases := []struct {
		opts pipeline.Options
		want string
	}{
		{
			pipeline.Options{},
			fmt.Sprintf("v8|c=%016x|m=4c2b2l64r|strat=paper|rep=0|lrep=0|lat0=0|macro=0|maxii=0|noreg=0|ver=0", g.CanonicalFingerprint()),
		},
		{
			pipeline.Options{Replicate: true, LengthReplicate: true, MaxII: 17, VerifySchedules: true},
			fmt.Sprintf("v8|c=%016x|m=4c2b2l64r|strat=paper|rep=1|lrep=1|lat0=0|macro=0|maxii=17|noreg=0|ver=1", g.CanonicalFingerprint()),
		},
		{
			pipeline.Options{Strategy: "uas"},
			fmt.Sprintf("v8|c=%016x|m=4c2b2l64r|strat=uas|rep=0|lrep=0|lat0=0|macro=0|maxii=0|noreg=0|ver=0", g.CanonicalFingerprint()),
		},
	}
	for _, tc := range cases {
		got := JobKey(Job{Graph: g, Machine: m, Opts: tc.opts})
		if got != tc.want {
			t.Errorf("JobKey(%+v) =\n  %s\nwant\n  %s", tc.opts, got, tc.want)
		}
	}

	// The canonical fingerprint itself is part of the persisted identity:
	// pin it.
	const goldenCanonical = "2cb3cf142b81b0d9"
	if fp := fmt.Sprintf("%016x", g.CanonicalFingerprint()); fp != goldenCanonical {
		t.Errorf("canonical fingerprint of the golden loop = %s, want %s (a drift here silently invalidates every DiskCache entry)", fp, goldenCanonical)
	}

	// A v2 key for the same job must MISS under v4, not alias: the v2
	// encoding used the exact (name-sensitive) fingerprint under the g=
	// field, and no v4 key may collide with it.
	v2 := fmt.Sprintf("v2|g=%016x|m=4c2b2l64r|strat=paper|rep=0|lrep=0|lat0=0|macro=0|maxii=0|noreg=0|ver=0", g.Fingerprint())
	if got := JobKey(Job{Graph: g, Machine: m, Opts: pipeline.Options{}}); got == v2 {
		t.Errorf("v4 key aliases the old v2 key %s", v2)
	}
	// So must the v3 key: same format, but c= held the retired labeling's
	// fingerprint of the golden loop.
	v3 := "v3|c=40d7edb04f609e68|m=4c2b2l64r|strat=paper|rep=0|lrep=0|lat0=0|macro=0|maxii=0|noreg=0|ver=0"
	if got := JobKey(Job{Graph: g, Machine: m, Opts: pipeline.Options{}}); got == v3 {
		t.Errorf("v4 key aliases the old v3 key %s", v3)
	}
}

// TestJobKeyCanonicalAliasing pins the point of v3: a renamed, reordered
// presentation of the same loop shares one store identity, while a
// structurally different loop does not.
func TestJobKeyCanonicalAliasing(t *testing.T) {
	g := jobKeyLoop(t)
	m := machine.MustParse("4c2b2l64r")
	clone := ddg.PermuteRandom(g, "golden-renamed", 42)
	kg := JobKey(Job{Graph: g, Machine: m, Opts: pipeline.Options{}})
	kc := JobKey(Job{Graph: clone, Machine: m, Opts: pipeline.Options{}})
	if kg != kc {
		t.Errorf("isomorphic clone got a different JobKey:\n  %s\n  %s", kg, kc)
	}
	if g.Fingerprint() == clone.Fingerprint() {
		t.Fatal("test defeated: the clone kept the exact fingerprint")
	}

	b := ddg.NewBuilder("golden")
	x := b.Node("x", ddg.OpLoad)
	mm := b.Node("m", ddg.OpFMul)
	s := b.Node("s", ddg.OpStore)
	b.Edge(x, mm, 0)
	b.Edge(mm, s, 1) // distance differs from jobKeyLoop
	other := b.MustBuild()
	if ko := JobKey(Job{Graph: other, Machine: m, Opts: pipeline.Options{}}); ko == kg {
		t.Errorf("structurally different loop shares the JobKey %s", ko)
	}
}

// TestMachineKeyHetero pins the explicit field-by-field encoding of
// heterogeneous FU matrices: two configs sharing a name but differing in
// one matrix entry must key apart, and the encoding itself is golden (it
// addresses persistent store entries just like the rest of JobKey).
func TestMachineKeyHetero(t *testing.T) {
	base := machine.MustParse("2c1b1l32r")
	het := base
	het.Hetero = [][ddg.NumClasses]int{{2, 1, 1}, {1, 1, 2}}

	if mk := machineKey(base); mk != "2c1b1l32r" {
		t.Errorf("homogeneous machineKey = %q, want the bare name", mk)
	}
	const golden = "2c1b1l32r;het=2,1,1|1,1,2"
	if mk := machineKey(het); mk != golden {
		t.Errorf("hetero machineKey = %q, want %q", mk, golden)
	}

	het2 := base
	het2.Hetero = [][ddg.NumClasses]int{{2, 1, 1}, {1, 2, 2}}
	if machineKey(het) == machineKey(het2) {
		t.Error("configs differing in one FU entry share a machine key")
	}
	// And the distinction must survive into JobKey.
	g := jobKeyLoop(t)
	if JobKey(Job{Graph: g, Machine: het}) == JobKey(Job{Graph: g, Machine: het2}) {
		t.Error("JobKey does not separate heterogeneous FU matrices")
	}
}

// TestJobKeyDistinguishesStrategy: the same loop under two strategies must
// occupy distinct store entries — the acceptance path of the strategy-aware
// cache.
func TestJobKeyDistinguishesStrategy(t *testing.T) {
	g := jobKeyLoop(t)
	m := machine.MustParse("4c2b2l64r")
	keys := map[string]string{}
	for _, name := range pipeline.StrategyNames() {
		k := JobKey(Job{Graph: g, Machine: m, Opts: pipeline.Options{Strategy: name}})
		for other, ok := range keys {
			if ok == k {
				t.Fatalf("strategies %q and %q share the key %s", name, other, k)
			}
		}
		keys[name] = k
	}
	// The default (empty) strategy aliases "paper" — by design: one job,
	// one identity.
	def := JobKey(Job{Graph: g, Machine: m, Opts: pipeline.Options{}})
	if def != keys["paper"] {
		t.Fatalf("default-strategy key %s differs from explicit paper key %s", def, keys["paper"])
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "v8|") {
			t.Fatalf("key %s lacks the version prefix", k)
		}
	}
}

// TestCacheAliasesDefaultAndExplicitPaper: the in-memory cache (not just
// JobKey) must treat the default strategy and the explicit "paper" name
// as one identity — a legacy "" job followed by an explicit "paper" job
// is a hit, not a recompilation.
func TestCacheAliasesDefaultAndExplicitPaper(t *testing.T) {
	g := jobKeyLoop(t)
	m := machine.MustParse("4c2b2l64r")
	c := New(Config{})
	if _, err := c.Compile(context.Background(), Job{Graph: g, Machine: m}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(context.Background(), Job{Graph: g, Machine: m, Opts: pipeline.Options{Strategy: "paper"}}); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("default and explicit paper forked the cache: %+v", st)
	}
	if ss := st.Strategies["paper"]; ss.Misses != 1 || ss.Hits != 1 {
		t.Fatalf("per-strategy stats did not merge the canonical name: %+v", st.Strategies)
	}
}
