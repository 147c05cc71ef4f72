package vliwsim

import (
	"strings"
	"testing"
)

func TestTraceEqualAndDiff(t *testing.T) {
	a := &Trace{Stores: []StoreRecord{{Node: 1, Iter: 0, Value: 7}, {Node: 2, Iter: 0, Value: 9}}}
	b := &Trace{Stores: []StoreRecord{{Node: 1, Iter: 0, Value: 7}, {Node: 2, Iter: 0, Value: 9}}}
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Error("identical traces compare unequal")
	}
	b.Stores[1].Value = 10
	if a.Equal(b) {
		t.Error("different traces compare equal")
	}
	if d := a.Diff(b); !strings.Contains(d, "store 1 differs") {
		t.Errorf("Diff = %q", d)
	}
	c := &Trace{Stores: a.Stores[:1]}
	if d := a.Diff(c); !strings.Contains(d, "counts differ") {
		t.Errorf("Diff = %q", d)
	}
}

func TestValueFunctionsAreDiscriminating(t *testing.T) {
	// Different nodes, iterations and operand orders must produce distinct
	// values — otherwise the trace comparison is blind.
	if InitialValue(1, -1) == InitialValue(2, -1) {
		t.Error("initial values collide across nodes")
	}
	if InitialValue(1, -1) == InitialValue(1, -2) {
		t.Error("initial values collide across iterations")
	}
	if StoreValue([]uint64{1, 2}) == StoreValue([]uint64{2, 1}) {
		t.Error("store values insensitive to operand order")
	}
	if StoreValue([]uint64{1}) == StoreValue([]uint64{1, 1}) {
		t.Error("store values insensitive to operand count")
	}
}

// TestCanonicalOrderIsTotal: two instances of one store that disagree leave
// two records with the same (Iter, Node). Their order, and with it the Diff
// text a divergence report quotes, must not depend on which instance the
// executor happened to record first.
func TestCanonicalOrderIsTotal(t *testing.T) {
	var a, b Trace
	for k := 0; k < 20; k++ {
		lo := StoreRecord{Node: 3, Iter: k, Value: uint64(100 + k)}
		hi := StoreRecord{Node: 3, Iter: k, Value: uint64(900 - k)}
		other := StoreRecord{Node: 5, Iter: k, Value: 1}
		a.Stores = append(a.Stores, lo, other, hi)
		b.Stores = append(b.Stores, hi, lo, other)
	}
	a.canonicalize()
	b.canonicalize()
	if d := a.Diff(&b); d != "" {
		t.Fatalf("one set of records, two canonical orders: %s", d)
	}
	for i := 1; i < len(a.Stores); i++ {
		p, q := a.Stores[i-1], a.Stores[i]
		if p.Iter > q.Iter || p.Iter == q.Iter && (p.Node > q.Node || p.Node == q.Node && p.Value >= q.Value) {
			t.Fatalf("records %d and %d out of (Iter, Node, Value) order: %+v, %+v", i-1, i, p, q)
		}
	}
	ref := &Trace{Stores: []StoreRecord{{Node: 3, Iter: 0, Value: 100}}}
	if a.Diff(ref) != b.Diff(ref) {
		t.Fatalf("Diff text depends on input order: %q vs %q", a.Diff(ref), b.Diff(ref))
	}
}
