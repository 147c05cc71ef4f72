package sched

import (
	"math/rand"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// TestFreeSlotScansMatchLinearScan fills reservation tables at random —
// intervals on both sides of a word boundary, clusters that lack a class
// of units, bus copies, copies longer than the interval — and holds
// earliest and latest, from negative and positive times over every window
// length, to the retired scan: one canPlace per cycle.
func TestFreeSlotScansMatchLinearScan(t *testing.T) {
	hetero, err := machine.NewHetero(2, 3, 32, [][ddg.NumClasses]int{{2, 0, 1}, {1, 3, 0}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	machines := []machine.Config{machine.MustParse("4c2b2l64r"), machine.MustParse("2c2b4l64r"), hetero, machine.Unified(64)}
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpFMul, ddg.OpLoad}
	rng := rand.New(rand.NewSource(49))
	var rt mrt
	scans := 0
	for _, ii := range []int{1, 2, 3, 63, 64, 65, 127, 130} {
		for _, m := range machines {
			k := max(1, m.Clusters)
			for _, density := range []float64{0, 0.3, 1, 4} {
				rt.reset(m, k, ii)
				for range int(density * float64(ii*k*4)) {
					in := Instance{Cluster: int16(rng.Intn(k)), IsCopy: rng.Intn(4) == 0}
					op := ops[rng.Intn(len(ops))]
					if in.IsCopy {
						op = ddg.OpCopy
					}
					if at := rng.Intn(6*ii) - 3*ii; rt.canPlace(in, op, at) {
						rt.place(in, op, at)
					}
				}
				for c := 0; c < k; c++ {
					for _, op := range append(ops, ddg.OpCopy) {
						in := Instance{Cluster: int16(c), IsCopy: op == ddg.OpCopy}
						for range 24 {
							from := rng.Intn(8*ii+8) - 4*ii - 4
							for _, n := range []int{1, 1 + rng.Intn(ii), ii} {
								scans++
								want, wantOK := 0, false
								for at := from; at < from+n; at++ {
									if rt.canPlace(in, op, at) {
										want, wantOK = at, true
										break
									}
								}
								if got, ok := rt.earliest(in, op, from, n); got != want || ok != wantOK {
									t.Fatalf("%s II=%d %v %v: earliest(%d, %d) = %d, %v, want %d, %v", m.Name, ii, in, op, from, n, got, ok, want, wantOK)
								}
								want, wantOK = 0, false
								for at := from; at > from-n; at-- {
									if rt.canPlace(in, op, at) {
										want, wantOK = at, true
										break
									}
								}
								if got, ok := rt.latest(in, op, from, n); got != want || ok != wantOK {
									t.Fatalf("%s II=%d %v %v: latest(%d, %d) = %d, %v, want %d, %v", m.Name, ii, in, op, from, n, got, ok, want, wantOK)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d scans", scans)
}
