package arena

import (
	"slices"
	"testing"
)

func TestGrownKeepsContentsAndZeroFillsGrowth(t *testing.T) {
	buf := []int{1, 2, 3}
	// Shrinking and regrowing within capacity reuses the array as it is.
	if got := Grown(buf, 2); len(got) != 2 || &got[0] != &buf[0] {
		t.Fatalf("Grown within capacity: len %d, reused backing array: %v", len(got), &got[0] == &buf[0])
	}
	if got := Grown(buf[:1], 3); !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("regrown within capacity = %v, want the old contents [1 2 3]", got)
	}
	// Growing past capacity keeps everything up to the old capacity and
	// zero-fills the rest.
	short := make([]int, 2, 4)
	copy(short[:4], []int{7, 8, 9, 10})
	got := Grown(short, 9)
	if want := []int{7, 8, 9, 10, 0, 0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("Grown past capacity = %v, want %v", got, want)
	}
	if got := Grown([]int(nil), 0); len(got) != 0 {
		t.Errorf("Grown(nil, 0) has length %d", len(got))
	}
	if got := Grown([]string(nil), 3); !slices.Equal(got, []string{"", "", ""}) {
		t.Errorf("Grown(nil, 3) = %q", got)
	}
}

func TestZeroedClearsReusedAndNewElements(t *testing.T) {
	buf := []int{5, 6, 7, 8}
	got := Zeroed(buf[:2], 4)
	if !slices.Equal(got, []int{0, 0, 0, 0}) {
		t.Errorf("Zeroed within capacity = %v", got)
	}
	if &got[0] != &buf[0] {
		t.Error("Zeroed within capacity reallocated")
	}
	if got := Zeroed([]int{1, 2}, 5); !slices.Equal(got, []int{0, 0, 0, 0, 0}) {
		t.Errorf("Zeroed past capacity = %v", got)
	}
}

func TestMarksResetEmptiesTheSet(t *testing.T) {
	var mk Marks
	mk.Reset(4)
	mk.Set(1)
	mk.Set(3)
	for i, want := range []bool{false, true, false, true} {
		if mk.Has(int32(i)) != want {
			t.Errorf("Has(%d) = %v, want %v", i, !want, want)
		}
	}
	mk.Reset(6)
	for i := int32(0); i < 6; i++ {
		if mk.Has(i) {
			t.Errorf("Has(%d) after Reset", i)
		}
	}
}

func TestMarksEpochWrapAround(t *testing.T) {
	var mk Marks
	mk.Reset(8) // epoch 1
	mk.Reset(8) // epoch 2
	mk.Set(1)
	mk.Set(7)
	mk.Reset(3) // shrink: id 7's epoch-2 stamp stays in the array's tail

	mk.epoch = ^uint32(0) // the next Reset wraps
	mk.Set(0)
	mk.Reset(3)
	if mk.epoch != 1 {
		t.Fatalf("epoch after wrap-around = %d, want 1", mk.epoch)
	}
	for i := int32(0); i < 3; i++ {
		if mk.Has(i) {
			t.Errorf("Has(%d) right after the wrap", i)
		}
	}
	mk.Set(2)
	if !mk.Has(2) || mk.Has(1) {
		t.Error("set is unusable after the wrap")
	}

	// Regrow into the tail at epoch 2 again: the wrap must have cleared the
	// whole capacity, or ids 1 and 7 would read as members.
	mk.Reset(8)
	for i := int32(0); i < 8; i++ {
		if mk.Has(i) {
			t.Errorf("Has(%d) after regrowing past the wrap: a pre-wrap stamp survived", i)
		}
	}
	// And past capacity.
	mk.Reset(64)
	mk.Set(40)
	for i := int32(0); i < 64; i++ {
		if mk.Has(i) != (i == 40) {
			t.Errorf("Has(%d) = %v after regrowing past capacity", i, mk.Has(i))
		}
	}
}
