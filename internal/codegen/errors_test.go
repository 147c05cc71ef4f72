package codegen

import "testing"

// TestStageErrorText pins what a StageError prints: its stage is Time/II.
func TestStageErrorText(t *testing.T) {
	err := &StageError{Inst: "copy(c0_1)", Time: 21, II: 7, SC: 3}
	const want = "codegen: copy(c0_1) issues at cycle 21, in stage 3 of a 3-stage schedule at II 7"
	if got := err.Error(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
