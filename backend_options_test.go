package clusched

import (
	"strings"
	"testing"
	"time"
)

// mustPanic runs f and returns the panic message, failing if it ran clean.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	defer func() { recover() }()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		f()
	}()
	if msg == "" {
		t.Fatal("expected a panic for a misgrouped option")
	}
	return msg
}

// TestOptionGroupsEnforced: an option handed to a constructor outside its
// group must fail loudly at construction, naming the option and its home —
// never be silently ignored (NewLocal(WithReplication(true)) quietly
// compiling without replication is the trap this closes).
func TestOptionGroupsEnforced(t *testing.T) {
	if msg := mustPanic(t, func() { NewLocal(WithReplication(true)) }); !strings.Contains(msg, "WithReplication") || !strings.Contains(msg, "NewLocal") {
		t.Fatalf("panic message unhelpful: %q", msg)
	}
	if msg := mustPanic(t, func() { NewOptions(WithWorkers(8)) }); !strings.Contains(msg, "WithWorkers") || !strings.Contains(msg, "NewOptions") {
		t.Fatalf("panic message unhelpful: %q", msg)
	}
	mustPanic(t, func() { NewRemote("http://x", WithStrategy("uas")) })
	mustPanic(t, func() { NewLocal(WithTimeout(time.Second)) })
	if msg := mustPanic(t, func() { NewOptions(WithSpeculation(4)) }); !strings.Contains(msg, "WithSpeculation") || !strings.Contains(msg, "NewOptions") {
		t.Fatalf("panic message unhelpful: %q", msg)
	}

	// Well-grouped options construct cleanly.
	opts := NewOptions(WithStrategy("uas"), WithMaxII(3))
	if opts.Strategy != "uas" || opts.MaxII != 3 {
		t.Fatalf("options not applied: %+v", opts)
	}
	if NewLocal(WithWorkers(2), WithCacheSize(8), WithSpeculation(4)) == nil {
		t.Fatal("NewLocal failed")
	}
	if NewRemote("http://x", WithTimeout(time.Second)) == nil {
		t.Fatal("NewRemote failed")
	}
}
