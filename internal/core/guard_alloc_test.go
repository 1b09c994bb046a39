package core_test

// The guarded-path allocation gate: a budgeted call must cost at most a
// handful of allocations more than the same call unbudgeted. The watchdog
// runs handlers on pooled workers from pooled jobs and arms one expiry
// per budget, so all a budget adds is the armed timer and its stop
// function. `make bench-smoke` asserts this on every CI pass.

import (
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/kernel"
	"lateral/internal/mail"
)

// guardedExtraAllocs is the gate: allocs/op a budget may add to a call.
const guardedExtraAllocs = 4

func TestGuardedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path; bench-smoke runs this gate without -race")
	}
	sys, _, err := mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
	if err != nil {
		t.Fatal(err)
	}
	// ui → net compose on the microkernel: the call BenchmarkCall times.
	msg := core.Message{Op: "compose", Data: []byte("d")}
	plain := func() {
		if _, err := sys.Deliver("ui", msg); err != nil {
			t.Fatal(err)
		}
	}
	budgeted := func() {
		if _, err := sys.DeliverDeadline("ui", msg, core.Span{}, time.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: park the workers and fill the job and expiry pools.
	for i := 0; i < 100; i++ {
		plain()
		budgeted()
	}
	base := testing.AllocsPerRun(200, plain)
	got := testing.AllocsPerRun(200, budgeted)
	t.Logf("allocs/op: unbudgeted %.0f, budgeted %.0f", base, got)
	if got > base+guardedExtraAllocs {
		t.Errorf("budgeted call allocates %.0f/op, want <= unbudgeted %.0f + %d", got, base, guardedExtraAllocs)
	}
}
