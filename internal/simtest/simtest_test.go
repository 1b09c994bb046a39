package simtest

import (
	"errors"
	"slices"
	"testing"
	"time"

	"lateral/internal/core"
)

// TestClockTimers pins the virtual clock's contract: timers fire in
// deadline order (ties in arming order), the clock reads each timer's own
// deadline when it fires, stop disarms, and non-positive delays fire
// immediately.
func TestClockTimers(t *testing.T) {
	clk := NewClock(0)
	var fired []string
	var at []time.Time
	arm := func(name string, d time.Duration) func() bool {
		return clk.AfterFunc(d, func() {
			// AfterFunc runs callbacks under clk.mu: read the field, not Now.
			fired = append(fired, name)
			at = append(at, clk.now)
		})
	}
	arm("10ms", 10*time.Millisecond)
	arm("5ms", 5*time.Millisecond)
	stop := arm("7ms", 7*time.Millisecond)
	arm("5ms-second", 5*time.Millisecond)
	if got := clk.Pending(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	if !stop() {
		t.Fatal("stop on armed timer reported not-pending")
	}
	if stop() {
		t.Fatal("second stop reported the timer still pending")
	}
	clk.Advance(6 * time.Millisecond)
	if want := []string{"5ms", "5ms-second"}; !slices.Equal(fired, want) {
		t.Fatalf("after 6ms fired %v, want %v (deadline order, ties in arming order)", fired, want)
	}
	for _, got := range at {
		if want := Epoch.Add(5 * time.Millisecond); !got.Equal(want) {
			t.Fatalf("timer fired at %v, want %v", got, want)
		}
	}
	clk.Advance(10 * time.Millisecond)
	if want := []string{"5ms", "5ms-second", "10ms"}; !slices.Equal(fired, want) {
		t.Fatalf("after 16ms fired %v, want %v (stopped timer must not fire)", fired, want)
	}
	if want := Epoch.Add(10 * time.Millisecond); !at[2].Equal(want) {
		t.Fatalf("10ms timer fired at %v, want %v", at[2], want)
	}
	if got := clk.Pending(); got != 0 {
		t.Fatalf("pending = %d after every timer fired or stopped, want 0", got)
	}
	stopNow := arm("now", 0)
	if want := []string{"5ms", "5ms-second", "10ms", "now"}; !slices.Equal(fired, want) {
		t.Fatal("zero-delay timer did not fire immediately")
	}
	if stopNow() {
		t.Fatal("stop on an already-fired timer reported pending")
	}
	if got, want := clk.Elapsed(), 16*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

// TestScheduleRoundtrip pins the codec: encode → decode → encode is the
// identity for every fault kind.
func TestScheduleRoundtrip(t *testing.T) {
	sched := DefaultSchedule(3)
	sched = append(sched, EpochSchedule(3)...)
	sched = append(sched,
		Schedule{At: 0, Fault: Fault{Kind: FaultPartition, Target: "lb-svc-1", Peer: "svc-1"}},
		Schedule{At: time.Second, Fault: Fault{Kind: FaultHeal}},
	)
	if err := Validate(sched); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	enc := EncodeSchedule(sched)
	dec, err := DecodeSchedule(enc)
	if err != nil {
		t.Fatalf("DecodeSchedule: %v\n%s", err, enc)
	}
	if got := EncodeSchedule(dec); got != enc {
		t.Fatalf("roundtrip mismatch:\n--- first\n%s--- second\n%s", enc, got)
	}
}

// TestScheduleDecodeRejects pins the decoder's bounds on hostile input.
func TestScheduleDecodeRejects(t *testing.T) {
	bad := []string{
		"crash svc-1",               // missing @offset
		"@5ms explode svc-1",        // unknown fault
		"@5ms crash",                // missing arg
		"@-5ms crash svc-1",         // negative offset
		"@500h crash svc-1",         // offset beyond bound
		"@5ms partition a",          // missing peer
		"@5ms delay 1 200 1ms 1",    // pct > 100
		"@5ms dup svc-1 9999999999", // count beyond bound
		"@5ms crash sv\x01c",        // control char in name
	}
	for _, text := range bad {
		if _, err := DecodeSchedule(text); err == nil {
			t.Errorf("DecodeSchedule(%q) accepted bad input", text)
		}
	}
	ok := "# comment\n\n@5ms crash svc-1\n@6ms heal\n@7ms tamper\n"
	if _, err := DecodeSchedule(ok); err != nil {
		t.Errorf("DecodeSchedule(%q): %v", ok, err)
	}
}

// TestHarnessBasics drives the harness directly: a budgeted call
// completes, a wedged handler is abandoned at its deadline with the slot
// preserved, and all four invariants hold.
func TestHarnessBasics(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Replicas: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CallWork("op-1", "key-a", 10*time.Millisecond); err != nil {
		t.Fatalf("CallWork: %v", err)
	}
	if err := h.CallWork("op-2", "key-b", 0); err != nil {
		t.Fatalf("unbounded CallWork: %v", err)
	}
	err = h.CallStall("op-3", "key-c", 5*time.Millisecond)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("CallStall = %v, want ErrDeadline", err)
	}
	if err := h.CallWork("op-4", "key-d", 10*time.Millisecond); err != nil {
		t.Fatalf("CallWork after stall: %v", err)
	}
	if v := h.CheckAll(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	started, ok, tmo, _, _, _, inflight := h.Led.Counts()
	if started != 4 || ok != 3 || tmo != 1 || inflight != 0 {
		t.Fatalf("ledger = started %d ok %d tmo %d inflight %d, want 4/3/1/0",
			started, ok, tmo, inflight)
	}
}

// TestExploreReplayIsByteIdentical is the determinism acceptance
// criterion: for every explorer row of the soak matrix, the same seed and
// schedule reproduce a byte-identical event trace across two independent
// runs — the contract behind each row's -simtest.seed replay.
func TestExploreReplayIsByteIdentical(t *testing.T) {
	for _, row := range soakRows {
		if row.explore == nil {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			a, err := Explore(row.explore(42))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Explore(row.explore(42))
			if err != nil {
				t.Fatal(err)
			}
			if a.Failed() {
				t.Fatalf("seed 42 violated invariants:\n%s", a.TraceBytes())
			}
			if a.TraceBytes() != b.TraceBytes() {
				t.Fatalf("trace not byte-identical across runs:\n--- run 1\n%s--- run 2\n%s",
					a.TraceBytes(), b.TraceBytes())
			}
		})
	}
}

// TestMutationIsCaught is the mutation smoke test: with the deliberate
// serialization bug enabled, the serial checker must flag a violation
// within 1000 explored schedules — in practice the very first seed whose
// operations land two calls on one replica.
func TestMutationIsCaught(t *testing.T) {
	caught := 0
	for seed := 1; seed <= 1000; seed++ {
		res, err := Explore(ExploreConfig{Seed: uint64(seed), Ops: 12, Replicas: 2, Buggy: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			caught = seed
			for _, v := range res.Violations {
				if v.Invariant != "handler-serialization" {
					t.Fatalf("seed %d: unexpected invariant flagged: %v", seed, v)
				}
			}
			break
		}
	}
	if caught == 0 {
		t.Fatal("serialization mutation survived 1000 explored schedules")
	}
	t.Logf("mutation caught at seed %d", caught)
}

// TestMinimizeShrinksFailingSchedule pins the minimizer: a failing config
// padded with irrelevant faults shrinks to a smaller config that still
// fails the same invariant.
func TestMinimizeShrinksFailingSchedule(t *testing.T) {
	cfg := ExploreConfig{Seed: 3, Ops: 16, Replicas: 2, Buggy: true, Schedule: DefaultSchedule(2)}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Skip("seed 3 does not fail with this schedule; mutation test covers detection")
	}
	min, minRes, err := Minimize(cfg)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !minRes.Failed() {
		t.Fatal("minimized config does not fail")
	}
	if len(min.Schedule) > len(cfg.Schedule) || min.Ops > cfg.Ops {
		t.Fatalf("minimize grew the config: %d faults / %d ops", len(min.Schedule), min.Ops)
	}
	t.Logf("minimized: %d→%d faults, %d→%d ops", len(cfg.Schedule), len(min.Schedule), cfg.Ops, min.Ops)
}
