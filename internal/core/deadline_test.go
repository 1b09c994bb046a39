package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateComp blocks in Handle until its gate is released (closed or sent to),
// and tracks how many goroutines are inside Handle at once — the witness
// that the watchdog and the admission queue never break per-component
// serialization.
type gateComp struct {
	name      string
	gate      chan struct{}
	inside    atomic.Int32
	maxInside atomic.Int32
	handled   atomic.Int32
}

func (g *gateComp) CompName() string    { return g.name }
func (g *gateComp) CompVersion() string { return "1.0" }
func (g *gateComp) Init(*Ctx) error     { return nil }
func (g *gateComp) Handle(env Envelope) (Message, error) {
	in := g.inside.Add(1)
	defer g.inside.Add(-1)
	for {
		max := g.maxInside.Load()
		if in <= max || g.maxInside.CompareAndSwap(max, in) {
			break
		}
	}
	<-g.gate
	g.handled.Add(1)
	return Message{Op: "ok"}, nil
}

// TestCallCtxDeadlineTightensInherited: a ctx deadline on CallCtx bounds
// the callee even when the calling handler has no budget of its own.
func TestCallCtxDeadlineTightensInherited(t *testing.T) {
	sys := newTestSystem(t)
	a := &echoComp{name: "a"}
	g := &gateComp{name: "g", gate: make(chan struct{})}
	for _, c := range []Component{a, g} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "to-g", From: "a", To: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := a.ctx.CallCtx(ctx, "to-g", Message{Op: "hang"})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("CallCtx past deadline: got %v, want ErrDeadline", err)
	}
	close(g.gate)
}

// TestFanInBoundedAdmission is the -race fan-in test: N goroutines Call
// into one gated component through a small admission queue. Excess callers
// must be shed with ErrOverloaded (and accounted), admitted ones must be
// strictly serialized, and the test must not deadlock.
func TestFanInBoundedAdmission(t *testing.T) {
	const (
		callers = 32
		limit   = 4
	)
	sys := newTestSystem(t)
	sys.SetAdmissionLimit(limit)
	a := &echoComp{name: "a"}
	g := &gateComp{name: "g", gate: make(chan struct{})}
	for _, c := range []Component{a, g} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "to-g", From: "a", To: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}

	var ok, shed, other atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.ctx.Call("to-g", Message{Op: "fan"})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// Wait until every caller beyond the admission bound has been shed,
	// then open the gate so the admitted ones drain.
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() < callers-limit {
		if time.Now().After(deadline) {
			t.Fatalf("sheds stalled at %d (want >= %d)", shed.Load(), callers-limit)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()

	if n := other.Load(); n != 0 {
		t.Fatalf("%d callers got unexpected errors", n)
	}
	if ok.Load()+shed.Load() != callers {
		t.Fatalf("ok %d + shed %d != %d", ok.Load(), shed.Load(), callers)
	}
	if ok.Load() < 1 || ok.Load() > limit {
		t.Errorf("admitted %d callers, want 1..%d", ok.Load(), limit)
	}
	if max := g.maxInside.Load(); max != 1 {
		t.Errorf("max concurrent Handle = %d, want 1 (serialization broken)", max)
	}
	if st := sys.Stats(); st.Overloads != int64(shed.Load()) {
		t.Errorf("Stats.Overloads = %d, shed = %d", st.Overloads, shed.Load())
	}
	// The queue drains: with the gate open, fresh calls are admitted again.
	if _, err := a.ctx.Call("to-g", Message{Op: "after"}); err != nil {
		t.Errorf("call after drain: %v", err)
	}
}

// TestAdmissionLimitZeroUnbounded: SetAdmissionLimit(0) restores the
// queue-forever behavior (no shedding).
func TestAdmissionLimitZeroUnbounded(t *testing.T) {
	sys := newTestSystem(t)
	sys.SetAdmissionLimit(0)
	g := &gateComp{name: "g", gate: make(chan struct{})}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	var fails atomic.Int32
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Deliver("g", Message{Op: "x"}); err != nil {
				fails.Add(1)
			}
		}()
	}
	for g.inside.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	if n := fails.Load(); n != 0 {
		t.Errorf("%d callers shed with the bound disabled", n)
	}
	if st := sys.Stats(); st.Overloads != 0 {
		t.Errorf("Overloads = %d with the bound disabled", st.Overloads)
	}
}

// TestWedgedHandlerKeepsItsWorker: an abandoned handler keeps the
// watchdog worker it runs on until it really finishes. Guarded calls made
// meanwhile are served by other workers (a job handed to the wedged worker
// would sit behind it and miss its budget), and a later guarded deliver to
// the wedged component queues behind its held slot.
func TestWedgedHandlerKeepsItsWorker(t *testing.T) {
	sys := newTestSystem(t)
	g := &gateComp{name: "g", gate: make(chan struct{})}
	e := &echoComp{name: "e"}
	for _, c := range []Component{g, e} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeliverDeadline("g", Message{Op: "hang"}, Span{}, time.Now().Add(20*time.Millisecond)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("wedged deliver: got %v, want ErrDeadline", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sys.DeliverDeadline("e", Message{Op: "x"}, Span{}, time.Now().Add(5*time.Second)); err != nil {
			t.Fatalf("guarded call %d while g is wedged: %v", i, err)
		}
	}
	second := make(chan error, 1)
	go func() {
		_, err := sys.DeliverDeadline("g", Message{Op: "next"}, Span{}, time.Now().Add(time.Minute))
		second <- err
	}()
	for sys.nodes["g"].admitted.Load() < 2 {
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched() // give a broken slot the chance to admit it
	}
	if in := g.inside.Load(); in != 1 {
		t.Fatalf("%d handlers inside g while its first handler was wedged, want 1", in)
	}
	close(g.gate)
	if err := <-second; err != nil {
		t.Fatalf("deliver queued behind the wedged handler: %v", err)
	}
	if max := g.maxInside.Load(); max != 1 {
		t.Errorf("max concurrent Handle = %d, want 1", max)
	}
}

// TestGuardWorkersRetire: the watchdog workers a burst of guarded calls
// spawns retire once they sit idle through a reap period, so the process
// returns to its baseline goroutine count.
func TestGuardWorkersRetire(t *testing.T) {
	sys := newTestSystem(t)
	a := &callerComp{name: "a", channel: "to-b"}
	b := &echoComp{name: "b"}
	for _, c := range []Component{a, b} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "to-b", From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := sys.DeliverDeadline("a", Message{Op: "x"}, Span{}, time.Now().Add(time.Minute)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sys.guards.mu.Lock()
	parked := len(sys.guards.idle)
	sys.guards.mu.Unlock()
	if parked == 0 {
		t.Fatal("burst left no parked workers to retire; the test would prove nothing")
	}
	// A worker idle for a whole period retires at the next tick: at most
	// two periods after the burst, plus scheduling slack.
	deadline := time.Now().Add(2*guardReapPeriod + time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines above baseline %v after the burst", runtime.NumGoroutine()-base, 2*guardReapPeriod)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
