// Deadline and watchdog behavior on the simulated clock: these are the
// former wall-clock sleep tests converted onto simtest.Clock. They live in
// package core_test because simtest imports core; the external package
// breaks the cycle. No test here sleeps — virtual time moves only when the
// test advances it, so the suite is immune to scheduler jitter and runs in
// microseconds.
package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/simtest"
)

// simGate blocks in Handle until released and records the peak number of
// concurrent Handle calls — the serialization witness.
type simGate struct {
	name      string
	gate      chan struct{}
	entered   chan struct{}
	inside    atomic.Int32
	maxInside atomic.Int32
	handled   atomic.Int32
}

func (g *simGate) CompName() string     { return g.name }
func (g *simGate) CompVersion() string  { return "1.0" }
func (g *simGate) Init(*core.Ctx) error { return nil }
func (g *simGate) Handle(core.Envelope) (core.Message, error) {
	in := g.inside.Add(1)
	defer g.inside.Add(-1)
	for {
		max := g.maxInside.Load()
		if in <= max || g.maxInside.CompareAndSwap(max, in) {
			break
		}
	}
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.gate
	g.handled.Add(1)
	return core.Message{Op: "ok"}, nil
}

// simLag gates in Handle, and once released makes a downstream call and
// reports the error it got — the residual-call witness, with the original
// time.Sleep replaced by an explicit gate the test releases after
// advancing virtual time past the budget.
type simLag struct {
	name       string
	downstream string
	gate       chan struct{}
	entered    chan struct{}
	ctx        *core.Ctx
	gotErr     chan error
}

func (l *simLag) CompName() string         { return l.name }
func (l *simLag) CompVersion() string      { return "1.0" }
func (l *simLag) Init(ctx *core.Ctx) error { l.ctx = ctx; return nil }
func (l *simLag) Handle(core.Envelope) (core.Message, error) {
	if l.entered != nil {
		l.entered <- struct{}{}
	}
	if l.gate != nil {
		<-l.gate
	}
	_, err := l.ctx.Call(l.downstream, core.Message{Op: "late"})
	l.gotErr <- err
	return core.Message{Op: "done"}, nil
}

func newSimSystem(t *testing.T) (*core.System, *simtest.Clock) {
	t.Helper()
	sys := core.NewSystem(core.NewMonolith(0))
	clk := simtest.NewClock(0)
	sys.SetClock(clk)
	return sys, clk
}

// TestWatchdogAbandonsHungHandlerSim: the watchdog abandons a wedged
// handler exactly when virtual time crosses the budget, the abandoned
// handler keeps its execution slot (later delivers queue behind it, never
// beside it), and the timeout is accounted.
func TestWatchdogAbandonsHungHandlerSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	deadline := clk.Now().Add(20 * time.Millisecond)
	go func() {
		_, err := sys.DeliverDeadline("g", core.Message{Op: "hang"}, core.Span{}, deadline)
		first <- err
	}()
	<-g.entered       // handler is wedged inside its slot
	clk.WaitTimers(1) // watchdog armed its expiry
	clk.Advance(19 * time.Millisecond)
	select {
	case err := <-first:
		t.Fatalf("deliver returned %v before the budget expired", err)
	default:
	}
	clk.Advance(2 * time.Millisecond) // crosses the 20ms budget
	if err := <-first; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("hung deliver: got %v, want ErrDeadline", err)
	}
	// The abandoned handler still occupies the slot: a fresh unbounded
	// Deliver must queue behind it, never run concurrently with it.
	second := make(chan error, 1)
	go func() {
		_, err := sys.Deliver("g", core.Message{Op: "next"})
		second <- err
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case err := <-second:
		t.Fatalf("second deliver finished while abandoned handler held the slot: %v", err)
	default:
	}
	close(g.gate) // release the abandoned handler (and every later one)
	<-g.entered   // second handler runs only now
	if err := <-second; err != nil {
		t.Fatalf("deliver after release: %v", err)
	}
	if max := g.maxInside.Load(); max != 1 {
		t.Errorf("max concurrent Handle = %d, want 1", max)
	}
	if st := sys.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestAbandonedHandlerResidualCallsFailFastSim: outbound calls an
// abandoned handler makes after its budget expired are refused with
// ErrDeadline — the budget bounds the whole transitive call tree.
func TestAbandonedHandlerResidualCallsFailFastSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	l := &simLag{
		name: "lag", downstream: "down",
		gate: make(chan struct{}), entered: make(chan struct{}, 1),
		gotErr: make(chan error, 1),
	}
	d := &simGate{name: "down", gate: make(chan struct{})}
	close(d.gate)
	for _, c := range []core.Component{l, d} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(core.ChannelSpec{Name: "down", From: "lag", To: "down"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	deadline := clk.Now().Add(10 * time.Millisecond)
	go func() {
		_, err := sys.DeliverDeadline("lag", core.Message{Op: "x"}, core.Span{}, deadline)
		res <- err
	}()
	<-l.entered
	clk.WaitTimers(1)
	clk.Advance(15 * time.Millisecond) // expire the budget while lag is gated
	if err := <-res; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("deliver: got %v, want ErrDeadline", err)
	}
	close(l.gate) // the abandoned handler now tries its downstream call
	if residual := <-l.gotErr; !errors.Is(residual, core.ErrDeadline) {
		t.Errorf("residual downstream call: got %v, want ErrDeadline", residual)
	}
	if n := d.handled.Load(); n != 0 {
		t.Errorf("downstream handler ran %d times on an expired budget", n)
	}
}

// TestDeadlineClearedAfterCompletionSim: a deadline-bearing call that
// finishes in budget must not leave a stale deadline poisoning later
// unbounded work, even after virtual time passes the old deadline.
func TestDeadlineClearedAfterCompletionSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	l := &simLag{name: "lag", downstream: "down", gotErr: make(chan error, 1)}
	d := &simGate{name: "down", gate: make(chan struct{})}
	close(d.gate)
	for _, c := range []core.Component{l, d} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(core.ChannelSpec{Name: "down", From: "lag", To: "down"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeliverDeadline("lag", core.Message{Op: "x"}, core.Span{}, clk.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	<-l.gotErr
	// Advance far past the old budget, then drive the component with no
	// deadline: its outbound call must not inherit the dead one.
	clk.Advance(2 * time.Second)
	ctx, err := sys.CtxOf("lag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call("down", core.Message{Op: "later"}); err != nil {
		t.Errorf("unbounded call after completed deadline call: %v", err)
	}
}

// TestCallCtxCancelSim: canceling the caller's context releases it with
// ErrCanceled while the handler is still executing; a pre-canceled context
// is refused before dispatch. (Converted off a real 10ms sleep: the
// handler signals entry instead.)
func TestCallCtxCancelSim(t *testing.T) {
	sys, _ := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 2)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.DeliverCtx(ctx, "g", core.Message{Op: "hang"})
		done <- err
	}()
	<-g.entered // handler is definitely executing
	cancel()
	if err := <-done; !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled deliver: got %v, want ErrCanceled", err)
	}
	close(g.gate)
	if st := sys.Stats(); st.Cancels != 1 {
		t.Errorf("Cancels = %d, want 1", st.Cancels)
	}
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sys.DeliverCtx(pre, "g", core.Message{Op: "x"}); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("pre-canceled deliver: got %v, want ErrCanceled", err)
	}
}

// TestWatchdogExpiryAtExactBoundary pins the boundary semantics: a budget
// is exhausted at its deadline instant, not one tick later.
func TestWatchdogExpiryAtExactBoundary(t *testing.T) {
	sys, clk := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(5 * time.Millisecond)
	res := make(chan error, 1)
	go func() {
		_, err := sys.DeliverDeadline("g", core.Message{Op: "hang"}, core.Span{}, deadline)
		res <- err
	}()
	<-g.entered
	clk.WaitTimers(1)
	clk.AdvanceTo(deadline) // exactly the deadline, not past it
	if err := <-res; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("deliver at exact deadline: got %v, want ErrDeadline", err)
	}
	close(g.gate)
}

// simTight calls downstream through CallCtx under a context deadline
// tighter than the budget it inherited, and reports the error it got.
type simTight struct {
	name       string
	downstream string
	clk        *simtest.Clock
	budget     time.Duration
	ctx        *core.Ctx
	gotErr     chan error
}

func (l *simTight) CompName() string         { return l.name }
func (l *simTight) CompVersion() string      { return "1.0" }
func (l *simTight) Init(ctx *core.Ctx) error { l.ctx = ctx; return nil }
func (l *simTight) Handle(core.Envelope) (core.Message, error) {
	// The context's own wall-clock timer sits years past the virtual
	// epoch, so only the system clock's expiry can end this hop.
	cctx, cancel := context.WithDeadline(context.Background(), l.clk.Now().Add(l.budget))
	defer cancel()
	_, err := l.ctx.CallCtx(cctx, l.downstream, core.Message{Op: "tight"})
	l.gotErr <- err
	return core.Message{Op: "done"}, nil
}

// launchChain loads comps, grants each one a channel named after the next,
// and initializes the system.
func launchChain(t *testing.T, sys *core.System, comps ...core.Component) {
	t.Helper()
	for _, c := range comps {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(comps); i++ {
		from, to := comps[i].CompName(), comps[i+1].CompName()
		if err := sys.Grant(core.ChannelSpec{Name: to, From: from, To: to}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetArmsOneExpiryPerChainSim: a budget set at the edge arms one
// timer for the whole call tree — three guarded hops (deliver → a, a → b,
// b → c) wait on the same expiry — and a chain that finishes in budget
// disarms it.
func TestBudgetArmsOneExpiryPerChainSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	a := &simLag{name: "a", downstream: "b", gotErr: make(chan error, 1)}
	b := &simLag{name: "b", downstream: "c", gotErr: make(chan error, 1)}
	c := &simGate{name: "c", gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	launchChain(t, sys, a, b, c)
	res := make(chan error, 1)
	go func() {
		_, err := sys.DeliverDeadline("a", core.Message{Op: "x"}, core.Span{}, clk.Now().Add(time.Second))
		res <- err
	}()
	<-c.entered // the third hop is executing, two callers above it wait
	if got := clk.Pending(); got != 1 {
		t.Fatalf("3-hop budgeted chain armed %d timers, want 1", got)
	}
	close(c.gate)
	if err := <-res; err != nil {
		t.Fatalf("chain in budget: %v", err)
	}
	if err := <-b.gotErr; err != nil {
		t.Fatalf("b → c: %v", err)
	}
	if err := <-a.gotErr; err != nil {
		t.Fatalf("a → b: %v", err)
	}
	if got := clk.Pending(); got != 0 {
		t.Errorf("%d timers still armed after the chain finished in budget, want 0", got)
	}
}

// TestTightenedHopArmsOwnExpirySim: a CallCtx whose context deadline is
// tighter than the inherited budget arms its own timer, which fires first:
// the tightened call fails with ErrDeadline while the outer request still
// completes in its own budget.
func TestTightenedHopArmsOwnExpirySim(t *testing.T) {
	sys, clk := newSimSystem(t)
	a := &simTight{name: "a", downstream: "g", clk: clk, budget: 5 * time.Millisecond, gotErr: make(chan error, 1)}
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	launchChain(t, sys, a, g)
	res := make(chan error, 1)
	go func() {
		_, err := sys.DeliverDeadline("a", core.Message{Op: "x"}, core.Span{}, clk.Now().Add(100*time.Millisecond))
		res <- err
	}()
	<-g.entered
	if got := clk.Pending(); got != 2 {
		t.Fatalf("armed %d timers, want 2 (the request's budget and the tightened hop's)", got)
	}
	clk.Advance(5 * time.Millisecond) // the tightened budget, far inside the outer one
	if err := <-a.gotErr; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("tightened call: got %v, want ErrDeadline", err)
	}
	if err := <-res; err != nil {
		t.Fatalf("outer request: got %v, want success inside its own budget", err)
	}
	if got := clk.Pending(); got != 0 {
		t.Errorf("%d timers still armed, want 0 (tightened fired, outer disarmed)", got)
	}
	close(g.gate)
}

// TestCanceledCallerLeavesExpiryArmedSim: when the caller of a budgeted
// request cancels mid-chain, the request's one expiry stays armed, so the
// abandoned handler's residual guarded call — admitted before the budget
// ran out and then wedged — is still released with ErrDeadline the moment
// virtual time crosses the budget.
func TestCanceledCallerLeavesExpiryArmedSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	l := &simLag{
		name: "lag", downstream: "down",
		gate: make(chan struct{}), entered: make(chan struct{}, 1),
		gotErr: make(chan error, 1),
	}
	d := &simGate{name: "down", gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	launchChain(t, sys, l, d)
	ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(50*time.Millisecond))
	defer cancel()
	res := make(chan error, 1)
	go func() {
		_, err := sys.DeliverCtx(ctx, "lag", core.Message{Op: "x"})
		res <- err
	}()
	<-l.entered
	cancel()
	if err := <-res; !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled deliver: got %v, want ErrCanceled", err)
	}
	if got := clk.Pending(); got != 1 {
		t.Fatalf("after cancel %d timers armed, want the budget's 1", got)
	}
	close(l.gate) // the abandoned handler makes its residual call, which wedges
	<-d.entered
	select {
	case err := <-l.gotErr:
		t.Fatalf("residual call returned %v before the budget expired", err)
	default:
	}
	if got := clk.Pending(); got != 1 {
		t.Fatalf("residual call armed its own timer: %d pending, want 1 shared", got)
	}
	clk.Advance(50 * time.Millisecond)
	if err := <-l.gotErr; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("residual call: got %v, want ErrDeadline at the budget", err)
	}
	close(d.gate)
	if st := sys.Stats(); st.Cancels != 1 || st.Timeouts != 1 {
		t.Errorf("Cancels = %d, Timeouts = %d, want 1 and 1", st.Cancels, st.Timeouts)
	}
}
