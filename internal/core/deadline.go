package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the deadline / cancellation / backpressure layer of
// the invocation path. The contract (see DESIGN.md "Deadlines and
// backpressure"):
//
//   - A budget set at the edge (Ctx.CallCtx, DeliverDeadline, or the
//     distributed wire frame) bounds the WHOLE transitive call tree: every
//     outbound call a handler makes inherits the remaining budget via
//     Envelope.Deadline and node.deadline.
//   - Enforcement is the system's job, never the component's: expired
//     calls are refused before dispatch, and a handler that runs past its
//     budget is abandoned by a watchdog (the caller gets ErrDeadline; the
//     handler finishes on the watchdog worker it was running on, still
//     holding the component's execution slot, so serialization is never
//     violated).
//   - The watchdog is cheap enough to leave on. A budget arms ONE expiry
//     on the system Clock, at the hop that sets it; every nested hop that
//     inherits the same deadline waits on that expiry's channel. Guarded
//     handlers run on parked, stack-warm workers rather than a fresh
//     goroutine per hop.
//   - Backpressure is per component: the admission queue in invoke sheds
//     callers beyond System.admitLimit with ErrOverloaded instead of
//     queueing them forever behind a hung handler.

// outboundBudget is the budget an outbound call from a handler runs under:
// the handler's inherited deadline, which a ctx deadline may only tighten.
// An untightened call shares the inherited expiry; a tightened one gets a
// nil expiry, so its hop arms its own. ctx may be nil. Caller holds s.mu
// (the inherited values are from.deadline and from.expiry).
func outboundBudget(from *node, ctx context.Context) (time.Time, *expiry) {
	d, e := from.deadline, from.expiry
	if ctx != nil {
		if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
			return cd, nil
		}
	}
	return d, e
}

// budgetErr reports whether the call must be refused before dispatch:
// ErrCanceled when ctx is done, ErrDeadline when the budget is already
// spent, nil otherwise. ctx may be nil (the internal spelling of "no
// cancellation source" — see System.deliver). The deadline is judged
// against the system clock, so a simulated clock controls expiry.
func (s *System) budgetErr(ctx context.Context, deadline time.Time) error {
	if ctx != nil && ctx.Done() != nil {
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return ErrDeadline
			}
			return ErrCanceled
		default:
		}
	}
	if !deadline.IsZero() && !s.now().Before(deadline) {
		return ErrDeadline
	}
	return nil
}

// noteBudgetErr accounts a budget failure in the system's cost counters
// and journals it against the component it hit and the span it happened
// under. Off the fast path: only refused, abandoned, canceled, or shed
// calls pay for the lock, and the journal emission happens after it is
// released so recorders never run under s.mu.
func (s *System) noteBudgetErr(err error, actor string, sp Span) {
	var kind string
	s.mu.Lock()
	switch {
	case errors.Is(err, ErrDeadline):
		s.stats.Timeouts++
		kind = "deadline"
	case errors.Is(err, ErrCanceled):
		s.stats.Cancels++
		kind = "cancel"
	case errors.Is(err, ErrOverloaded):
		s.stats.Overloads++
		kind = "overload"
	}
	rec := s.events
	s.mu.Unlock()
	if rec != nil && kind != "" {
		rec.RecordEvent(kind, actor, err.Error(), sp.Trace, sp.ID)
	}
}

// expiry is one armed budget shared by every hop of a budgeted call tree.
// The hop that arms it — a deliver, or a CallCtx whose deadline tightened
// the inherited one — owns it; nested hops receive it through
// Envelope.expiry and select on the same done channel, so a chain of N
// hops arms one timer, not N.
type expiry struct {
	done chan struct{} // closed when the deadline passes
	fire func()        // closes done; built once, reused across pool trips

	// abandoned is set by any hop under this expiry that released its
	// caller before the handler finished. The owner then leaves the
	// expiry armed, so the abandoned handler's residual guarded calls
	// still expire at the budget.
	abandoned atomic.Bool
}

// expiries recycles disarmed expiries: one is returned only when its
// owner stopped the timer before it fired and no hop under it was
// abandoned, so its channel is still open and nothing references it.
var expiries = sync.Pool{New: func() any {
	e := &expiry{done: make(chan struct{})}
	e.fire = func() { close(e.done) }
	return e
}}

// guardJob is one guarded handler invocation handed to a watchdog worker.
// Jobs are pooled; one returns to the pool only after its caller has taken
// the reply, so an abandoned job is never reused under its worker.
type guardJob struct {
	s           *System
	n           *node
	env         Envelope
	compromised bool
	obs         Observer
	reply       chan guardReply // buffered: an abandoned handler never blocks
}

type guardReply struct {
	msg Message
	err error
}

var guardJobs = sync.Pool{New: func() any {
	return &guardJob{reply: make(chan guardReply, 1)}
}}

// run executes the job's handler under the component's execution slot and
// releases the slot and the admission count once the handler has really
// finished — abandoned or not.
func (j *guardJob) run() guardReply {
	n, env := j.n, &j.env
	n.handleMu.Lock()
	reply, err := j.s.run(n, env, j.compromised, j.obs)
	if !env.Deadline.IsZero() {
		// The handler finished: clear its budget so later work on this
		// node (harness-driven calls between requests) does not run
		// against a stale deadline. Still under the slot, so no later
		// invocation can have installed its own budget yet.
		n.deadline, n.expiry = time.Time{}, nil
	}
	n.handleMu.Unlock()
	n.admitted.Add(-1)
	return guardReply{reply, err}
}

// invokeGuarded runs the handler under the watchdog: the handler executes
// on a watchdog worker (still serialized by the component's execution
// slot), while this goroutine waits for whichever comes first — the reply,
// the budget's expiry, or the caller's cancellation. On expiry the caller
// is released with ErrDeadline and the handler is ABANDONED: it runs to
// completion on its worker, keeps the slot until then (admission
// accounting included), and its node.deadline stays expired so residual
// outbound calls it makes fail fast instead of fanning out further.
func (s *System) invokeGuarded(ctx context.Context, n *node, env *Envelope, compromised bool, obs Observer) (Message, error) {
	e := env.expiry
	var stop func() bool
	if e == nil && !env.Deadline.IsZero() {
		// This hop sets the budget: arm its one expiry. Nested hops that
		// inherit the deadline share it through the envelope.
		e = expiries.Get().(*expiry)
		stop = s.clock.AfterFunc(env.Deadline.Sub(s.now()), e.fire)
		env.expiry = e
	}
	j := guardJobs.Get().(*guardJob)
	j.s, j.n, j.env, j.compromised, j.obs = s, n, *env, compromised, obs
	reply := j.reply
	s.guards.submit(j)
	var expire, canceled <-chan struct{}
	if e != nil {
		expire = e.done
	}
	if ctx != nil {
		canceled = ctx.Done()
	}
	select {
	case r := <-reply:
		*j = guardJob{reply: reply}
		guardJobs.Put(j)
		if stop != nil && !e.abandoned.Load() && stop() {
			expiries.Put(e)
		}
		return r.msg, r.err
	case <-expire:
		e.abandoned.Store(true)
		err := fmt.Errorf("%s: handler abandoned past deadline: %w", n.comp.CompName(), ErrDeadline)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	case <-canceled:
		if e != nil {
			e.abandoned.Store(true)
		}
		base := ErrCanceled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			base = ErrDeadline
		}
		err := fmt.Errorf("%s: caller gone while call in flight: %w", n.comp.CompName(), base)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	}
}

// guardReapPeriod is how long a watchdog worker may sit idle before it
// retires. Workers idle for a whole period are retired at the next reap
// tick, so an idle process is back to its baseline goroutine count within
// two periods; E20's leak check allows three seconds.
const guardReapPeriod = 500 * time.Millisecond

// guardPool holds a System's parked watchdog workers. The idle list is
// LIFO, so the next job lands on the worker whose stack was grown most
// recently; a worker is spawned only when none is idle, and parks itself
// only after its handler has really finished, so an abandoned handler
// keeps its worker.
type guardPool struct {
	mu   sync.Mutex
	idle []*guardWorker

	// lowWater is the fewest workers idle at once since the last reap
	// tick: the bottom lowWater entries of the LIFO list sat idle the
	// whole period and retire at the next tick. reaping is whether a tick
	// is armed; the reaper stops once the list is empty.
	lowWater int
	reaping  bool
}

type guardWorker struct {
	jobs chan *guardJob // a nil job retires the worker
}

// submit hands j to an idle worker, or spawns one.
func (p *guardPool) submit(j *guardJob) {
	p.mu.Lock()
	if k := len(p.idle) - 1; k >= 0 {
		w := p.idle[k]
		p.idle[k] = nil
		p.idle = p.idle[:k]
		p.lowWater = min(p.lowWater, k)
		p.mu.Unlock()
		w.jobs <- j
		return
	}
	p.mu.Unlock()
	go p.work(&guardWorker{jobs: make(chan *guardJob, 1)}, j)
}

// work is a worker's loop. It parks before sending the reply, so a caller
// that issues its next guarded call right away finds this worker idle.
func (p *guardPool) work(w *guardWorker, j *guardJob) {
	for ; j != nil; j = <-w.jobs {
		r := j.run()
		reply := j.reply
		p.park(w)
		reply <- r // j belongs to the caller from here on
	}
}

func (p *guardPool) park(w *guardWorker) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	if !p.reaping {
		p.reaping = true
		p.lowWater = len(p.idle)
		time.AfterFunc(guardReapPeriod, p.reap)
	}
	p.mu.Unlock()
}

// reap retires the workers that stayed idle through the last period. It
// runs on the wall clock, never the System's: worker lifetime is a
// resource matter, and a virtual clock must see only budget timers.
func (p *guardPool) reap() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.idle[:p.lowWater] {
		w.jobs <- nil // never blocks: an idle worker's buffer is empty
	}
	k := copy(p.idle, p.idle[p.lowWater:])
	clear(p.idle[k:])
	p.idle = p.idle[:k]
	p.lowWater = k
	if k == 0 {
		p.reaping = false
		return
	}
	time.AfterFunc(guardReapPeriod, p.reap)
}
