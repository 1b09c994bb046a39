package core

import "fmt"

// sampling is how one external deliver makes its head-sampling decision:
// on its own at the trace root, or following the decision its batch frame
// already made.
type sampling uint8

const (
	sampleRoot sampling = iota // decide here (headSampled)
	sampleIn                   // the enclosing frame is traced
	sampleOut                  // the enclosing frame is untraced
)

// Batch admits the readings of one batch frame into a single target
// component. BeginBatch looks the target up, snapshots its compromised
// flag and the system's observer and policy, and makes the head-sampling
// decision once for the whole frame. When the frame is unbudgeted,
// untraced, and the target's execution slot is free, the Batch holds that
// slot from BeginBatch to End, so each reading costs one policy check and
// the handler itself; End releases the slot and accounts the readings in
// one step. Otherwise — a budgeted frame, a traced frame, or a slot that
// was busy at BeginBatch — every Deliver takes the DeliverEnvelope path
// (watchdog, per-reading spans, admission queue) as a single delivery
// would.
//
// A Batch is used by one goroutine and is not copied once begun. End must
// follow the last Deliver: a held slot blocks every other caller of the
// target until then.
type Batch struct {
	s           *System
	n           *node
	target      string
	env         Envelope // frame-wide span parent, deadline, and taint
	samp        sampling
	held        bool // the Batch holds n's execution slot
	compromised bool
	obs         Observer
	pol         Policy
	delivered   int64 // readings run on the held slot, accounted by End
}

// BeginBatch opens a batch frame into target. env carries the frame-wide
// span parent, deadline, and imported chain taint; env.Msg is ignored.
// Each reading is then handed to Deliver under the DeliverEnvelope borrow
// contract. The only error is an unknown target, with DeliverEnvelope's
// text.
func (s *System) BeginBatch(target string, env Envelope) (Batch, error) {
	s.mu.Lock()
	n, ok := s.nodes[target]
	if !ok {
		s.mu.Unlock()
		return Batch{}, fmt.Errorf("deliver to %s: %w", target, ErrNoDomain)
	}
	b := Batch{
		s: s, n: n, target: target, env: env, samp: sampleOut,
		compromised: n.dom.compromised, obs: s.observer, pol: s.policy,
	}
	if s.tracer != nil && s.headSampled(env.Span) {
		b.samp = sampleIn
	}
	s.mu.Unlock()
	b.held = b.samp == sampleOut && env.Deadline.IsZero() && n.handleMu.TryLock()
	return b, nil
}

// Deliver runs one reading of the frame and returns its reply. msg.Data is
// borrowed for the call, as DeliverEnvelope borrows it.
func (b *Batch) Deliver(msg Message) (Message, error) {
	if !b.held {
		return b.s.deliverEnv(nil, b.target, msg, b.env.Span, b.env.Deadline, b.env.Taint, b.samp)
	}
	// Counted before the policy check, as deliverEnv accounts a refused
	// deliver too.
	b.delivered++
	env := Envelope{Msg: msg, Taint: b.env.Taint}
	if b.pol != nil {
		var perr error
		if env.Taint, perr = b.s.checkDeliver(b.pol, b.target, msg.Op, b.env.Taint, Span{}); perr != nil {
			return Message{}, perr
		}
	}
	return b.s.run(b.n, &env, b.compromised, b.obs)
}

// End closes the frame: it releases a held slot and accounts the readings
// that ran on it. Readings delivered on the DeliverEnvelope path were
// accounted as they went.
func (b *Batch) End() {
	if !b.held {
		return
	}
	b.held = false
	b.n.handleMu.Unlock()
	if b.delivered > 0 {
		b.s.mu.Lock()
		b.s.account(b.n, b.delivered)
		b.s.mu.Unlock()
	}
}
