package core

import (
	"errors"
	"testing"
	"time"
)

// TestBatchHoldsSlotOnlyOnTheFastInput pins BeginBatch's selection: a frame
// holds the target's execution slot only when it is unbudgeted, untraced
// (no tracer, or sampled out), and the slot is free; every other frame
// takes the per-reading DeliverEnvelope path. Whichever path it takes, End
// leaves the slot free and the frame's readings accounted.
func TestBatchHoldsSlotOnlyOnTheFastInput(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*System, *node)
		env   Envelope
		held  bool
	}{
		{name: "plain", held: true},
		{name: "budgeted", env: Envelope{Deadline: time.Now().Add(time.Minute)}},
		{name: "traced", setup: func(s *System, _ *node) { s.SetTracer(&collectTracer{}) }},
		{name: "sampled-out", held: true, setup: func(s *System, _ *node) {
			s.SetTracer(&collectTracer{})
			s.SetTraceSampling(4) // the first root of four is untraced
		}},
		{name: "remote-parented", env: Envelope{Span: Span{Trace: 7, ID: 9}}, setup: func(s *System, _ *node) {
			s.SetTracer(&collectTracer{})
			s.SetTraceSampling(1 << 20)
		}},
		{name: "contended", setup: func(_ *System, n *node) {
			n.handleMu.Lock()
			go func() { time.Sleep(10 * time.Millisecond); n.handleMu.Unlock() }()
		}},
	}
	const readings = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t)
			if err := sys.Launch(&echoComp{name: "sink"}, true, 1); err != nil {
				t.Fatal(err)
			}
			n := sys.nodes["sink"]
			if tc.setup != nil {
				tc.setup(sys, n)
			}
			b, err := sys.BeginBatch("sink", tc.env)
			if err != nil {
				t.Fatal(err)
			}
			if b.held != tc.held {
				t.Fatalf("held = %v, want %v", b.held, tc.held)
			}
			for i := 0; i < readings; i++ {
				reply, err := b.Deliver(Message{Op: "r", Data: []byte{byte('a' + i)}})
				if err != nil || string(reply.Data) != "sink:"+string(rune('a'+i)) {
					t.Fatalf("reading %d: %q, %v", i, reply.Data, err)
				}
			}
			b.End()
			if !n.handleMu.TryLock() {
				t.Fatal("slot still held after End")
			}
			n.handleMu.Unlock()
			st := sys.Stats()
			if st.Invocations != readings || st.VirtualNs != readings*sys.Properties().InvokeCostNs {
				t.Fatalf("accounted %d invocations (%d virtual ns), want %d", st.Invocations, st.VirtualNs, readings)
			}
		})
	}
}

// TestBatchUnknownTarget: BeginBatch refuses an unknown target with the
// same error a single deliver gets, and End on the zero Batch is a no-op.
func TestBatchUnknownTarget(t *testing.T) {
	sys := newTestSystem(t)
	b, err := sys.BeginBatch("ghost", Envelope{})
	_, single := sys.DeliverEnvelope("ghost", Envelope{})
	if !errors.Is(err, ErrNoDomain) || err.Error() != single.Error() {
		t.Fatalf("BeginBatch(ghost) = %v, want %v", err, single)
	}
	b.End()
}
