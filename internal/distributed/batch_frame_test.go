package distributed

// Tests for how a batch frame enters the exported component: runBatch
// admits the whole frame through one core.Batch, which holds the
// component's execution slot across an unbudgeted, untraced frame. These
// pin that the held slot changes nothing observable against the
// per-reading DeliverEnvelope loop it replaces (reply bytes, Stats, policy
// verdicts, the adversary's view, the watchdog), that the slot is released
// on every exit, that concurrent callers wait for the frame instead of
// failing, that trace shape and head sampling follow the frame, and that
// the decoded op strings never alias a pooled buffer.

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
)

// perReadingBatch is the reference runBatch is checked against: the frame
// delivered as a loop of DeliverEnvelope calls, one reading at a time.
func perReadingBatch(e *Exporter, req Request) ([]byte, error) {
	n, rest, err := cutBatchCount(req.Data)
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if req.Budget > 0 {
		deadline = e.clock().Add(req.Budget)
	}
	out := []byte{byte(n >> 8), byte(n)}
	for i := 0; i < n; i++ {
		var op string
		var data []byte
		op, data, rest, err = cutReading(rest, "", nil)
		if err != nil {
			return nil, err
		}
		env := core.Envelope{Msg: core.Message{Op: op, Data: data}, Span: req.Span, Taint: req.Taint}
		if !deadline.IsZero() {
			env.Deadline = deadline
			env.Msg.Data = env.Msg.CloneData()
		}
		reply, herr := e.sys.DeliverEnvelope(e.target, env)
		out = appendBatchEntry(out, reply, herr)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch: %w", len(rest), ErrTransport)
	}
	return out, nil
}

// heldBatch runs req through runBatch and returns an owned copy of the
// reply payload.
func heldBatch(e *Exporter, req Request) ([]byte, error) {
	msg, fp, err := e.runBatch(req)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), msg.Data...)
	putBuf(fp, msg.Data)
	return out, nil
}

// entryStatuses lists the per-reading status bytes of a batch reply.
func entryStatuses(t *testing.T, b []byte) []byte {
	t.Helper()
	n := int(b[0])<<8 | int(b[1])
	b = b[2:]
	var out []byte
	for i := 0; i < n; i++ {
		bn := int(b[1])<<8 | int(b[2])
		out = append(out, b[0])
		b = b[3+bn:]
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes in batch reply", len(b))
	}
	return out
}

// opPolicy refuses deliveries of one op and stamps another with a label.
type opPolicy struct{ deny, stamp string }

func (p *opPolicy) CheckInvoke(req core.PolicyRequest) ([]string, error) {
	if req.Channel != core.PolicyDeliver {
		return nil, nil
	}
	switch req.Op {
	case p.deny:
		return nil, fmt.Errorf("op %s refused: %w", req.Op, core.ErrPolicy)
	case p.stamp:
		return []string{"stamped"}, nil
	}
	return nil, nil
}

// recvCounter counts what the adversary inside the target reads.
type recvCounter struct {
	mu    sync.Mutex
	recvs int
}

func (r *recvCounter) Observe(what string, _ []byte) {
	if strings.HasPrefix(what, "recv:") {
		r.mu.Lock()
		r.recvs++
		r.mu.Unlock()
	}
}

// TestBatchHeldSlotMatchesPerReadingDelivery is the differential test: the
// same frames through runBatch and through the per-reading reference, on
// two identical machines, must produce identical reply bytes and identical
// Stats deltas.
func TestBatchHeldSlotMatchesPerReadingDelivery(t *testing.T) {
	cases := []struct {
		name     string
		readings []Reading
		budget   time.Duration
		taint    []string
		setup    func(*fixture) *recvCounter
		statuses []byte // expected per-reading statuses, when pinned
	}{
		{
			name: "mixed",
			readings: []Reading{
				{Op: "put", Data: []byte("a=1")}, {Op: "put", Data: []byte("b=2")},
				{Op: "get", Data: []byte("a")}, {Op: "get", Data: []byte("missing")},
				{Op: "get", Data: []byte("b")}, {Op: "nope"}, {Op: ""}, {Op: "taint"},
			},
			taint:    []string{"ingress"},
			statuses: []byte{statusOK, statusOK, statusOK, statusErr, statusOK, statusErr, statusErr, statusOK},
		},
		{
			name: "policy-denies-mid-frame",
			readings: []Reading{
				{Op: "put", Data: []byte("a=1")}, {Op: "taint"}, {Op: "audit"},
				{Op: "put", Data: []byte("b=2")},
			},
			taint: []string{"ingress"},
			setup: func(f *fixture) *recvCounter {
				f.cloudSys.SetPolicy(&opPolicy{deny: "audit", stamp: "taint"})
				return nil
			},
			statuses: []byte{statusOK, statusOK, statusPolicy, statusOK},
		},
		{
			name: "compromised",
			readings: []Reading{
				{Op: "put", Data: []byte("a=1")}, {Op: "get", Data: []byte("a")}, {Op: "get", Data: []byte("a")},
			},
			setup: func(f *fixture) *recvCounter {
				obs := &recvCounter{}
				f.cloudSys.SetObserver(obs)
				if err := f.cloudSys.Compromise("store"); err != nil {
					t.Fatal(err)
				}
				return obs
			},
		},
		{
			// The stall burns the frame's budget under the watchdog: its
			// entry fails typed, and the reading after it is refused
			// before dispatch, exactly as two guarded single calls would be.
			name:     "budgeted",
			readings: []Reading{{Op: "put", Data: []byte("a=1")}, {Op: "stall"}, {Op: "put", Data: []byte("b=2")}},
			budget:   50 * time.Millisecond,
			statuses: []byte{statusOK, statusDeadline, statusDeadline},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := EncodeBatch(tc.readings)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Op: BatchOp, Data: payload, Budget: tc.budget, Taint: tc.taint}
			var replies [2][]byte
			var deltas [2]core.Stats
			var recvs [2]int
			for i, run := range []func(*Exporter, Request) ([]byte, error){heldBatch, perReadingBatch} {
				f := newFixture(t, nil, false)
				var obs *recvCounter
				if tc.setup != nil {
					obs = tc.setup(f)
				}
				before := f.cloudSys.Stats()
				if replies[i], err = run(f.exporter, req); err != nil {
					t.Fatal(err)
				}
				after := f.cloudSys.Stats()
				deltas[i] = core.Stats{
					Invocations:        after.Invocations - before.Invocations,
					TrustedInvocations: after.TrustedInvocations - before.TrustedInvocations,
					VirtualNs:          after.VirtualNs - before.VirtualNs,
					Timeouts:           after.Timeouts - before.Timeouts,
					PolicyDenies:       after.PolicyDenies - before.PolicyDenies,
				}
				if obs != nil {
					obs.mu.Lock()
					recvs[i] = obs.recvs
					obs.mu.Unlock()
				}
			}
			if !bytes.Equal(replies[0], replies[1]) {
				t.Fatalf("reply payloads differ:\nheld        %q\nper-reading %q", replies[0], replies[1])
			}
			if deltas[0] != deltas[1] {
				t.Fatalf("Stats deltas differ: held %+v, per-reading %+v", deltas[0], deltas[1])
			}
			n := int64(len(tc.readings))
			if deltas[0].Invocations != n || deltas[0].TrustedInvocations != n {
				t.Fatalf("accounted %+v for %d readings into a trusted enclave", deltas[0], n)
			}
			if tc.statuses != nil {
				if got := entryStatuses(t, replies[0]); !bytes.Equal(got, tc.statuses) {
					t.Fatalf("entry statuses %v, want %v", got, tc.statuses)
				}
			}
			switch tc.name {
			case "mixed":
				if !bytes.HasSuffix(replies[0], []byte("ingress")) {
					t.Fatalf("taint reading did not see the frame's taint: %q", replies[0])
				}
			case "policy-denies-mid-frame":
				if deltas[0].PolicyDenies != 1 {
					t.Fatalf("PolicyDenies delta %d, want 1", deltas[0].PolicyDenies)
				}
				if !bytes.Contains(replies[0], []byte("ingress,stamped")) {
					t.Fatalf("stamped reading did not see the merged taint: %q", replies[0])
				}
			case "compromised":
				if recvs[0] != len(tc.readings) || recvs[1] != len(tc.readings) {
					t.Fatalf("adversary saw %v recv: observations, want %d each", recvs, len(tc.readings))
				}
			case "budgeted":
				if deltas[0].Timeouts != 2 {
					t.Fatalf("Timeouts delta %d, want 2 (abandoned stall + refused reading)", deltas[0].Timeouts)
				}
			}
		})
	}
}

// TestBatchMalformedReadingReleasesSlot: a frame whose reading k is
// malformed fails whole after delivering exactly k readings, and releases
// the component's slot — the next single call returns instead of blocking.
func TestBatchMalformedReadingReleasesSlot(t *testing.T) {
	f := newFixture(t, nil, false)
	const k = 3
	readings := []Reading{
		{Op: "put", Data: []byte("a=1")}, {Op: "put", Data: []byte("b=2")}, {Op: "put", Data: []byte("c=3")},
		{Op: "\x00bad"}, {Op: "put", Data: []byte("d=4")},
	}
	before := f.cloudSys.Stats()
	_, _, err := f.exporter.runBatch(Request{Op: BatchOp, Data: AppendBatch(nil, readings)})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("malformed frame: %v, want ErrTransport", err)
	}
	if got := f.cloudSys.Stats().Invocations - before.Invocations; got != k {
		t.Fatalf("accounted %d invocations, want %d", got, k)
	}
	done := make(chan error, 1)
	go func() {
		reply, err := f.cloudSys.DeliverEnvelope("store", core.Envelope{Msg: core.Message{Op: "get", Data: []byte("c")}})
		if err == nil && string(reply.Data) != "3" {
			err = fmt.Errorf("get c = %q", reply.Data)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("single call blocked: the malformed frame kept the slot")
	}
}

// gateComp blocks its "hold" op until released and logs every other op in
// execution order.
type gateComp struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	log     []string
}

func (g *gateComp) CompName() string     { return "gate" }
func (g *gateComp) CompVersion() string  { return "1.0" }
func (g *gateComp) Init(*core.Ctx) error { return nil }
func (g *gateComp) Handle(env core.Envelope) (core.Message, error) {
	if env.Msg.Op == "hold" {
		close(g.entered)
		<-g.release
	}
	g.mu.Lock()
	g.log = append(g.log, env.Msg.Op)
	g.mu.Unlock()
	return core.Message{Op: "ack", Data: env.Msg.Data}, nil
}

// newLocalExporter exports comp from a fresh single-component system,
// for tests that drive runBatch directly.
func newLocalExporter(t *testing.T, comp core.Component) (*core.System, *Exporter) {
	t.Helper()
	sys := core.NewSystem(core.NewMonolith(0))
	if err := sys.Launch(comp, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	e, err := NewExporter(ExportConfig{
		System:    sys,
		Component: comp.CompName(),
		Endpoint:  netsim.New().Attach("host"),
		Identity:  cryptoutil.NewSigner("host-tls"),
		Rand:      cryptoutil.NewPRNG("host-hs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, e
}

// TestBatchSingleCallWaitsForHeldFrame: a single call that arrives while a
// frame holds the component's slot waits for the whole frame, then
// succeeds — it is neither refused nor interleaved between readings.
func TestBatchSingleCallWaitsForHeldFrame(t *testing.T) {
	gate := &gateComp{entered: make(chan struct{}), release: make(chan struct{})}
	sys, e := newLocalExporter(t, gate)
	payload, err := EncodeBatch([]Reading{{Op: "hold"}, {Op: "r1"}, {Op: "r2"}})
	if err != nil {
		t.Fatal(err)
	}
	frame := make(chan error, 1)
	go func() {
		_, err := heldBatch(e, Request{Op: BatchOp, Data: payload})
		frame <- err
	}()
	<-gate.entered
	single := make(chan error, 1)
	go func() {
		_, err := sys.DeliverEnvelope("gate", core.Envelope{Msg: core.Message{Op: "single"}})
		single <- err
	}()
	// Give the single call time to queue on the slot; the execution order
	// checked below is what proves it waited for the whole frame.
	select {
	case err := <-single:
		t.Fatalf("single call finished while the frame held the slot: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.release)
	if err := <-frame; err != nil {
		t.Fatal(err)
	}
	if err := <-single; err != nil {
		t.Fatalf("waiting single call: %v", err)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if got := strings.Join(gate.log, ","); got != "hold,r1,r2,single" {
		t.Fatalf("execution order %s, want the single call after the whole frame", got)
	}
}

// TestBatchConcurrentStubs: two attested stubs send batches and single
// calls into one exporter while a local caller hits the same component
// directly. Every call succeeds with the right answer and every reading
// is accounted once. Run under -race -count=10 by make race-hotpath.
func TestBatchConcurrentStubs(t *testing.T) {
	f := newFixture(t, nil, false)
	var serveMu sync.Mutex
	dial := func(client string) *Stub {
		s, err := NewStub(StubConfig{
			RemoteName:     "store",
			RemoteEndpoint: "cloud",
			Endpoint:       f.net.Attach(client),
			Rand:           cryptoutil.NewPRNG(client + "-hs"),
			VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
				q, err := core.DecodeQuote(evidence)
				if err != nil {
					return err
				}
				return core.VerifyQuote(q, tr[:], f.vendor.Public(), f.storeMeas)
			},
			// One Serve pass at a time: a pass drains every queued record,
			// so a stub never pumps a dry round while another pass is
			// still answering it. Records queued together still dispatch
			// concurrently across the exporter's workers.
			Pump: func() error {
				serveMu.Lock()
				defer serveMu.Unlock()
				return f.exporter.Serve()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	stubs := []*Stub{dial("meter-a"), dial("meter-b")}
	const rounds, batch, local = 20, 8, 200
	before := f.cloudSys.Stats()
	var wg sync.WaitGroup
	errs := make(chan error, len(stubs)+1)
	for id, s := range stubs {
		wg.Add(1)
		go func(id int, s *Stub) {
			defer wg.Done()
			readings := make([]Reading, batch)
			var results []BatchResult
			for r := 0; r < rounds; r++ {
				for j := range readings {
					readings[j] = Reading{Op: "put", Data: []byte(fmt.Sprintf("s%d-%d-%d=%d", id, r, j, j))}
				}
				var err error
				if results, err = s.HandleBatch(core.Envelope{}, readings, results[:0]); err != nil {
					errs <- fmt.Errorf("stub %d round %d batch: %w", id, r, err)
					return
				}
				for j, res := range results {
					if res.Err != nil || res.Msg.Op != "ok" {
						errs <- fmt.Errorf("stub %d round %d reading %d: %+v", id, r, j, res)
						return
					}
				}
				key := fmt.Sprintf("s%d-%d-%d", id, r, batch-1)
				reply, err := s.Handle(core.Envelope{Msg: core.Message{Op: "get", Data: []byte(key)}})
				if err != nil || string(reply.Data) != fmt.Sprint(batch-1) {
					errs <- fmt.Errorf("stub %d round %d get %s: %q, %v", id, r, key, reply.Data, err)
					return
				}
			}
		}(id, s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < local; i++ {
			if _, err := f.cloudSys.DeliverEnvelope("store", core.Envelope{
				Msg: core.Message{Op: "put", Data: []byte(fmt.Sprintf("local-%d=1", i))},
			}); err != nil {
				errs <- fmt.Errorf("local put %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want := int64(len(stubs)*rounds*(batch+1) + local)
	if got := f.cloudSys.Stats().Invocations - before.Invocations; got != want {
		t.Fatalf("accounted %d invocations, want %d", got, want)
	}
}

// TestBatchTraceShape: a traced frame of N readings yields N deliver and N
// handle spans, each handle the child of its own deliver, each deliver the
// child of the frame's wire parent (or its own trace root when the frame
// carries none) — the per-reading shape single deliveries have.
func TestBatchTraceShape(t *testing.T) {
	for _, parent := range []core.Span{{}, {Trace: 0xfeed, ID: 9}} {
		sys, e := newLocalExporter(t, &gateComp{})
		tr := &spanSink{}
		sys.SetTracer(tr)
		sys.SetTraceSampling(1)
		const n = 5
		readings := make([]Reading, n)
		for i := range readings {
			readings[i] = Reading{Op: fmt.Sprintf("r%d", i)}
		}
		payload, err := EncodeBatch(readings)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heldBatch(e, Request{Op: BatchOp, Data: payload, Span: parent}); err != nil {
			t.Fatal(err)
		}
		tr.mu.Lock()
		delivers := map[uint64]core.Span{}
		var handles []core.Span
		traces := map[uint64]bool{}
		for i, sp := range tr.spans {
			switch tr.kinds[i] {
			case core.SpanDeliver:
				delivers[sp.ID] = sp
				traces[sp.Trace] = true
				if sp.Parent != parent.ID || (parent.Trace != 0 && sp.Trace != parent.Trace) {
					t.Errorf("parent %v: deliver span %+v not parented to the frame", parent, sp)
				}
			case core.SpanHandle:
				handles = append(handles, sp)
			}
		}
		tr.mu.Unlock()
		if len(delivers) != n || len(handles) != n {
			t.Fatalf("parent %v: %d deliver and %d handle spans, want %d each", parent, len(delivers), len(handles), n)
		}
		for _, h := range handles {
			d, ok := delivers[h.Parent]
			if !ok || d.Trace != h.Trace {
				t.Errorf("parent %v: handle span %+v not the child of a reading's deliver", parent, h)
			}
		}
		wantTraces := 1 // every reading continues the wire parent's trace
		if parent == (core.Span{}) {
			wantTraces = n // every reading roots its own trace
		}
		if len(traces) != wantTraces {
			t.Errorf("parent %v: readings span %d traces, want %d", parent, len(traces), wantTraces)
		}
	}
}

// TestBatchSampledPerFrame: under SetTraceSampling(k) the head-sampling
// decision is made once per frame — one root frame in k is traced, and
// traced whole — and a remote-parented frame is always traced.
func TestBatchSampledPerFrame(t *testing.T) {
	sys, e := newLocalExporter(t, &gateComp{})
	tr := &spanSink{}
	sys.SetTracer(tr)
	const k, frames, n = 3, 6, 4
	sys.SetTraceSampling(k)
	for fi := 0; fi < frames; fi++ {
		readings := make([]Reading, n)
		for i := range readings {
			readings[i] = Reading{Op: fmt.Sprintf("f%d", fi)}
		}
		payload, err := EncodeBatch(readings)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heldBatch(e, Request{Op: BatchOp, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	count := func() map[string]int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		got := map[string]int{}
		for i, kind := range tr.kinds {
			if kind == core.SpanDeliver {
				got[tr.ops[i]]++
			}
		}
		return got
	}
	// The counter rolls once per frame: frames k and 2k (1-based) are
	// traced, every reading of them, and no reading of any other frame.
	want := map[string]int{fmt.Sprintf("f%d", k-1): n, fmt.Sprintf("f%d", 2*k-1): n}
	if got := count(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("traced deliver spans per frame %v, want %v", got, want)
	}

	sys.SetTraceSampling(1 << 20)
	payload, err := EncodeBatch([]Reading{{Op: "remote"}, {Op: "remote"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heldBatch(e, Request{Op: BatchOp, Data: payload, Span: core.Span{Trace: 0xfeed, ID: 9}}); err != nil {
		t.Fatal(err)
	}
	if got := count()["remote"]; got != 2 {
		t.Fatalf("remote-parented frame traced %d of 2 readings under aggressive sampling", got)
	}
}

// TestBatchOpReuse: consecutive entries share the previous entry's op
// string only when the bytes match — alternating ops, an op that is a
// prefix of the one before, the empty op, and an OK reply entry after an
// error entry all decode to their own bytes — and no decoded op aliases
// the buffer it was decoded from.
func TestBatchOpReuse(t *testing.T) {
	ops := []string{"reading", "ack", "reading", "reading", "read", "", "", "reading"}
	readings := make([]Reading, len(ops))
	for i, op := range ops {
		readings[i] = Reading{Op: op, Data: []byte{byte(i)}}
	}
	payload, err := EncodeBatch(readings)
	if err != nil {
		t.Fatal(err)
	}
	var in interner
	for _, interned := range []*interner{nil, &in} {
		buf := append([]byte(nil), payload...)
		_, rest, err := cutBatchCount(buf)
		if err != nil {
			t.Fatal(err)
		}
		var op string
		got := make([]string, len(ops))
		for i := range ops {
			op, _, rest, err = cutReading(rest, op, interned)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = op
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		if fmt.Sprint(got) != fmt.Sprint(ops) {
			t.Fatalf("interner %v: decoded ops %q, want %q (after overwriting the buffer)", interned != nil, got, ops)
		}
	}

	reply := []byte{0, 7}
	for _, e := range []struct {
		op  string
		err error
	}{
		{op: "ack"}, {op: "ack"}, {err: errors.New("boom")}, {op: "ack"}, {op: "ac"}, {op: ""}, {op: "ack"},
	} {
		reply = appendBatchEntry(reply, core.Message{Op: e.op, Data: []byte("d")}, e.err)
	}
	var s Stub
	results, err := s.decodeBatchReply(reply, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reply {
		reply[i] = 0xAA
	}
	var got []string
	for _, r := range results {
		if r.Err != nil {
			got = append(got, "err:"+r.Err.Error())
			continue
		}
		got = append(got, r.Msg.Op)
	}
	if want := []string{"ack", "ack", "err:" + ErrRemote.Error() + ": boom", "ack", "ac", "", "ack"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("decoded reply ops %q, want %q (after overwriting the buffer)", got, want)
	}
}
