package distributed

// Tests for wire-level frame coalescing: the coalesced record codec and
// its canonical-form guarantees, the AD binding of the cleartext header,
// exporter-side sub-frame fault isolation, the stub's round-boundary
// flush points, and its send-side coalescing under concurrent callers.

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// TestCoalHeaderCodec pins the header codec: round-trip identity on valid
// input, rejection of everything else, and the Reencode canonical-form
// oracle (exactly one encoding per correlation table).
func TestCoalHeaderCodec(t *testing.T) {
	corrs := []uint64{3, 7, 1 << 40}
	record := make([]byte, 32) // stand-in for the sealed record
	b := AppendCoalHeader(nil, corrs)
	b = append(b, record...)

	got, rest, err := DecodeCoalHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(corrs) || got[0] != 3 || got[1] != 7 || got[2] != 1<<40 {
		t.Fatalf("decoded corrs = %v, want %v", got, corrs)
	}
	if len(rest) != len(record) {
		t.Fatalf("rest = %d bytes, want %d", len(rest), len(record))
	}
	hdr, _, err := ReencodeCoalHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != string(b[:3+8*len(corrs)]) {
		t.Fatal("reencoded header is not byte-identical: codec is not canonical")
	}

	bad := map[string][]byte{
		"wrong magic":     append([]byte{0xC4}, b[1:]...),
		"empty":           {},
		"count zero":      append(AppendCoalHeader(nil, nil), record...),
		"truncated table": b[:3+8*len(corrs)-5],
		"unbacked record": b[:3+8*len(corrs)+3],
		"duplicate corrs": append(AppendCoalHeader(nil, []uint64{5, 5}), record...),
		"unsorted corrs":  append(AppendCoalHeader(nil, []uint64{9, 2}), record...),
	}
	overCount := MaxCoalesce + 1
	over := append([]byte{CoalMagic, byte(overCount >> 8), byte(overCount)}, make([]byte, 8*overCount+8)...)
	bad["count over max"] = over
	for name, in := range bad {
		if _, _, err := DecodeCoalHeader(in); !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
	}
}

// TestCoalBodyCodec pins the body codec the same way.
func TestCoalBodyCodec(t *testing.T) {
	subs := [][]byte{[]byte("alpha"), []byte("b"), make([]byte, 300)}
	b := AppendCoalBody(nil, subs)

	got, err := DecodeCoalBody(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "alpha" || string(got[1]) != "b" || len(got[2]) != 300 {
		t.Fatalf("decoded subs = %d entries", len(got))
	}
	re, err := ReencodeCoalBody(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(b) {
		t.Fatal("reencoded body is not byte-identical: codec is not canonical")
	}

	bad := map[string][]byte{
		"empty":          {},
		"count zero":     {0, 0},
		"unbacked count": {0, 9, 0, 0, 0, 1, 'x'},
		"truncated sub":  b[:len(b)-100],
		"trailing bytes": append(AppendCoalBody(nil, [][]byte{[]byte("x")}), 0xFF),
	}
	zero := AppendCoalBody(nil, [][]byte{[]byte("ok"), {}})
	bad["zero-length sub"] = zero
	for name, in := range bad {
		if _, err := DecodeCoalBody(in); !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
	}
}

// coalClient is a hand-rolled wire peer that seals coalesced request
// records directly, making the exporter-side tests deterministic: the
// stub's coalescer only forms multi-frame records when submits race, but a
// hand-built record carries exactly the sub-frames the test chose.
type coalClient struct {
	f    *fixture
	ep   *netsim.Endpoint
	sess *securechan.Session
	// tamperHeader flips a bit in the sealed record's cleartext header
	// before transmit.
	tamperHeader bool
}

func newCoalClient(t *testing.T, f *fixture, name string) *coalClient {
	t.Helper()
	ep := f.net.Attach(name)
	sess := v2Handshake(t, f, ep, name+"-hs")
	return &coalClient{f: f, ep: ep, sess: sess}
}

// call seals one coalesced record carrying the given (corr, op, data)
// sub-frames, serves it, and returns the decrypted reply sub-frames keyed
// by correlation ID. serveErr is the exporter's Serve error, replied is
// false when no reply record came back at all.
func (c *coalClient) call(t *testing.T, subs []coalSub) (replies map[uint64][]byte, replied bool, serveErr error) {
	t.Helper()
	corrs := make([]uint64, len(subs))
	frames := make([][]byte, len(subs))
	for i, s := range subs {
		corrs[i] = s.corr
		fcorr := s.corr
		if s.frameCorr != 0 {
			fcorr = s.frameCorr
		}
		frames[i] = AppendRequest(nil, Request{HasCorr: true, Corr: fcorr, Op: s.op, Data: s.data})
	}
	hdr := AppendCoalHeader(nil, corrs)
	body := AppendCoalBody(nil, frames)
	rec, err := c.sess.SealToAD(hdr, body, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if c.tamperHeader {
		rec[3] ^= 0x01 // flip a bit in the first correlation ID
	}
	if err := c.ep.Send("cloud", rec); err != nil {
		t.Fatal(err)
	}
	serveErr = c.f.exporter.Serve()
	dg, ok := c.ep.Recv()
	if !ok {
		return nil, false, serveErr
	}
	rcorrs, sealed, err := DecodeCoalHeader(dg.Payload)
	if err != nil {
		t.Fatalf("reply is not a coalesced record: %v", err)
	}
	rhdr := dg.Payload[:3+8*len(rcorrs)]
	plain, err := c.sess.OpenToAD(nil, sealed, rhdr)
	if err != nil {
		t.Fatalf("open coalesced reply: %v", err)
	}
	rsubs, err := DecodeCoalBody(plain)
	if err != nil {
		t.Fatalf("decode coalesced reply body: %v", err)
	}
	replies = make(map[uint64][]byte, len(rsubs))
	for i, sub := range rsubs {
		if len(sub) < 9 {
			t.Fatalf("reply sub %d too short", i)
		}
		corr := binary.BigEndian.Uint64(sub)
		if corr != rcorrs[i] {
			t.Fatalf("reply sub %d corr %d disagrees with header %d", i, corr, rcorrs[i])
		}
		replies[corr] = append([]byte(nil), sub[8:]...)
	}
	return replies, true, serveErr
}

type coalSub struct {
	corr uint64
	// frameCorr, when non-zero, is embedded in the sub-frame instead of
	// corr — the header/frame-mismatch tests use it.
	frameCorr uint64
	op        string
	data      []byte
}

// TestCoalescedRequestRoundTrip hand-seals a two-frame coalesced record
// and checks both sub-frames execute and both replies come back in one
// coalesced record, AD-bound to the reply header.
func TestCoalescedRequestRoundTrip(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "coal")

	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "get", data: []byte("k")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
	if r := replies[1]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("put reply = % x, want statusOK", r)
	}
	r := replies[2]
	if len(r) == 0 || r[0] != statusOK {
		t.Fatalf("get reply = % x, want statusOK", r)
	}
	if _, data, err := decodeCall(r[1:]); err != nil || string(data) != "v" {
		t.Fatalf("get reply body = %q, %v", data, err)
	}
}

// TestCoalescedHeaderTamperFailsOpen flips one bit of a correlation ID in
// the cleartext header after sealing: the header is the record's extra AD,
// so the open must fail and no reply may be produced — the binding the
// whole design leans on (DESIGN decision 14).
func TestCoalescedHeaderTamperFailsOpen(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "tamper")
	c.tamperHeader = true

	// Serve drops hostile frames without failing the service, so the only
	// observable is silence: no reply record may be produced.
	_, replied, _ := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "get", data: []byte("k")},
	})
	if replied {
		t.Fatal("exporter replied to a record with a tampered header")
	}
	// The session survives (nothing was committed): a clean record works.
	c.tamperHeader = false
	replies, ok, err := c.call(t, []coalSub{{corr: 3, op: "put", data: []byte("a=b")}, {corr: 4, op: "get", data: []byte("a")}})
	if err != nil || !ok || len(replies) != 2 {
		t.Fatalf("session did not survive a rejected record: %v, %v, %d replies", err, ok, len(replies))
	}
}

// TestCoalescedSubCorrMismatch embeds a correlation ID in one sub-frame
// that disagrees with the AD-bound header entry: that sub-frame gets a
// typed error reply addressed by the header entry, and its sibling is
// unaffected.
func TestCoalescedSubCorrMismatch(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "mismatch")

	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, frameCorr: 99, op: "put", data: []byte("k=v")},
		{corr: 2, op: "put", data: []byte("k2=v2")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if r := replies[1]; len(r) == 0 || r[0] != statusErr {
		t.Fatalf("mismatched sub reply = % x, want statusErr", r)
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}
}

// TestCoalesceFaultDrop arms the exporter's drop fault: the dropped
// sub-frame is excluded from the reply entirely (its caller would resolve
// with a typed transport error on its next dry round) while its sibling
// completes normally.
func TestCoalesceFaultDrop(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "drop")

	f.exporter.FaultNextCoalesced("drop", 0)
	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "put", data: []byte("k2=v2")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if _, present := replies[1]; present {
		t.Fatal("dropped sub-frame still got a reply")
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}

	// The fault is one-shot: the next record is untouched.
	replies, ok, err = c.call(t, []coalSub{{corr: 3, op: "get", data: []byte("k2")}, {corr: 4, op: "get", data: []byte("k2")}})
	if err != nil || !ok || len(replies) != 2 {
		t.Fatalf("fault not one-shot: %v, %v, %d replies", err, ok, len(replies))
	}
}

// TestCoalesceFaultTamper arms the tamper fault: the corrupted sub-frame
// fails decode and gets a typed error reply, siblings unaffected.
func TestCoalesceFaultTamper(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "subtamper")

	f.exporter.FaultNextCoalesced("tamper", 1)
	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "put", data: []byte("k2=v2")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusErr {
		t.Fatalf("tampered sub reply = % x, want statusErr", r)
	}
	if r := replies[1]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}
}

// TestCoalescedPingSubFrame checks a ping sub-frame is answered inline in
// its slot (no component dispatch) alongside an executing sibling.
func TestCoalescedPingSubFrame(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "ping")

	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: PingOp},
		{corr: 2, op: "put", data: []byte("k=v")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	r := replies[1]
	if len(r) == 0 || r[0] != statusOK {
		t.Fatalf("ping reply = % x, want statusOK", r)
	}
	if op, _, err := decodeCall(r[1:]); err != nil || op != PongOp {
		t.Fatalf("ping reply op = %q, %v, want pong", op, err)
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}
}

// TestConcurrentCallsCoalesce drives concurrent callers through one stub
// and checks the send path actually coalesces: fewer sealed records than
// issued calls, at least one multi-frame record, exactly-once completion,
// and the record/sub-frame books consistent.
func TestConcurrentCallsCoalesce(t *testing.T) {
	f := newFixture(t, nil, false)
	stub, rounds := pipeFixture(t, f, 200*time.Microsecond)
	if err := stub.Connect(); err != nil {
		t.Fatal(err)
	}
	handshake := rounds.Load()

	const workers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if _, err := stub.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte(key + "=x")}}); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := stub.Stats()
	if st.Issued != workers*per || st.Completed != workers*per || st.Inflight != 0 {
		t.Fatalf("books: %+v, want %d issued = completed", st, workers*per)
	}
	if st.CoalescedRecords == 0 {
		t.Fatal("no coalesced record formed under 8 concurrent callers")
	}
	if st.Records >= st.Issued {
		t.Errorf("records = %d for %d calls: coalescing saved nothing", st.Records, st.Issued)
	}
	// Every record is either plain (one sub-frame) or coalesced: the books
	// must balance exactly.
	if plain := st.Records - st.CoalescedRecords; plain+st.CoalescedSubs != st.Issued {
		t.Errorf("record books unbalanced: %d plain + %d coalesced subs != %d issued",
			plain, st.CoalescedSubs, st.Issued)
	}
	if st.CoalescedSubs < 2*st.CoalescedRecords {
		t.Errorf("coalesced records carry < 2 subs on average: %+v", st)
	}
	// Records are sealed only at the pre-pump flush and by at most one
	// rider per round, and 8 callers never fill a 64-frame window.
	if pumps := rounds.Load() - handshake; st.Records > 2*uint64(pumps) {
		t.Errorf("records = %d over %d rounds: more than two flushes per round", st.Records, pumps)
	}
}

// TestSubmitDuringRoundRidesIt pins the two flush points. Caller A pumps a
// round that blocks until released. B submits mid-round, wins the rider
// flag and flushes at once, so its frame rides A's round. C submits
// mid-round after the rider is spent: its frame stays queued and goes out
// with the next pre-pump flush. Three plain records, two wire rounds.
func TestSubmitDuringRoundRidesIt(t *testing.T) {
	f := newFixture(t, nil, false)
	var rounds atomic.Int64
	var block atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	stub, err := NewStub(StubConfig{
		RemoteName:     "store",
		RemoteEndpoint: "cloud",
		Endpoint:       f.net.Attach("rider"),
		Rand:           cryptoutil.NewPRNG("rider-hs"),
		VerifyServer:   func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
		Pump: func() error {
			rounds.Add(1)
			if block.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
			return f.exporter.Serve()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stub.Connect(); err != nil {
		t.Fatal(err)
	}
	handshake := rounds.Load()
	block.Store(true)

	call := func(kv string) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := stub.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte(kv)}})
			done <- err
		}()
		return done
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, stub.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	queued := func() int {
		stub.coal.mu.Lock()
		defer stub.coal.mu.Unlock()
		return len(stub.coal.queue)
	}

	a := call("a=1")
	<-entered // A flushed its frame and is inside its round
	b := call("b=2")
	waitFor("B to ride the round in flight", func() bool { return stub.Stats().Records == 2 })
	c := call("c=3")
	waitFor("C to queue or flush", func() bool { return queued() == 1 || stub.Stats().Records > 2 })
	if st := stub.Stats(); st.Records != 2 {
		t.Fatalf("records = %d after C submitted mid-round, want 2: only one rider per round", st.Records)
	}
	close(release)
	for name, done := range map[string]chan error{"A": a, "B": b, "C": c} {
		if err := <-done; err != nil {
			t.Errorf("call %s: %v", name, err)
		}
	}

	st := stub.Stats()
	if got := rounds.Load() - handshake; got != 2 {
		t.Errorf("wire rounds = %d, want 2: A's round (carrying B) and C's", got)
	}
	if st.Records != 3 || st.CoalescedRecords != 0 {
		t.Errorf("records = %d (%d coalesced), want 3 plain", st.Records, st.CoalescedRecords)
	}
	if st.Issued != 3 || st.Completed != 3 || st.Inflight != 0 || st.Orphans != 0 {
		t.Errorf("books: %+v, want 3 issued = completed", st)
	}
}

// TestSequentialCallsStayPlain pins wire interop: a purely sequential
// caller never coalesces, so every record is a plain v3 record —
// byte-compatible with pre-coalescing peers — and the explorer's
// deterministic traces stay byte-identical.
func TestSequentialCallsStayPlain(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte(fmt.Sprintf("k%d=v", i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.stub.Stats()
	if st.CoalescedRecords != 0 {
		t.Errorf("sequential calls coalesced: %+v", st)
	}
	if st.Records != st.Issued {
		t.Errorf("records = %d, want %d (one plain record per call)", st.Records, st.Issued)
	}
}
