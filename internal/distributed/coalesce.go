// Wire-level frame coalescing: concurrent requests sealed as one record.
//
// Pipelining (wire v3) lets concurrent callers share wire *rounds*, but
// each call still pays its own AEAD pass. Coalescing amortizes the crypto
// too: concurrent senders enqueue plaintext sub-frames, and the next flush
// seals up to a window of them as a single coalesced record — one AEAD
// pass, one auth tag, N requests. Flushes happen at round boundaries only
// (see coalescer). The exporter unseals once, fans the sub-frames through
// its existing worker pool, and coalesces the replies the same way on the
// return path.
//
// Wire format of a coalesced record (all integers big-endian):
//
//	magic   byte    0xC3
//	count   uint16  1..MaxCoalesce
//	corr    uint64 × count    strictly increasing
//	record  []byte  a securechan record whose extra AD is the bytes above
//
// The cleartext header exists so the receiver can account for every
// sub-frame even when one fails to decode — but it is not trusted bare:
// the sealed record's associated data covers the magic, the count, and
// every correlation ID (securechan.SealToAD), so a tampered header cannot
// survive the AEAD open. The record's plaintext is the coalesced body:
//
//	count   uint16  must equal the header count
//	repeat count times:
//	  subLen uint32; sub [subLen]byte
//
// where each request sub is a complete v3 request frame (frameCorr set,
// matching the header entry) and each reply sub is a complete reply frame
// (8-byte correlation prefix, status byte, payload). Sub-frames are the
// existing wire format verbatim, which is what makes v3-plain and
// coalesced traffic interoperable: a window of one seals a plain record,
// byte-identical to the pre-coalescing wire.
//
// The magic byte cannot collide with other datagram kinds: a plain record
// starts with its 8-byte big-endian send sequence (first byte zero until
// 2^56 records), and a handshake hello starts with the 2-byte length
// prefix of a 32-byte key field (first byte zero).
package distributed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lateral/internal/core"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// CoalMagic is the first byte of every coalesced record.
const CoalMagic = 0xC3

// MaxCoalesce bounds the sub-frames one coalesced record may carry — the
// decode-side cap, above the window the stub seals at.
const MaxCoalesce = 256

// coalesceWindow is the most sub-frames the stub seals into one record; a
// flush of a longer queue seals it in chunks of this size.
const coalesceWindow = 64

// IsCoalesced reports whether a datagram payload is a coalesced record.
func IsCoalesced(b []byte) bool { return len(b) > 0 && b[0] == CoalMagic }

// AppendCoalHeader appends the cleartext coalesced-record header (magic,
// count, correlation table) to dst and returns the extended slice. The
// caller must supply 1..MaxCoalesce strictly increasing correlation IDs;
// cutCoalHeader rejects anything else, so a header has exactly one valid
// encoding.
func AppendCoalHeader(dst []byte, corrs []uint64) []byte {
	dst = append(dst, CoalMagic, byte(len(corrs)>>8), byte(len(corrs)))
	for _, c := range corrs {
		dst = binary.BigEndian.AppendUint64(dst, c)
	}
	return dst
}

// cutCoalHeader parses and validates the cleartext header, returning the
// header bytes (the sealed record's extra AD), the rest (the record), and
// the sub-frame count. Correlation IDs must be strictly increasing — the
// canonical order every flush emits — so a duplicated or shuffled
// table never parses and no sub-frame can be accounted twice.
func cutCoalHeader(b []byte) (hdr, rest []byte, n int, err error) {
	if len(b) < 3 || b[0] != CoalMagic {
		return nil, nil, 0, fmt.Errorf("not a coalesced record: %w", ErrTransport)
	}
	n = int(b[1])<<8 | int(b[2])
	if n == 0 || n > MaxCoalesce {
		return nil, nil, 0, fmt.Errorf("coalesced count %d out of range: %w", n, ErrTransport)
	}
	hlen := 3 + 8*n
	// The header must be backed by at least a minimal sealed record (8-byte
	// sequence header), so a forged count cannot claim bytes it doesn't have.
	if len(b) < hlen+8 {
		return nil, nil, 0, fmt.Errorf("coalesced header of %d not backed by record: %w", n, ErrTransport)
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		c := binary.BigEndian.Uint64(b[3+8*i:])
		if i > 0 && c <= prev {
			return nil, nil, 0, fmt.Errorf("coalesced correlation ids not strictly increasing: %w", ErrTransport)
		}
		prev = c
	}
	return b[:hlen], b[hlen:], n, nil
}

// coalCorr returns the i-th correlation ID of a validated header.
func coalCorr(hdr []byte, i int) uint64 {
	return binary.BigEndian.Uint64(hdr[3+8*i:])
}

// DecodeCoalHeader parses a coalesced-record header, returning the
// correlation IDs and the sealed record bytes (aliasing b). Exported for
// the fuzz harness and tooling; the hot path uses cutCoalHeader.
func DecodeCoalHeader(b []byte) (corrs []uint64, rest []byte, err error) {
	hdr, rest, n, err := cutCoalHeader(b)
	if err != nil {
		return nil, nil, err
	}
	corrs = make([]uint64, n)
	for i := range corrs {
		corrs[i] = coalCorr(hdr, i)
	}
	return corrs, rest, nil
}

// ReencodeCoalHeader decodes a coalesced-record header and re-emits it in
// canonical form, returning the re-encoded header and the untouched sealed
// record. Because the header admits exactly one encoding, the output is
// byte-identical to every valid input — the fuzz oracle asserts that.
func ReencodeCoalHeader(b []byte) (hdr, rest []byte, err error) {
	corrs, rest, err := DecodeCoalHeader(b)
	if err != nil {
		return nil, nil, err
	}
	return AppendCoalHeader(make([]byte, 0, 3+8*len(corrs)), corrs), rest, nil
}

// AppendCoalBody appends the coalesced body (the record plaintext) for the
// given sub-frames to dst and returns the extended slice.
func AppendCoalBody(dst []byte, subs [][]byte) []byte {
	dst = append(dst, byte(len(subs)>>8), byte(len(subs)))
	for _, sub := range subs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(sub)))
		dst = append(dst, sub...)
	}
	return dst
}

// cutCoalBodyCount parses and bounds the body's leading count. Each
// sub-frame costs at least its 4-byte length prefix plus one byte, so the
// count must be backed by the payload.
func cutCoalBodyCount(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, fmt.Errorf("truncated coalesced body count: %w", ErrTransport)
	}
	n := int(b[0])<<8 | int(b[1])
	if n == 0 || n > MaxCoalesce {
		return 0, nil, fmt.Errorf("coalesced body count %d out of range: %w", n, ErrTransport)
	}
	if len(b)-2 < 5*n {
		return 0, nil, fmt.Errorf("coalesced body count %d not backed by payload: %w", n, ErrTransport)
	}
	return n, b[2:], nil
}

// cutCoalSub parses one length-prefixed sub-frame off the front of b. The
// returned sub aliases b.
func cutCoalSub(b []byte) (sub, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("truncated sub-frame length: %w", ErrTransport)
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n == 0 {
		return nil, nil, fmt.Errorf("empty sub-frame: %w", ErrTransport)
	}
	if len(b) < n {
		return nil, nil, fmt.Errorf("truncated sub-frame: %w", ErrTransport)
	}
	return b[:n], b[n:], nil
}

// DecodeCoalBody parses a coalesced body into its sub-frames (aliasing b).
// Truncated tables, zero-length subs, and trailing bytes are rejected.
func DecodeCoalBody(b []byte) ([][]byte, error) {
	n, rest, err := cutCoalBodyCount(b)
	if err != nil {
		return nil, err
	}
	subs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var sub []byte
		sub, rest, err = cutCoalSub(rest)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after coalesced body: %w", len(rest), ErrTransport)
	}
	return subs, nil
}

// ReencodeCoalBody decodes a coalesced body and re-emits it in canonical
// form — the identity on every valid input, which the fuzz oracle checks.
func ReencodeCoalBody(b []byte) ([]byte, error) {
	subs, err := DecodeCoalBody(b)
	if err != nil {
		return nil, err
	}
	return AppendCoalBody(make([]byte, 0, len(b)), subs), nil
}

// CoalesceMonitor receives coalescing telemetry; telemetry.Metrics
// implements it structurally (the same pattern as Monitor), and a Monitor
// that doesn't is simply not called.
type CoalesceMonitor interface {
	// StubCoalesce records one coalesced record sealed carrying subframes
	// sub-frames (always ≥ 2; single flushes seal plain records).
	StubCoalesce(stub string, subframes int)
}

type nopCoalesceMonitor struct{}

func (nopCoalesceMonitor) StubCoalesce(string, int) {}

// pendingSub is one request frame queued for the next flush: the caller's
// correlation ID and waiter (so a failed flush can resolve it), the session
// generation it was issued under (so a flush never seals a frame onto a
// session its caller was already broadcast off of), and the pooled frame
// buffer holding the encoded request.
//
// The flush that takes a sub off the queue is its only owner: once it has
// sealed or dropped the sub it recycles it (releaseSub). The caller never
// reads its sub after submit.
type pendingSub struct {
	gen   uint64
	corr  uint64
	w     *waiter
	buf   *[]byte
	frame []byte
}

var subPool = sync.Pool{New: func() any { return new(pendingSub) }}

// coalescer is the stub-side flush queue. Frames leave it at exactly two
// points: the receive-token holder's flush just before each pump, and at
// most one rider flush per round (see submit). Each flush seals one
// snapshot of the queue in records of at most coalesceWindow sub-frames,
// so sealed records ≤ 2 × rounds × ⌈queued/coalesceWindow⌉ whatever the
// scheduling.
type coalescer struct {
	mu    sync.Mutex
	queue []*pendingSub
	// flushMu serializes flushes: when a flush returns, every frame queued
	// before it started is on the wire, so a token holder's own frame is
	// always sent before its pump. It also guards spare, the backing array
	// the next snapshot swaps in, so steady-state flushes allocate nothing.
	flushMu sync.Mutex
	spare   []*pendingSub
}

// submit enqueues one sealed-frame-to-be. Normally nothing is transmitted here: the receive-token holder
// flushes the queue immediately before it pays for a wire round, which is
// what coalesces every frame that arrived during the previous round into
// one sealed record. The one exception is the rider: the first submit that
// lands while a round is in flight (s.rider armed) flushes at once, so its
// frame — and any queued with it — reaches the remote in time for that
// round's serve. Every later mid-round submitter waits for the next
// pre-pump flush, which bounds the flushes to two per round.
func (s *Stub) submit(gen, corr uint64, w *waiter, fp *[]byte, frame []byte) {
	sub := subPool.Get().(*pendingSub)
	sub.gen, sub.corr, sub.w, sub.buf, sub.frame = gen, corr, w, fp, frame
	c := &s.coal
	c.mu.Lock()
	c.queue = append(c.queue, sub)
	c.mu.Unlock()
	if s.rider.CompareAndSwap(true, false) {
		s.flushQueue()
	}
}

// flushQueue takes one snapshot of the queue and seals it in records of at
// most coalesceWindow sub-frames. Frames queued after the snapshot wait
// for the next flush. Errors — a flusher's own call included — are
// resolved through the waiters.
func (s *Stub) flushQueue() {
	c := &s.coal
	c.flushMu.Lock()
	c.mu.Lock()
	batch := c.queue
	c.queue = c.spare[:0]
	c.mu.Unlock()
	for rest := batch; len(rest) > 0; {
		n := min(len(rest), coalesceWindow)
		s.flushBatch(rest[:n])
		rest = rest[n:]
	}
	clear(batch)
	c.spare = batch[:0]
	c.flushMu.Unlock()
}

// flushBatch seals one record carrying the batch and transmits it. A batch
// of one seals a plain v3 record — byte-identical to the pre-coalescing
// wire — so sequential callers and mixed-version peers interoperate
// unchanged; two or more seal a coalesced record. Stale sub-frames
// (session replaced since enqueue) are dropped: their callers were already
// resolved by the replacing path's broadcast. A seal or send failure
// resolves every caller whose registration this flush still owns. Every
// sub in the batch is recycled before flushBatch returns.
func (s *Stub) flushBatch(batch []*pendingSub) {
	s.mu.Lock()
	sess, gen := s.sess, s.gen
	s.mu.Unlock()

	// Partition in place: live sub-frames (current generation) to the
	// front. Stale ones are simply released — their waiters already hold
	// (or are about to receive) the replacing path's broadcast.
	live := batch[:0]
	for _, sub := range batch {
		if sub.gen == gen && sess != nil {
			live = append(live, sub)
		} else {
			releaseSub(sub)
		}
	}
	if len(live) == 0 {
		return
	}

	// Canonical order: the coalesced header demands strictly increasing
	// correlation IDs. Enqueue order is close to sorted already (IDs are
	// minted monotonically under mu), so an insertion sort is cheap and
	// allocation-free.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].corr < live[j-1].corr; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}

	var rec []byte
	var err error
	rp := getBuf()
	if len(live) == 1 {
		s.sendMu.Lock()
		rec, err = sess.SealTo((*rp)[:0], live[0].frame)
		if err == nil {
			err = s.cfg.Endpoint.Send(s.cfg.RemoteEndpoint, rec)
		}
		s.sendMu.Unlock()
	} else {
		// Header and body in pooled scratch; the sealed record is appended
		// directly after the header so the datagram goes out as one slice.
		hdr := (*rp)[:0]
		hdr = append(hdr, CoalMagic, byte(len(live)>>8), byte(len(live)))
		for _, sub := range live {
			hdr = binary.BigEndian.AppendUint64(hdr, sub.corr)
		}
		bp := getBuf()
		body := append((*bp)[:0], byte(len(live)>>8), byte(len(live)))
		for _, sub := range live {
			body = binary.BigEndian.AppendUint32(body, uint32(len(sub.frame)))
			body = append(body, sub.frame...)
		}
		s.sendMu.Lock()
		rec, err = sess.SealToAD(hdr, body, hdr)
		if err == nil {
			err = s.cfg.Endpoint.Send(s.cfg.RemoteEndpoint, rec)
		}
		s.sendMu.Unlock()
		putBuf(bp, body)
		if rec == nil {
			rec = hdr
		}
	}
	putBuf(rp, rec)

	if err != nil {
		for _, sub := range live {
			if s.unregister(gen, sub.corr) {
				sub.w.ch <- result{err: err}
			}
			releaseSub(sub)
		}
		return
	}
	s.records.Add(1)
	if n := len(live); n > 1 {
		s.coalRecords.Add(1)
		s.coalSubs.Add(uint64(n))
		s.cmon.StubCoalesce(s.name, n)
	}
	for _, sub := range live {
		releaseSub(sub)
	}
}

// releaseSub recycles a sealed or dropped sub and its frame buffer. The
// waiter is never touched here — its completion is owned by whichever
// path unregistered it.
func releaseSub(sub *pendingSub) {
	putBuf(sub.buf, sub.frame)
	sub.gen, sub.corr, sub.w, sub.buf, sub.frame = 0, 0, nil, nil, nil
	subPool.Put(sub)
}

// demuxCoalesced opens one coalesced reply record and routes every
// sub-reply it carries, mirroring demux: each sub-frame is a complete
// reply frame whose correlation prefix must match the AD-bound header
// entry at its position. A header/body mismatch or a malformed body is a
// session-level failure (the record authenticated, so the peer's sealer is
// broken); orphaned sub-replies are counted and dropped individually.
func (s *Stub) demuxCoalesced(sess *securechan.Session, gen, ownCorr uint64, dg netsim.Datagram) (res result, mine bool, err error) {
	hdr, sealed, n, herr := cutCoalHeader(dg.Payload)
	if herr != nil {
		dg.Release()
		return result{}, false, herr
	}
	ob := getBuf()
	plain, oerr := sess.OpenToAD((*ob)[:0], sealed, hdr)
	if oerr != nil {
		dg.Release()
		putBuf(ob, nil)
		return result{}, false, oerr
	}
	bn, rest, berr := cutCoalBodyCount(plain)
	if berr == nil && bn != n {
		berr = fmt.Errorf("coalesced body count %d for header of %d: %w", bn, n, ErrTransport)
	}
	for i := 0; berr == nil && i < n; i++ {
		var sub []byte
		sub, rest, berr = cutCoalSub(rest)
		if berr != nil {
			break
		}
		if len(sub) < 9 {
			berr = fmt.Errorf("short coalesced reply frame: %w", ErrTransport)
			break
		}
		corr := binary.BigEndian.Uint64(sub)
		if corr != coalCorr(hdr, i) {
			berr = fmt.Errorf("coalesced reply correlation mismatch: %w", ErrTransport)
			break
		}
		r := s.decodeReply(sub[8:])

		s.mu.Lock()
		var w *waiter
		if s.gen == gen {
			if ww, ok := s.waiters[corr]; ok {
				delete(s.waiters, corr)
				w = ww
			}
		}
		s.mu.Unlock()
		switch {
		case w == nil:
			s.orphans.Add(1)
			s.mon.StubOrphan(s.name)
		case corr == ownCorr:
			res, mine = r, true
		default:
			w.ch <- r
		}
	}
	if berr == nil && len(rest) != 0 {
		berr = fmt.Errorf("%d trailing bytes after coalesced reply: %w", len(rest), ErrTransport)
	}
	dg.Release()
	putBuf(ob, plain)
	return res, mine, berr
}

// coalAssembly collects one coalesced request record's sub-replies on the
// exporter. Sub-frames execute concurrently across the worker pool; each
// writes its encoded reply frame into its own slot, and the last one to
// finish seals the single coalesced reply. The decrypted plaintext buffer
// is held until then because every sub-frame's Data aliases it.
type coalAssembly struct {
	ss    *sessState
	from  string
	corrs []uint64
	slots [][]byte
	bufs  []*[]byte
	ob    *[]byte
	raw   []byte
	// pending counts sub-frames still executing; the executor that
	// decrements it to zero flushes the assembly.
	pending atomic.Int32
}

var asmPool = sync.Pool{New: func() any { return new(coalAssembly) }}

// addSlot reserves the next reply slot for corr and returns its index.
func (a *coalAssembly) addSlot(corr uint64) int {
	a.corrs = append(a.corrs, corr)
	bp := getBuf()
	a.bufs = append(a.bufs, bp)
	a.slots = append(a.slots, (*bp)[:0])
	return len(a.slots) - 1
}

// coalFault, when armed, perturbs the next coalesced record the exporter
// opens: "drop" removes one sub-frame entirely (its caller never gets a
// sub-reply and resolves with a typed transport error on its next dry
// round), "tamper" corrupts one sub-frame's flags byte before decode (its
// caller sees a typed remote error). The simulation harness arms this to
// prove sibling sub-frames are unaffected — the AEAD makes sub-frame
// surgery at the network layer impossible, so the fault lives behind it.
type coalFault struct {
	mu   sync.Mutex
	mode string
	idx  int
}

// FaultNextCoalesced arms the exporter's coalesce fault for the next
// coalesced record: mode is "drop" or "tamper", idx selects the sub-frame
// (wrapped into range). Test/simulation hook only.
func (e *Exporter) FaultNextCoalesced(mode string, idx int) {
	e.fault.mu.Lock()
	e.fault.mode, e.fault.idx = mode, idx
	e.fault.mu.Unlock()
}

// takeFault disarms and returns the pending coalesce fault, if any.
func (e *Exporter) takeFault() (mode string, idx int) {
	e.fault.mu.Lock()
	mode, idx = e.fault.mode, e.fault.idx
	e.fault.mode = ""
	e.fault.mu.Unlock()
	return mode, idx
}

// openCoalesced opens one coalesced request record and appends one job per
// executable sub-frame to jobs. The header is the record's extra AD, so a
// tampered count or correlation table fails the open. Ping sub-frames are
// answered in their slots immediately; a sub-frame that fails to decode, or
// whose embedded correlation ID disagrees with the AD-bound header, gets a
// statusErr sub-reply addressed by the header entry — its siblings are
// unaffected. When nothing is left to execute the reply seals here.
func (e *Exporter) openCoalesced(ss *sessState, dg netsim.Datagram, jobs *[]*job) error {
	hdr, sealed, n, err := cutCoalHeader(dg.Payload)
	if err != nil {
		dg.Release()
		return err
	}
	ob := getBuf()
	ss.openMu.Lock()
	plain, oerr := ss.sess.OpenToAD((*ob)[:0], sealed, hdr)
	ss.openMu.Unlock()
	if oerr != nil {
		// A coalesced record can never be hello-shaped (the magic byte sees
		// to it), so unlike openRequest there is no session-reset path here:
		// drop, preserving the failure.
		dg.Release()
		putBuf(ob, nil)
		return fmt.Errorf("distributed: undecryptable coalesced record from %s: %w", dg.From, oerr)
	}
	bn, rest, berr := cutCoalBodyCount(plain)
	if berr == nil && bn != n {
		berr = fmt.Errorf("coalesced body count %d for header of %d: %w", bn, n, ErrTransport)
	}
	if berr != nil {
		dg.Release()
		putBuf(ob, plain)
		return berr
	}

	asm := asmPool.Get().(*coalAssembly)
	asm.ss, asm.from, asm.ob, asm.raw = ss, dg.From, ob, plain
	asm.corrs, asm.slots, asm.bufs = asm.corrs[:0], asm.slots[:0], asm.bufs[:0]
	fmode, fidx := e.takeFault()
	if fmode != "" && n > 0 {
		fidx = ((fidx % n) + n) % n
	}

	for i := 0; i < n; i++ {
		var sub []byte
		sub, rest, berr = cutCoalSub(rest)
		if berr != nil {
			break
		}
		corr := coalCorr(hdr, i)
		if fmode == "drop" && i == fidx {
			continue
		}
		if fmode == "tamper" && i == fidx {
			sub[0] |= 0x80 // an unknown frame-version bit: decode must reject
		}
		j := jobPool.Get().(*job)
		j.req = Request{}
		derr := decodeRequestInto(sub, &j.req, &e.ops)
		if derr == nil && (!j.req.HasCorr || j.req.Corr != corr) {
			derr = fmt.Errorf("sub-frame correlation disagrees with header: %w", ErrTransport)
		}
		switch {
		case derr != nil:
			slot := asm.addSlot(corr)
			frame := binary.BigEndian.AppendUint64(asm.slots[slot], corr)
			frame = append(frame, statusErr)
			frame = append(frame, derr.Error()...)
			asm.slots[slot] = frame
			jobPool.Put(j)
		case j.req.Op == PingOp:
			slot := asm.addSlot(corr)
			asm.slots[slot] = appendReplyFrame(asm.slots[slot], j.req, core.Message{Op: PongOp}, nil)
			jobPool.Put(j)
		default:
			j.ss, j.from, j.asm, j.idx = ss, dg.From, asm, asm.addSlot(corr)
			*jobs = append(*jobs, j)
		}
	}
	if berr == nil && len(rest) != 0 {
		berr = fmt.Errorf("%d trailing bytes after coalesced body: %w", len(rest), ErrTransport)
	}
	dg.Release()
	if berr != nil {
		// Malformed body: unwind the jobs we queued (none have run — the
		// caller dispatches only after collect returns) and drop the record.
		if nq := len(*jobs); nq > 0 {
			kept := (*jobs)[:0]
			for _, j := range *jobs {
				if j.asm == asm {
					jobPool.Put(j)
					continue
				}
				kept = append(kept, j)
			}
			*jobs = kept
		}
		e.releaseAssembly(asm)
		return berr
	}
	pending := 0
	for _, j := range *jobs {
		if j.asm == asm {
			pending++
		}
	}
	if pending == 0 {
		return e.flushAssembly(asm)
	}
	asm.pending.Store(int32(pending))
	return nil
}

// executeSub runs one coalesced sub-frame and writes its reply frame into
// its assembly slot; the last sub-frame to finish seals the coalesced
// reply. Mirrors execute, including batched-ingestion sub-frames.
func (e *Exporter) executeSub(j *job) error {
	asm, idx := j.asm, j.idx
	var msg core.Message
	var herr error
	var bb *[]byte
	if j.req.Op == BatchOp {
		msg, bb, herr = e.runBatch(j.req)
	} else {
		env := core.Envelope{
			Msg:   core.Message{Op: j.req.Op, Data: j.req.Data},
			Span:  j.req.Span,
			Taint: j.req.Taint,
		}
		if j.req.Budget > 0 {
			// Same contract as execute: guarded delivery clones the payload
			// because the watchdog may abandon the handler while it still
			// reads the shared decrypted buffer.
			env.Deadline = e.clock().Add(j.req.Budget)
			env.Msg.Data = env.Msg.CloneData()
		}
		msg, herr = e.sys.DeliverEnvelope(e.target, env)
	}
	asm.slots[idx] = appendReplyFrame(asm.slots[idx], j.req, msg, herr)
	if bb != nil {
		putBuf(bb, msg.Data)
	}
	if asm.pending.Add(-1) == 0 {
		return e.flushAssembly(asm)
	}
	return nil
}

// flushAssembly seals and transmits the coalesced reply: header (magic,
// count, the slot correlation IDs) as extra AD, body of length-prefixed
// reply frames, one AEAD pass for the lot. Assemblies that lost every
// sub-frame (all dropped by fault) send nothing.
func (e *Exporter) flushAssembly(asm *coalAssembly) error {
	var err error
	if len(asm.slots) > 0 {
		rp := getBuf()
		hdr := (*rp)[:0]
		hdr = append(hdr, CoalMagic, byte(len(asm.corrs)>>8), byte(len(asm.corrs)))
		for _, c := range asm.corrs {
			hdr = binary.BigEndian.AppendUint64(hdr, c)
		}
		bp := getBuf()
		body := append((*bp)[:0], byte(len(asm.slots)>>8), byte(len(asm.slots)))
		for _, slot := range asm.slots {
			body = binary.BigEndian.AppendUint32(body, uint32(len(slot)))
			body = append(body, slot...)
		}
		var rec []byte
		asm.ss.sendMu.Lock()
		rec, err = asm.ss.sess.SealToAD(hdr, body, hdr)
		if err == nil {
			err = e.ep.Send(asm.from, rec)
		}
		asm.ss.sendMu.Unlock()
		putBuf(bp, body)
		if rec == nil {
			rec = hdr
		}
		putBuf(rp, rec)
	}
	e.releaseAssembly(asm)
	return err
}

// releaseAssembly returns an assembly's buffers to their pools.
func (e *Exporter) releaseAssembly(asm *coalAssembly) {
	for i, bp := range asm.bufs {
		putBuf(bp, asm.slots[i])
	}
	putBuf(asm.ob, asm.raw)
	corrs, slots, bufs := asm.corrs[:0], asm.slots[:0], asm.bufs[:0]
	*asm = coalAssembly{corrs: corrs, slots: slots, bufs: bufs}
	asmPool.Put(asm)
}

// appendReplyFrame appends one complete reply frame — correlation prefix
// (when the request carried one), status byte, payload — to dst. The
// single-record reply path and the coalesced slots share this encoding.
func appendReplyFrame(dst []byte, req Request, msg core.Message, herr error) []byte {
	if req.HasCorr {
		dst = binary.BigEndian.AppendUint64(dst, req.Corr)
	}
	switch {
	case errors.Is(herr, core.ErrDeadline):
		dst = append(dst, statusDeadline)
		dst = append(dst, herr.Error()...)
	case errors.Is(herr, core.ErrOverloaded):
		dst = append(dst, statusOverload)
		dst = append(dst, herr.Error()...)
	case errors.Is(herr, core.ErrPolicy):
		dst = append(dst, statusPolicy)
		dst = append(dst, herr.Error()...)
	case herr != nil:
		dst = append(dst, statusErr)
		dst = append(dst, herr.Error()...)
	default:
		dst = append(dst, statusOK)
		dst = appendCall(dst, msg.Op, msg.Data)
	}
	return dst
}
