package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/distributed"
	"lateral/internal/journal"
	"lateral/internal/telemetry"
)

// This file is the traced run's instrumentation. Every hook is installed
// from the benchmark's side of each module's public API — a core.Tracer,
// a core.Policy wrapper, a wrapped exporter pump, a shard.Backend wrapper,
// an EventRecorder wrapper and a monitor forwarder — so the program under
// test is measured without being modified.

// layer names a span's boundary.
type layer uint8

const (
	lClient  layer = iota // one client request, as the benchmark issues it
	lRouter               // shard.Router.Do / DoBatch
	lBackend              // shard.Backend → *cluster.Pool
	lPump                 // stub pump → Exporter.Serve
	lDeliver              // core: external delivery into a system
	lCall                 // core: cross-domain call over a granted channel
	lHandle               // core: target handler execution
	nLayers
)

var layerNames = [nLayers]string{"client", "router", "backend", "pump", "core.deliver", "core.call", "core.handle"}

// span is one timed boundary crossing. Core spans keep core's own IDs and
// parent links; the benchmark's spans draw IDs from a separate namespace
// (top bit set) so the two never collide.
type span struct {
	start   int64 // ns since the tracer's epoch
	dur     int64
	id      uint64
	parent  uint64 // 0 = root or unknown
	req     uint64 // request: core trace ID, or the benchmark's client span ID
	layer   layer
	control bool // pump on behalf of a control-plane handshake, not a data call
}

// leaf sums one boundary's calls and their total time on the fly, for
// every call whether or not its span is stored. For boundaries without
// children of their own (policy checks, journal appends, telemetry hooks)
// that is all their self time needs.
type leaf struct{ n, ns atomic.Int64 }

func (l *leaf) add(d time.Duration) {
	l.n.Add(1)
	l.ns.Add(int64(d))
}

const benchIDBit = uint64(1) << 63

// Sampling keeps the slab from filling in the first second: core traces
// one externally delivered request in coreSample (core's own head
// sampling, so a sampled request's whole subtree is kept), and the
// benchmark stores the client, Router and Backend spans of one request in
// reqSample and one pump in pumpSample. Every boundary is also summed on
// the fly, sampled or not, so per-layer totals and the self times derived
// from them cover the whole traced phase; only the core self times, which
// need parent links, come from the sample.
const (
	coreSample = 64
	reqSample  = 16
	pumpSample = 8
)

// tracer keeps sampled spans in a fixed in-memory slab and writes them out
// when the benchmark ends. A traced phase stops issuing requests once the
// slab passes its soft limit; the remainder holds the spans of requests
// still in flight, so every stored request is complete.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	spans []span
	next  atomic.Int64
	soft  int64
	lost  atomic.Int64
	ids   atomic.Uint64
	cur   []atomic.Uint64 // per lane: the sampled client span in progress, or 0

	router, backend     leaf // every Router and Backend call
	dataPumps, ctlPumps leaf // every pump, serving data calls or control-plane handshakes
	pumpSeq             atomic.Int64
	policy              leaf // checks on granted channels (inside a handler span)
	policyDeliver       leaf // checks at the external deliver boundary
	policyDenies        atomic.Int64
	journal             leaf
	handshakes          atomic.Int64 // "session-up" journal events
	hooks               leaf
}

func newTracer(capacity, lanes int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, capacity),
		soft:  int64(capacity) * 9 / 10,
		cur:   make([]atomic.Uint64, lanes),
	}
}

func (t *tracer) full() bool { return t.next.Load() >= t.soft }

func (t *tracer) newID() uint64 { return benchIDBit | t.ids.Add(1) }

func (t *tracer) record(s span) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.lost.Add(1)
		return
	}
	t.spans[i] = s
}

// stored returns the recorded spans.
func (t *tracer) stored() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// SpanStart implements core.Tracer; spans are stored whole at SpanEnd.
func (t *tracer) SpanStart(core.Span, core.SpanInfo, time.Time) {}

// SpanEnd implements core.Tracer.
func (t *tracer) SpanEnd(sp core.Span, info core.SpanInfo, start time.Time, elapsed time.Duration, _ error) {
	if !t.on.Load() {
		return
	}
	var l layer
	switch info.Kind {
	case core.SpanDeliver:
		l = lDeliver
	case core.SpanCall:
		l = lCall
	case core.SpanHandle:
		l = lHandle
	default:
		return
	}
	t.record(span{start: t.since(start), dur: int64(elapsed), id: sp.ID, parent: sp.Parent, req: sp.Trace, layer: l})
}

// tracedPolicy times every check of the wrapped policy.
type tracedPolicy struct {
	p  core.Policy
	tr *tracer
}

func (w tracedPolicy) CheckInvoke(req core.PolicyRequest) ([]string, error) {
	if !w.tr.on.Load() {
		return w.p.CheckInvoke(req)
	}
	start := time.Now()
	acquire, err := w.p.CheckInvoke(req)
	d := time.Since(start)
	if req.Channel == core.PolicyDeliver {
		w.tr.policyDeliver.add(d)
	} else {
		w.tr.policy.add(d)
	}
	if err != nil {
		w.tr.policyDenies.Add(1)
	}
	return acquire, err
}

// tracedPump wraps an exporter's Serve as a stub pump. ctl, when set,
// marks pumps that serve a control-plane handshake (see fleet.go).
func (t *tracer) tracedPump(serve func() error, ctl *atomic.Bool) func() error {
	return func() error {
		if !t.on.Load() {
			return serve()
		}
		start := time.Now()
		err := serve()
		d := time.Since(start)
		control := ctl != nil && ctl.Load()
		if control {
			t.ctlPumps.add(d)
		} else {
			t.dataPumps.add(d)
		}
		if t.pumpSeq.Add(1)%pumpSample == 0 {
			t.record(span{start: t.since(start), dur: int64(d), id: t.newID(), layer: lPump, control: control})
		}
		return err
	}
}

// tracedBackend is a shard.Backend around one cluster pool. The routing
// key carries the issuing lane ("tTT/gL/..."), which names the client span
// the backend call belongs to when that request is sampled.
type tracedBackend struct {
	pool *cluster.Pool
	tr   *tracer
}

func (b tracedBackend) parent(key string) (id uint64) {
	if len(key) > 5 && key[4] == 'g' {
		if lane := int(key[5] - '0'); lane >= 0 && lane < len(b.tr.cur) {
			id = b.tr.cur[lane].Load()
		}
	}
	return id
}

func (b tracedBackend) end(key string, start time.Time) {
	d := time.Since(start)
	b.tr.backend.add(d)
	if p := b.parent(key); p != 0 {
		b.tr.record(span{start: b.tr.since(start), dur: int64(d), id: b.tr.newID(), parent: p, req: p, layer: lBackend})
	}
}

func (b tracedBackend) DoDeadline(key string, msg core.Message, deadline time.Time) (core.Message, error) {
	if !b.tr.on.Load() {
		return b.pool.DoDeadline(key, msg, deadline)
	}
	start := time.Now()
	reply, err := b.pool.DoDeadline(key, msg, deadline)
	b.end(key, start)
	return reply, err
}

func (b tracedBackend) DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	if !b.tr.on.Load() {
		return b.pool.DoBatch(key, readings, results, deadline)
	}
	start := time.Now()
	results, err := b.pool.DoBatch(key, readings, results, deadline)
	b.end(key, start)
	return results, err
}

func (b tracedBackend) Healthy() int                    { return b.pool.Healthy() }
func (b tracedBackend) Replicas() []cluster.ReplicaInfo { return b.pool.Replicas() }

// tracedRecorder times appends to the journal.
type tracedRecorder struct {
	j  *journal.Journal
	tr *tracer
}

func (r tracedRecorder) RecordEvent(kind, actor, detail string, trace, span uint64) {
	if !r.tr.on.Load() {
		r.j.RecordEvent(kind, actor, detail, trace, span)
		return
	}
	start := time.Now()
	r.j.RecordEvent(kind, actor, detail, trace, span)
	r.tr.journal.add(time.Since(start))
	if kind == journal.KindSessionUp {
		r.tr.handshakes.Add(1)
	}
}

// monitorFwd forwards every telemetry hook the fleet calls to
// telemetry.Metrics and times it. It implements the same optional
// extensions Metrics does (stub, coalesce and epoch monitors), so the
// pool's type assertions wire it exactly as they wire Metrics.
type monitorFwd struct {
	m  *telemetry.Metrics
	tr *tracer
}

func (f monitorFwd) timed(fn func()) {
	if !f.tr.on.Load() {
		fn()
		return
	}
	start := time.Now()
	fn()
	f.tr.hooks.add(time.Since(start))
}

func (f monitorFwd) ReplicaState(fleet, replica string, healthy, quarantined bool) {
	f.timed(func() { f.m.ReplicaState(fleet, replica, healthy, quarantined) })
}
func (f monitorFwd) ReplicaInflight(fleet, replica string, delta int) {
	f.timed(func() { f.m.ReplicaInflight(fleet, replica, delta) })
}
func (f monitorFwd) ReplicaCall(fleet, replica string, failed bool) {
	f.timed(func() { f.m.ReplicaCall(fleet, replica, failed) })
}
func (f monitorFwd) ReplicaRetry(fleet, replica string) {
	f.timed(func() { f.m.ReplicaRetry(fleet, replica) })
}
func (f monitorFwd) ReplicaFailover(fleet, replica string) {
	f.timed(func() { f.m.ReplicaFailover(fleet, replica) })
}
func (f monitorFwd) StubCall(stub string, depth int) { f.timed(func() { f.m.StubCall(stub, depth) }) }
func (f monitorFwd) StubInflight(stub string, delta int) {
	f.timed(func() { f.m.StubInflight(stub, delta) })
}
func (f monitorFwd) StubOrphan(stub string) { f.timed(func() { f.m.StubOrphan(stub) }) }
func (f monitorFwd) StubCoalesce(stub string, subframes int) {
	f.timed(func() { f.m.StubCoalesce(stub, subframes) })
}
func (f monitorFwd) StubCoalesceWindow(stub string, window int) {
	f.timed(func() { f.m.StubCoalesceWindow(stub, window) })
}
func (f monitorFwd) EpochTransition(fleet string, epoch uint64, reason string) {
	f.timed(func() { f.m.EpochTransition(fleet, epoch, reason) })
}
func (f monitorFwd) ReplicaRekey(fleet, replica string, ok bool) {
	f.timed(func() { f.m.ReplicaRekey(fleet, replica, ok) })
}
func (f monitorFwd) ShardMembership(fleet string, epoch uint64, shards int) {
	f.timed(func() { f.m.ShardMembership(fleet, epoch, shards) })
}
func (f monitorFwd) ShardRoute(fleet, shard string, readings int) {
	f.timed(func() { f.m.ShardRoute(fleet, shard, readings) })
}
func (f monitorFwd) ShardBatch(fleet, shard string, readings int) {
	f.timed(func() { f.m.ShardBatch(fleet, shard, readings) })
}
func (f monitorFwd) ShardQuotaDeny(fleet, tenant string) {
	f.timed(func() { f.m.ShardQuotaDeny(fleet, tenant) })
}
func (f monitorFwd) JournalEvent(j, kind string) { f.timed(func() { f.m.JournalEvent(j, kind) }) }
func (f monitorFwd) JournalCheckpoint(j string, seq, counter uint64) {
	f.timed(func() { f.m.JournalCheckpoint(j, seq, counter) })
}
func (f monitorFwd) JournalDropped(j string) { f.timed(func() { f.m.JournalDropped(j) }) }
func (f monitorFwd) JournalFlightDump(j, trigger string) {
	f.timed(func() { f.m.JournalFlightDump(j, trigger) })
}
func (f monitorFwd) Datagram(from, to string, bytes int) {
	f.timed(func() { f.m.Datagram(from, to, bytes) })
}

var (
	_ core.Tracer                 = (*tracer)(nil)
	_ core.Policy                 = tracedPolicy{}
	_ cluster.Monitor             = monitorFwd{}
	_ cluster.EpochMonitor        = monitorFwd{}
	_ distributed.Monitor         = monitorFwd{}
	_ distributed.CoalesceMonitor = monitorFwd{}
)

// coreSelf is what the stored core spans say: counts per layer, and the
// self times that need parent links.
type coreSelf struct {
	n [nLayers]int64

	// dispatchNs sums, over deliver and call spans, the span minus its
	// child handler span: the crossing itself. handleSelfNs sums handler
	// spans minus their outbound call spans.
	dispatchNs, handleSelfNs int64
}

func analyze(spans []span) coreSelf {
	var st coreSelf
	idx := make(map[uint64]int, len(spans))
	for i := range spans {
		s := &spans[i]
		st.n[s.layer]++
		if s.layer >= lDeliver {
			idx[s.id] = i
		}
	}
	child := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.layer < lDeliver || s.parent == 0 {
			continue
		}
		if p, ok := idx[s.parent]; ok {
			child[p] += s.dur
		}
	}
	for i := range spans {
		switch spans[i].layer {
		case lDeliver, lCall:
			st.dispatchNs += spans[i].dur - child[i]
		case lHandle:
			st.handleSelfNs += spans[i].dur - child[i]
		}
	}
	return st
}

// dump writes the stored spans as tab-separated lines: layer, start ns,
// duration ns, id, parent, request, control flag.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "layer\tstart_ns\tdur_ns\tid\tparent\treq\tcontrol")
	for _, s := range t.stored() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%x\t%x\t%x\t%t\n", layerNames[s.layer], s.start, s.dur, s.id, s.parent, s.req, s.control)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
