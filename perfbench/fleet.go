package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/journal"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
	"lateral/internal/shard"
	"lateral/internal/telemetry"
)

// fleet-ingest and fleet-churn: the Fig. 3 provider backend. A shard
// router spreads tenant traffic over cells; each cell is a cluster pool of
// attested SGX anonymizer replicas on its own simulated network.
// telemetry.Metrics is the pool, stub, shard, network and journal monitor,
// and one journal records pool, router, channel and replica events, as a
// deployment wires them. An op is one reading; a request is one frame of
// 1–256 readings of one tenant, sent with Router.Do when it holds a single
// reading and with Router.DoBatch otherwise.
//
// fleet-churn adds an operator running rolling-replace steps back to back
// beside one gateway: Pool.Join of a fresh replica, then Pool.Leave of the
// cell's oldest, alternating cells, and on every 8th step a shard cell
// joins or leaves the router. Frames the fleet fails are counted as
// failed readings and never retried.

const (
	fleetCells    = 2
	fleetReplicas = 2
	fleetFrames   = 2048 // generated frames per lane, cycled
	churnEvery    = 8    // every churnEvery-th operator step toggles a shard cell

	// kindSingle marks a one-reading frame in a result's kind; the low
	// bits are the tenant.
	kindSingle = 0x80
)

// anon is the replicated anonymizer. It counts accepted readings per
// tenant so the run can audit them against the gateways' acks.
type anon struct {
	perTenant [fleetTenants]atomic.Int64
}

func (a *anon) CompName() string     { return "anonymizer" }
func (a *anon) CompVersion() string  { return "2.0" }
func (a *anon) Init(*core.Ctx) error { return nil }

var ackMsg = core.Message{Op: "ack"}

func (a *anon) Handle(env core.Envelope) (core.Message, error) {
	// Data is "tTT/...=k": tenant TT, kWh k in the final byte.
	d := env.Msg.Data
	if env.Msg.Op != "reading" || len(d) < 5 || d[0] != 't' || d[len(d)-2] != '=' {
		return core.Message{}, core.ErrRefused
	}
	t := int(d[1]-'0')*10 + int(d[2]-'0')
	if t < 0 || t >= fleetTenants {
		return core.Message{}, core.ErrRefused
	}
	a.perTenant[t].Add(1)
	return ackMsg, nil
}

type fleetCell struct {
	name    string
	net     *netsim.Network
	pool    *cluster.Pool
	members []string                // oldest first; changed by the operator only
	systems map[string]*core.System // live replicas' systems, guarded by fleetInst.mu
	ctl     map[string]*atomic.Bool
	seq     int
}

// transition is one timed Pool.Join or Pool.Leave of the operator.
type transition struct {
	at  time.Time
	dur time.Duration
}

type fleetInst struct {
	seed   int64
	tr     *tracer
	nLanes int

	met    *telemetry.Metrics
	mon    fleetMonitor // met, or its timing forwarder when traced
	jnl    *journal.Journal
	rec    cluster.EventRecorder
	rt     *shard.Router
	vendor *cryptoutil.Signer
	meas   [32]byte

	mu      sync.Mutex // guards everything below that the operator changes
	cells   map[string]*fleetCell
	order   []string // live cell names, join order
	anons   []*anon  // every replica ever built, for the audit
	extra   int      // shard cells the operator has added so far
	trans   []transition
	opErrs  []error
	retired counters // final counters of replicas and cells the operator removed

	frames    [][]fleetFrame
	readings  [][][]distributed.Reading // per lane, per frame
	results   [][]distributed.BatchResult
	cur       []int
	acks      [][fleetTenants]int64 // per lane
	noReplica atomic.Int64
}

// fleetMonitor is every telemetry hook the fleet is wired with;
// telemetry.Metrics implements it, and so does its timing forwarder.
type fleetMonitor interface {
	cluster.Monitor
	shard.Monitor
	journal.Monitor
	netsim.Monitor
}

var tenantNames = func() (out [fleetTenants]string) {
	for i := range out {
		out[i] = fmt.Sprintf("t%02d", i)
	}
	return out
}()

func newFleet(seed int64, in fleetInputs, tr *tracer) (*fleetInst, error) {
	tag := fmt.Sprint(seed)
	lanes := len(in.frames)
	f := &fleetInst{
		seed: seed, tr: tr, nLanes: lanes, frames: in.frames, readings: in.readings,
		met:    telemetry.NewMetrics(),
		vendor: cryptoutil.NewSigner("vendor-" + tag),
		meas:   cryptoutil.Hash(core.DomainImage(&anon{})),
		cells:  make(map[string]*fleetCell),
	}
	f.mon = f.met
	if tr != nil {
		f.mon = monitorFwd{m: f.met, tr: tr}
	}
	jnl, err := journal.New(journal.Config{
		Name:    "fleet",
		Signer:  cryptoutil.NewSigner("auditor-" + tag),
		Counter: &journal.MemCounter{},
		Monitor: f.mon,
	})
	if err != nil {
		return nil, err
	}
	f.jnl, f.rec = jnl, jnl
	if tr != nil {
		f.rec = tracedRecorder{j: jnl, tr: tr}
	}
	f.rt = shard.NewRouter(shard.Config{Fleet: "fabric", Monitor: f.mon, Journal: f.rec})
	for i := 0; i < fleetCells; i++ {
		if err := f.addCell(fmt.Sprintf("cell-%d", i)); err != nil {
			return nil, err
		}
	}
	for lane := 0; lane < lanes; lane++ {
		f.results = append(f.results, make([]distributed.BatchResult, 0, fleetMaxFrame))
	}
	f.cur = make([]int, lanes)
	f.acks = make([][fleetTenants]int64, lanes)
	return f, nil
}

// addCell builds a pool of fleetReplicas admitted replicas and joins it to
// the shard router.
func (f *fleetInst) addCell(name string) error {
	net := netsim.New()
	net.SetMonitor(f.mon)
	pool, err := cluster.New(cluster.Config{
		Fleet:       name,
		RemoteName:  "anonymizer",
		VendorKey:   f.vendor.Public(),
		Measurement: f.meas,
		JitterSeed:  fmt.Sprintf("%d-%s", f.seed, name),
		Monitor:     f.mon,
		Journal:     f.rec,
	})
	if err != nil {
		return err
	}
	c := &fleetCell{name: name, net: net, pool: pool,
		systems: make(map[string]*core.System), ctl: make(map[string]*atomic.Bool)}
	for i := 0; i < fleetReplicas; i++ {
		spec, err := f.replica(c)
		if err != nil {
			return err
		}
		if err := pool.Admit(spec); err != nil {
			return err
		}
		c.members = append(c.members, spec.Name)
	}
	c.clearCtl()
	var be shard.Backend = pool
	if f.tr != nil {
		be = tracedBackend{pool: pool, tr: f.tr}
	}
	if err := f.rt.Join(name, be); err != nil {
		return err
	}
	f.mu.Lock()
	f.cells[name] = c
	f.order = append(f.order, name)
	f.mu.Unlock()
	return nil
}

// replica stands up one replica machine — enclave, system, exporter — on
// the cell's network and returns its admission spec. When traced, its pump
// is marked control-plane from creation until the operator's transition
// ends, and again whenever the pool pushes it a new epoch (the rekey that
// follows is a handshake, not a data call).
func (f *fleetInst) replica(c *fleetCell) (cluster.ReplicaSpec, error) {
	c.seq++
	name := fmt.Sprintf("%s-r%d", c.name, c.seq)
	cpu, err := sgx.New(sgx.Config{DeviceSeed: fmt.Sprintf("cpu-%d-%s", f.seed, name), Vendor: f.vendor})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	sys := core.NewSystem(cpu)
	a := &anon{}
	if err := sys.Launch(a, true, 1); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.InitAll(); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	sys.SetEventRecorder(f.rec)
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "anonymizer",
		Endpoint:  c.net.Attach(name),
		Identity:  cryptoutil.NewSigner(name + "-tls"),
		Rand:      cryptoutil.NewPRNG(fmt.Sprintf("srv-%d-%s", f.seed, name)),
	})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	spec := cluster.ReplicaSpec{
		Name:           name,
		RemoteEndpoint: name,
		Endpoint:       c.net.Attach("lb-" + name),
		Rand:           cryptoutil.NewPRNG(fmt.Sprintf("cli-%d-%s", f.seed, name)),
		Pump:           exp.Serve,
		SetEpoch:       exp.SetEpoch,
	}
	if f.tr != nil {
		sys.SetTracer(f.tr)
		sys.SetTraceSampling(coreSample)
		ctl := new(atomic.Bool)
		ctl.Store(true)
		c.ctl[name] = ctl
		spec.Pump = f.tr.tracedPump(exp.Serve, ctl)
		spec.SetEpoch = func(n uint64) {
			ctl.Store(true)
			exp.SetEpoch(n)
		}
	}
	f.mu.Lock()
	f.anons = append(f.anons, a)
	c.systems[name] = sys
	f.mu.Unlock()
	return spec, nil
}

func (c *fleetCell) clearCtl() {
	for _, b := range c.ctl {
		b.Store(false)
	}
}

func (f *fleetInst) lanes() int { return f.nLanes }

func (f *fleetInst) do(lane int) result {
	i := f.cur[lane] % fleetFrames
	f.cur[lane]++
	fr := &f.frames[lane][i]
	n := len(fr.readings)
	r := result{ops: n, kind: uint8(fr.tenant)}
	r.payload = int64(fr.bytes)
	tenant := tenantNames[fr.tenant]
	var start time.Time
	traced := f.tr != nil && f.tr.on.Load()
	if traced {
		start = time.Now()
	}
	if n == 1 {
		r.kind |= kindSingle
		reply, err := f.rt.Do(tenant, fr.key, core.Message{Op: "reading", Data: fr.readings[0]})
		if traced {
			f.routerSpan(lane, start)
		}
		switch {
		case err != nil:
			f.noteErr(err)
			r.failed = 1
		case reply.Op != "ack":
			r.failed, r.wrong = 1, true
		default:
			f.acks[lane][fr.tenant]++
		}
		r.payload += int64(len(reply.Data))
		return r
	}
	res, err := f.rt.DoBatch(tenant, fr.key, f.readings[lane][i], f.results[lane][:0], time.Time{})
	if traced {
		f.routerSpan(lane, start)
	}
	f.results[lane] = res
	if err != nil {
		f.noteErr(err)
		r.failed = n
		return r
	}
	if len(res) != n {
		r.failed, r.wrong = n, true
		return r
	}
	for _, br := range res {
		switch {
		case br.Err != nil:
			r.failed++
		case br.Msg.Op != "ack":
			r.failed++
			r.wrong = true
		default:
			f.acks[lane][fr.tenant]++
		}
		r.payload += int64(len(br.Msg.Data))
	}
	return r
}

func (f *fleetInst) routerSpan(lane int, start time.Time) {
	d := time.Since(start)
	f.tr.router.add(d)
	if p := f.tr.cur[lane].Load(); p != 0 {
		f.tr.record(span{start: f.tr.since(start), dur: int64(d), id: f.tr.newID(), parent: p, req: p, layer: lRouter})
	}
}

func (f *fleetInst) noteErr(err error) {
	if errors.Is(err, cluster.ErrNoReplicas) {
		f.noReplica.Add(1)
	}
}

func (f *fleetInst) counters() counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.retired
	for _, name := range f.order {
		cell := f.cells[name]
		for _, ri := range cell.pool.Replicas() {
			c.addStub(ri.Stub)
		}
		for replica, sys := range cell.systems {
			c.addReplica(cell.net, replica, sys)
		}
	}
	for _, rs := range f.met.Fleets() {
		c.failovers += rs.Failovers
		c.retries += rs.Retries
	}
	for _, ts := range f.rt.Tenants() {
		c.quotaDenies += ts.Denied
	}
	c.shardEpoch = f.rt.Epoch()
	c.noReplica = f.noReplica.Load()
	seq, _ := f.jnl.Head()
	c.journalEvents = int64(seq + f.jnl.Dropped())
	return c
}

// retire folds a replica the operator removed into f.retired and drops
// the benchmark's reference to it, so a long churn run does not keep every
// replica it ever built. stub is the replica's last stub snapshot. Caller
// holds f.mu.
func (f *fleetInst) retire(c *fleetCell, replica string, stub distributed.StubStats) {
	f.retired.addStub(stub)
	f.retired.addReplica(c.net, replica, c.systems[replica])
	delete(c.systems, replica)
}

// addReplica adds one replica's core and network counters: its system's
// and those of both ends of its secure channel.
func (c *counters) addReplica(net *netsim.Network, replica string, sys *core.System) {
	st := sys.Stats()
	c.invocations += st.Invocations
	c.virtualNs += st.VirtualNs
	c.timeouts += st.Timeouts
	c.overloads += st.Overloads
	for _, ep := range []string{replica, "lb-" + replica} {
		ns := net.StatsFor(ep)
		c.datagrams += ns.Sent
		c.wireBytes += ns.SentBytes
	}
}

func (c *counters) addStub(st distributed.StubStats) {
	c.stubIssued += st.Issued
	c.stubRecords += st.Records
	c.coalRecords += st.CoalescedRecords
	c.coalSubs += st.CoalescedSubs
	c.stubOrphans += st.Orphans
	c.stubMaxInflight = max(c.stubMaxInflight, st.MaxInflight)
}

// audit compares the readings every anonymizer accepted, per tenant, with
// the acks the gateways received, and checks each live replica stub's
// exactly-once accounting.
func (f *fleetInst) audit() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.opErrs) > 0 {
		return fmt.Errorf("fleet-churn operator: %d steps failed, first: %w", len(f.opErrs), f.opErrs[0])
	}
	var server, client [fleetTenants]int64
	for _, a := range f.anons {
		for t := range server {
			server[t] += a.perTenant[t].Load()
		}
	}
	for _, acks := range f.acks {
		for t, n := range acks {
			client[t] += n
		}
	}
	for t := range server {
		if server[t] != client[t] {
			return fmt.Errorf("fleet audit: tenant %s: %d readings accepted by the fleet, %d acked to gateways",
				tenantNames[t], server[t], client[t])
		}
	}
	for _, name := range f.order {
		for _, ri := range f.cells[name].pool.Replicas() {
			if err := stubBalanced("fleet stub "+ri.Name, ri.Stub); err != nil {
				return err
			}
		}
	}
	return nil
}

// fleetChurn is fleet-ingest with an operator beside the gateway.
type fleetChurn struct{ *fleetInst }

// churn runs rolling-replace steps back to back until stop closes,
// finishing the step in progress so every cell ends with fleetReplicas
// members.
func (f fleetChurn) churn(stop <-chan struct{}) {
	for step := 1; ; step++ {
		select {
		case <-stop:
			return
		default:
		}
		if err := f.step(step); err != nil {
			f.mu.Lock()
			f.opErrs = append(f.opErrs, err)
			f.mu.Unlock()
			return
		}
	}
}

func (f fleetChurn) step(step int) error {
	if step%churnEvery == 0 {
		if err := f.toggleCell(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	c := f.cells[f.order[step%len(f.order)]]
	f.mu.Unlock()
	spec, err := f.replica(c)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = c.pool.Join(spec)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("join %s: %w", spec.Name, err)
	}
	oldest := c.members[0]
	// The pool forgets a replica once it has left: keep its stub's last
	// counters. Calls still draining when this snapshot is taken are not
	// in it.
	var last distributed.StubStats
	for _, ri := range c.pool.Replicas() {
		if ri.Name == oldest {
			last = ri.Stub
		}
	}
	err = c.pool.Leave(oldest)
	t2 := time.Now()
	c.clearCtl()
	if err != nil {
		return fmt.Errorf("leave %s: %w", oldest, err)
	}
	c.members = append(c.members[1:], spec.Name)
	delete(c.ctl, oldest)
	f.mu.Lock()
	f.retire(c, oldest, last)
	f.trans = append(f.trans, transition{t0, t1.Sub(t0)}, transition{t1, t2.Sub(t1)})
	f.mu.Unlock()
	return nil
}

// toggleCell joins a third shard cell, or removes the one it added last.
func (f fleetChurn) toggleCell() error {
	f.mu.Lock()
	n := len(f.order)
	last := f.order[n-1]
	f.mu.Unlock()
	if n == fleetCells {
		f.mu.Lock()
		f.extra++
		name := fmt.Sprintf("cell-x%d", f.extra)
		f.mu.Unlock()
		return f.addCell(name)
	}
	if _, err := f.rt.Leave(last); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.cells[last]
	for _, ri := range c.pool.Replicas() {
		f.retire(c, ri.Name, ri.Stub)
	}
	delete(f.cells, last)
	f.order = f.order[:n-1]
	return nil
}

// transitionsIn returns the sorted durations of the transitions that
// started within [from, to).
func (f *fleetInst) transitionsIn(from, to time.Time) []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []time.Duration
	for _, t := range f.trans {
		if !t.at.Before(from) && t.at.Before(to) {
			out = append(out, t.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
