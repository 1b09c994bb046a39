package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one client request.
type result struct {
	ops     int   // workload ops the request carried (readings on the fleet)
	failed  int   // ops refused or lost
	wrong   bool  // a reply did not match the expected output
	payload int64 // application bytes sent plus received
	kind    uint8 // workload-defined input class (budget, size class, tenant)
}

// counters are the program's own cumulative counters, read at phase
// boundaries; a phase reports their differences.
type counters struct {
	invocations, virtualNs, timeouts, overloads int64 // core.Stats, summed over systems
	stubIssued, stubRecords, coalRecords        uint64
	coalSubs, stubOrphans                       uint64
	stubMaxInflight                             int64
	datagrams, wireBytes                        int64 // netsim, every endpoint
	failovers, retries, quotaDenies             int64
	shardEpoch                                  uint64
	journalEvents, noReplica                    int64
}

// instance is one set-up workload: a closed loop of lanes() clients.
type instance interface {
	lanes() int
	// do issues lane's next request. Each lane is driven by one goroutine.
	do(lane int) result
	counters() counters
	// audit checks the program's end state once load has stopped.
	audit() error
}

// churner is an instance with control-plane work running beside the
// clients for the length of a phase.
type churner interface {
	// churn runs until stop is closed and returns once it has stopped.
	churn(stop <-chan struct{})
}

// phase is what one timed stretch of load measured. The stretch is cut
// into equal windows; end-to-end metrics are medians over the windows, so
// a burst of interference from outside the benchmark moves a window or
// two and not the result.
type phase struct {
	wall     time.Duration
	cpu      time.Duration
	win      time.Duration
	winLat   []hist // latency per window
	kindLat  []hist // latency per request kind, without kindSingle (see fleet.go)
	kindReqs [256]int64
	winOps   []int64
	winFail  []int64
	winCPU   []time.Duration // CPU time used in each window
	ops      int64
	failed   int64
	wrong    int64
	payload  int64
	from     time.Time
	to       time.Time
	mem      runtime.MemStats // difference over the phase
	gorPeak  int
	before   counters
	after    counters
}

// maxKinds bounds the request kinds a workload may use for latency
// breakdowns (fleet tenants are the most).
const maxKinds = fleetTenants

// runPhase drives every lane closed-loop for d, cut into windows of about
// a second: each client sends its next request only when the previous one
// returned. With tr set, each request is a client span, and the phase also
// ends early once the span slab is nearly full. With sample set, the
// goroutine count is sampled.
func runPhase(inst instance, d time.Duration, tr *tracer, sample bool) *phase {
	n := inst.lanes()
	nWin := max(1, int((d+time.Second/2)/time.Second))
	p := &phase{
		win: d / time.Duration(nWin), winOps: make([]int64, nWin), winFail: make([]int64, nWin),
		winCPU: make([]time.Duration, nWin),
	}
	p.winLat = newHists(nWin)
	p.kindLat = newHists(maxKinds)
	var ops, failed, wrong, payload atomic.Int64
	var merge sync.Mutex
	var memBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	p.before = inst.counters()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	if c, ok := inst.(churner); ok {
		bg.Add(1)
		go func() {
			defer bg.Done()
			c.churn(stop)
		}()
	}
	var peak atomic.Int64
	if sample {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if g := int64(runtime.NumGoroutine()); g > peak.Load() {
						peak.Store(g)
					}
				}
			}
		}()
	}

	if tr != nil {
		tr.on.Store(true)
	}
	cpu0 := cpuTime()
	p.from = time.Now()
	end := p.from.Add(d)
	cpuAt := make([]time.Duration, nWin+1)
	cpuAt[0] = cpu0
	bg.Add(1)
	go func() {
		defer bg.Done()
		for w := 1; w < nWin; w++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(p.from.Add(time.Duration(w) * p.win))):
				cpuAt[w] = cpuTime()
			}
		}
	}()
	var wg sync.WaitGroup
	for lane := 0; lane < n; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			winLat, kindLat := newHists(nWin), newHists(maxKinds)
			var kindReqs [256]int64
			winOps := make([]int64, nWin)
			winFail := make([]int64, nWin)
			var o, f, w, b, seq int64
			for {
				t0 := time.Now()
				if !t0.Before(end) || (tr != nil && tr.full()) {
					break
				}
				var id uint64
				if tr != nil && seq%reqSample == 0 {
					id = tr.newID()
				}
				if tr != nil {
					tr.cur[lane].Store(id)
				}
				seq++
				r := inst.do(lane)
				el := time.Since(t0)
				if id != 0 {
					tr.record(span{start: tr.since(t0), dur: int64(el), id: id, req: id, layer: lClient})
				}
				wi := min(int((t0.Add(el).Sub(p.from))/p.win), nWin-1)
				winLat[wi].add(el)
				kindLat[int(r.kind&^kindSingle)%maxKinds].add(el)
				kindReqs[r.kind]++
				winOps[wi] += int64(r.ops)
				winFail[wi] += int64(r.failed)
				o += int64(r.ops)
				f += int64(r.failed)
				b += r.payload
				if r.wrong {
					w++
				}
			}
			merge.Lock()
			for i := range winOps {
				p.winLat[i].merge(winLat[i])
				p.winOps[i] += winOps[i]
				p.winFail[i] += winFail[i]
			}
			for i := range kindLat {
				p.kindLat[i].merge(kindLat[i])
			}
			for i, c := range kindReqs {
				p.kindReqs[i] += c
			}
			merge.Unlock()
			ops.Add(o)
			failed.Add(f)
			wrong.Add(w)
			payload.Add(b)
		}(lane)
	}
	wg.Wait()
	p.to = time.Now()
	cpuEnd := cpuTime()
	p.cpu = cpuEnd - cpu0
	if tr != nil {
		tr.on.Store(false)
	}
	close(stop)
	bg.Wait()
	cpuAt[nWin] = cpuEnd
	for w := range p.winCPU {
		if cpuAt[w+1] >= cpuAt[w] && (w == 0 || cpuAt[w] > 0) {
			p.winCPU[w] = cpuAt[w+1] - cpuAt[w]
		}
	}

	p.wall = p.to.Sub(p.from)
	p.ops, p.failed, p.wrong, p.payload = ops.Load(), failed.Load(), wrong.Load(), payload.Load()
	p.after = inst.counters()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	p.mem.Mallocs = memAfter.Mallocs - memBefore.Mallocs
	p.mem.TotalAlloc = memAfter.TotalAlloc - memBefore.TotalAlloc
	p.mem.NumGC = memAfter.NumGC - memBefore.NumGC
	p.gorPeak = int(peak.Load())
	return p
}

// newHists allocates n histograms in one block.
func newHists(n int) []hist {
	block := make(hist, n*histSize)
	out := make([]hist, n)
	for i := range out {
		out[i] = block[i*histSize : (i+1)*histSize]
	}
	return out
}

// requests counts the client requests of the phase.
func (p *phase) requests() int64 {
	var n int64
	for _, c := range p.kindReqs {
		n += c
	}
	return n
}

// kindShare is the share of requests whose kind satisfies keep.
func (p *phase) kindShare(keep func(uint8) bool) float64 {
	var n int64
	for k, c := range p.kindReqs {
		if keep(uint8(k)) {
			n += c
		}
	}
	return perOp(float64(n), p.requests())
}
