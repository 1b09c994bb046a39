package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir holds run records and span dumps, relative to the working
// directory (the repository root when run through run.sh).
const outDir = ".bench_out"

type report struct {
	workload  string
	seed      int64
	inst      instance
	out       *output
	samples   map[string]int // sample count behind each timing metric
	auditErr  error
	errorRate float64
	windows   int                  // windows the latency medians were taken over
	inputs    map[string]float64   // measured share of each input property
	series    map[string][]float64 // per-window values behind each windowed median
	spans     string               // traced run: spans stored and lost
}

func newReport(workload string, seed int64, inst instance, p *phase) *report {
	return &report{
		workload: workload,
		seed:     seed,
		inst:     inst,
		out: &output{
			Correct:   p.wrong == 0,
			Attempted: p.ops,
			Failed:    p.failed,
			Metrics:   map[string]metric{},
		},
		samples: map[string]int{},
		inputs:  inputShares(workload, p),
	}
}

// inputShares measures, over the requests a phase actually sent, the
// share of each input property the workload varies: budgeted requests
// (local-mail), payload size classes (rpc-pipelined), one-reading frames
// and the busiest tenant's frames (fleet).
func inputShares(workload string, p *phase) map[string]float64 {
	out := map[string]float64{}
	switch {
	case workload == "local-mail":
		out["budgeted_share"] = p.kindShare(func(k uint8) bool { return k == kindBudgeted })
	case workload == "rpc-pipelined":
		for i, size := range payloadSizes {
			out[fmt.Sprintf("payload_%d_share", size)] = p.kindShare(func(k uint8) bool { return int(k) == i })
		}
	case strings.HasPrefix(workload, "fleet"):
		singles, top, _ := fleetShape(p)
		out["size1_share"] = singles
		out["top_tenant_share"] = top
	}
	return out
}

func (r *report) set(name string, v float64, unit string) {
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// endToEnd fills the untraced run's metrics: what a user of the system
// sees. Throughput, latency percentiles and CPU per op are each the
// median over the phase's windows of that window's figure. Should a
// window hold too few requests for a 99th percentile (a load stalled for
// most of a second), both percentiles are cut from the whole phase
// instead, so the stall is not left out.
func (r *report) endToEnd(p *phase, setup time.Duration, setups int) {
	if r.auditErr != nil {
		r.out.Correct = false
	}
	var tput, p50s, p99s, cpus []float64
	all := make(hist, histSize)
	sparse := false
	for w, lat := range p.winLat {
		v50, n := lat.quantile(0.50)
		v99, _ := lat.quantile(0.99)
		all.merge(lat)
		sparse = sparse || !tailOK(0.99, n)
		tput = append(tput, float64(p.winOps[w]-p.winFail[w])/p.win.Seconds())
		p50s = append(p50s, us(v50))
		p99s = append(p99s, us(v99))
		if p.winCPU[w] > 0 && p.winOps[w] > 0 {
			cpus = append(cpus, us(p.winCPU[w])/float64(p.winOps[w]))
		}
	}
	p50, p99 := median(p50s), median(p99s)
	if sparse {
		v50, _ := all.quantile(0.50)
		v99, _ := all.quantile(0.99)
		p50, p99 = us(v50), us(v99)
		r.windows = 1
	} else {
		r.windows = len(p50s)
	}
	samples := all.count()
	if len(cpus) == 0 {
		cpus = append(cpus, perOp(us(p.cpu), p.ops))
	}
	r.series = map[string][]float64{"throughput_ops": tput, "latency_p50_us": p50s, "latency_p99_us": p99s, "cpu_us_per_op": cpus}
	r.set("throughput_ops", median(tput), "1/s")
	r.set("latency_p50_us", p50, "us")
	r.set("latency_p99_us", p99, "us")
	r.samples["latency_p50_us"], r.samples["latency_p99_us"] = samples, samples
	r.set("cpu_us_per_op", median(cpus), "us")
	r.set("setup_s", setup.Seconds(), "s")
	r.samples["setup_s"] = setups
	r.set("rss_peak_mb", rssPeakMB(), "MB")
	// error_rate is printed beside them but is not one of the benchmark's
	// end-to-end metrics: it is 0 on every workload BENCHMARK.json lists,
	// and the result line already carries attempted and failed.
	r.errorRate = perOp(float64(p.failed), p.ops)
}

// perLayer fills the traced run's ledger. Counter ratios come from the
// untraced phase (plain); span-derived times from the traced phase.
func (r *report) perLayer(plain, traced *phase, tr *tracer) {
	if r.auditErr != nil {
		r.out.Correct = false
	}
	r.out.Correct = r.out.Correct && traced.wrong == 0
	ops := plain.ops
	b, a := plain.before, plain.after
	st := analyze(tr.stored())
	tops := traced.ops
	r.spans = fmt.Sprintf("spans stored=%d lost=%d traced_seconds=%.2f", len(tr.stored()), tr.lost.Load(), traced.wall.Seconds())

	// core: the crossing and handler self times come from the sampled
	// spans; the policy checks made inside handlers are summed over every
	// invocation of the traced phase, so they come off per hop.
	hops := st.n[lDeliver] + st.n[lCall]
	invocations := traced.after.invocations - traced.before.invocations
	handlerSelf := perOp(float64(st.handleSelfNs), st.n[lHandle]) - perOp(float64(tr.policy.ns.Load()), invocations)
	invPerOp := perOp(float64(a.invocations-b.invocations), ops)
	r.set("core.dispatch_ns_per_hop", perOp(float64(st.dispatchNs), hops), "ns")
	r.set("core.handler_self_ns_per_hop", handlerSelf, "ns")
	var bp99, up50 time.Duration
	var bn, un int
	if r.workload == "local-mail" {
		bp99, bn = plain.kindLat[kindBudgeted].quantile(0.99)
		up50, un = plain.kindLat[0].quantile(0.50)
	}
	r.set("core.budgeted_p99_us", us(bp99), "us")
	r.set("core.unbudgeted_p50_us", us(up50), "us")
	r.samples["core.budgeted_p99_us"], r.samples["core.unbudgeted_p50_us"] = bn, un
	r.set("core.goroutines_peak", float64(plain.gorPeak), "count")
	r.set("core.invocations_per_op", invPerOp, "count")
	r.set("core.modeled_ns_per_op", perOp(float64(a.virtualNs-b.virtualNs), ops), "ns")
	r.set("core.timeouts", float64(a.timeouts-b.timeouts), "count")
	r.set("core.overloads", float64(a.overloads-b.overloads), "count")

	// policy
	checks := tr.policy.n.Load() + tr.policyDeliver.n.Load()
	r.set("policy.checks_per_op", perOp(float64(checks), tops), "count")
	r.set("policy.check_ns", perOp(float64(tr.policy.ns.Load()+tr.policyDeliver.ns.Load()), checks), "ns")
	r.set("policy.denies", float64(tr.policyDenies.Load()), "count")

	// distributed
	issued := int64(a.stubIssued) - int64(b.stubIssued)
	records := int64(a.stubRecords) - int64(b.stubRecords)
	r.set("distributed.stub.records_per_call", perOp(float64(records), issued), "count")
	r.set("distributed.stub.subs_per_record", perOp(float64(int64(a.coalSubs)-int64(b.coalSubs)), int64(a.coalRecords)-int64(b.coalRecords)), "count")
	tcalls := int64(traced.after.stubIssued) - int64(traced.before.stubIssued)
	pumps, pumpNs := tr.dataPumps.n.Load(), tr.dataPumps.ns.Load()
	r.set("distributed.stub.calls_per_round", perOp(float64(tcalls), pumps), "count")
	r.set("distributed.stub.max_inflight", float64(a.stubMaxInflight), "count")
	r.set("distributed.stub.orphans", float64(int64(a.stubOrphans)-int64(b.stubOrphans)), "count")
	r.set("distributed.exporter.serve_us_per_round", perOp(float64(pumpNs)/1e3, pumps), "us")
	exporters := 1.0
	if strings.HasPrefix(r.workload, "fleet") {
		exporters = fleetCells * fleetReplicas
	}
	busy := float64(pumpNs+tr.ctlPumps.ns.Load()) / float64(traced.wall) / exporters
	r.set("distributed.exporter.busy_share", busy, "ratio")
	r.set("app.handler_ns_per_op", handlerSelf*invPerOp, "ns")

	// securechan / netsim
	wire := a.wireBytes - b.wireBytes
	r.set("securechan.records_per_op", perOp(float64(a.datagrams-b.datagrams), ops), "count")
	r.set("netsim.bytes_per_op", perOp(float64(wire), ops), "B")
	r.set("netsim.goodput_ratio", perOp(float64(plain.payload), wire), "ratio")

	// cluster
	backends := tr.backend.n.Load()
	r.set("cluster.self_us_per_request", perOp(float64(tr.backend.ns.Load()-pumpNs)/1e3, backends), "us")
	r.set("cluster.failovers", float64(a.failovers-b.failovers), "count")
	r.set("cluster.retries", float64(a.retries-b.retries), "count")
	r.set("cluster.no_replica_errors", float64(a.noReplica-b.noReplica), "count")
	var trans []time.Duration
	if f, ok := fleetOf(r.inst); ok {
		trans = f.transitionsIn(plain.from, plain.to)
	}
	tp50, tn := percentile(trans, 0.50)
	tp99, _ := percentile(trans, 0.99)
	r.set("cluster.transition_ms_p50", float64(tp50)/1e6, "ms")
	r.set("cluster.transition_ms_p99", float64(tp99)/1e6, "ms")
	r.samples["cluster.transition_ms_p50"], r.samples["cluster.transition_ms_p99"] = tn, tn
	r.set("cluster.handshakes", float64(tr.handshakes.Load()), "count")

	// shard
	reqs := plain.requests()
	var perFrame, singles, tenantP99 float64
	if strings.HasPrefix(r.workload, "fleet") {
		perFrame = perOp(float64(ops), reqs)
		singles, _, tenantP99 = fleetShape(plain)
	}
	r.set("shard.route_ns_per_request", perOp(float64(tr.router.ns.Load()-tr.backend.ns.Load()), tr.router.n.Load()), "ns")
	r.set("shard.readings_per_frame", perFrame, "count")
	r.set("shard.single_share", singles, "ratio")
	r.set("shard.tenant_p99_max_over_median", tenantP99, "ratio")
	r.set("shard.quota_denies", float64(a.quotaDenies-b.quotaDenies), "count")
	r.set("shard.rebalances", float64(int64(a.shardEpoch)-int64(b.shardEpoch)), "count")

	// journal
	nTrans := int64(len(trans)) + int64(a.shardEpoch) - int64(b.shardEpoch)
	r.set("journal.events_per_transition", perOp(float64(a.journalEvents-b.journalEvents), nTrans), "count")
	r.set("journal.record_ns", perOp(float64(tr.journal.ns.Load()), tr.journal.n.Load()), "ns")

	// telemetry
	r.set("telemetry.hook_calls_per_op", perOp(float64(tr.hooks.n.Load()), tops), "count")
	r.set("telemetry.hook_ns_per_op", perOp(float64(tr.hooks.ns.Load()), tops), "ns")

	// runtime
	r.set("runtime.allocs_per_op", perOp(float64(plain.mem.Mallocs), ops), "count")
	r.set("runtime.alloc_bytes_per_op", perOp(float64(plain.mem.TotalAlloc), ops), "B")
	r.set("runtime.gc_per_kop", perOp(1000*float64(plain.mem.NumGC), ops), "count")

	// the run itself
	r.set("trace.overhead_cpu_us_per_op", perOp(us(traced.cpu), tops)-perOp(us(plain.cpu), ops), "us")
	r.set("error_rate", perOp(float64(plain.failed), ops), "ratio")
	r.set("latency_samples", float64(reqs), "count")
}

func fleetOf(inst instance) (*fleetInst, bool) {
	switch f := inst.(type) {
	case *fleetInst:
		return f, true
	case fleetChurn:
		return f.fleetInst, true
	}
	return nil, false
}

// fleetShape measures a fleet phase's input — the share of frames that
// held one reading and the share from the busiest tenant — and the spread
// of per-tenant tail latency: the largest per-tenant p99 over the median
// of per-tenant p99s, over tenants with enough frames for a p99.
func fleetShape(p *phase) (singles, topShare, p99Spread float64) {
	singles = p.kindShare(func(k uint8) bool { return k&kindSingle != 0 })
	var most int64
	var p99s []float64
	for t := 0; t < fleetTenants; t++ {
		most = max(most, p.kindReqs[t]+p.kindReqs[t|kindSingle])
		if v, n := p.kindLat[t].quantile(0.99); tailOK(0.99, n) {
			p99s = append(p99s, float64(v))
		}
	}
	topShare = perOp(float64(most), p.requests())
	if len(p99s) >= 2 {
		mx := 0.0
		for _, v := range p99s {
			mx = max(mx, v)
		}
		p99Spread = mx / median(p99s)
	}
	return singles, topShare, p99Spread
}

// print writes the human-readable report: every metric with its unit and,
// for timings, the sample count it rests on.
func (r *report) print(w io.Writer, cfg config) {
	mode := "end-to-end (untraced)"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	h := hostInfo()
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g %s\n", r.workload, r.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%t", r.out.Attempted, r.out.Failed, r.out.Correct)
	if !cfg.trace {
		fmt.Fprintf(w, " error_rate=%.6f windows=%d", r.errorRate, r.windows)
	}
	fmt.Fprintln(w)
	if r.auditErr != nil {
		fmt.Fprintf(w, "# check failed: %v\n", r.auditErr)
	}
	if r.spans != "" {
		fmt.Fprintf(w, "# %s\n", r.spans)
	}
	fmt.Fprint(w, "# input")
	for _, k := range sortedFloatKeys(r.inputs) {
		fmt.Fprintf(w, " %s=%.4f", k, r.inputs[k])
	}
	fmt.Fprintln(w)
	for _, k := range sortedKeys(r.out.Metrics) {
		m := r.out.Metrics[k]
		fmt.Fprintf(w, "%-44s %14.4f %-6s", k, m.Value, m.Unit)
		if n, ok := r.samples[k]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
}

func sortedFloatKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// save appends the run to outDir/runs.jsonl: host, seed, settings and
// every metric with its sample count.
func (r *report) save(cfg config) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Time     string               `json:"time"`
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Seconds  float64              `json:"seconds"`
		Trace    bool                 `json:"trace"`
		Host     host                 `json:"host"`
		Result   *output              `json:"result"`
		Samples  map[string]int       `json:"samples"`
		Inputs   map[string]float64   `json:"inputs"`
		Windows  map[string][]float64 `json:"windows,omitempty"`
		Check    string               `json:"check,omitempty"`
	}{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: r.workload, Seed: r.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, Host: hostInfo(), Result: r.out, Samples: r.samples,
		Inputs: r.inputs, Windows: r.series,
	}
	if r.auditErr != nil {
		rec.Check = r.auditErr.Error()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(outDir+"/runs.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChild runs one workload in a child process, copies its report to
// standard output and returns its result line.
func runChild(exe, workload string, cfg config) (*output, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &out, nil
}
