package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	if a, b := genRPC(7, 3, 64), genRPC(7, 3, 64); !reflect.DeepEqual(a, b) {
		t.Error("genRPC: same seed and lane gave different payloads")
	}
	if a, b := genRPC(7, 3, 64), genRPC(8, 3, 64); reflect.DeepEqual(a, b) {
		t.Error("genRPC: seeds 7 and 8 gave the same payloads")
	}
	if a, b := genRPC(7, 0, 64), genRPC(7, 1, 64); reflect.DeepEqual(a, b) {
		t.Error("genRPC: lanes 0 and 1 gave the same payloads")
	}
	if a, b := genFleet(7, 1, 64), genFleet(7, 1, 64); !reflect.DeepEqual(a, b) {
		t.Error("genFleet: same seed and lane gave different frames")
	}
	if a, b := genFleet(7, 1, 64), genFleet(9, 1, 64); reflect.DeepEqual(a, b) {
		t.Error("genFleet: seeds 7 and 9 gave the same frames")
	}
	if a, b := genDrafts(7, 0, 64), genDrafts(7, 0, 64); !reflect.DeepEqual(a, b) {
		t.Error("genDrafts: same seed gave different drafts")
	}
}

func TestGeneratedInputShapes(t *testing.T) {
	var classes [len(payloadSizes)]int
	calls := genRPC(1, 0, 20000)
	for _, c := range calls {
		if len(c.data) != payloadSizes[c.class] {
			t.Fatalf("payload of class %d has %d bytes", c.class, len(c.data))
		}
		classes[c.class]++
	}
	for i, n := range classes {
		got := 100 * float64(n) / float64(len(calls))
		if d := got - float64(payloadShares[i]); d > 1.5 || d < -1.5 {
			t.Errorf("size %d: %.1f%% of payloads, want about %d%%", payloadSizes[i], got, payloadShares[i])
		}
	}

	frames := genFleet(1, 0, 20000)
	var tenants [fleetTenants]int
	singles, full := 0, 0
	for _, f := range frames {
		n := len(f.readings)
		if n < 1 || n > fleetMaxFrame {
			t.Fatalf("frame of %d readings", n)
		}
		if n == 1 {
			singles++
		}
		if n == fleetMaxFrame {
			full++
		}
		tenants[f.tenant]++
		bytes := 0
		for _, r := range f.readings {
			if r[0] != 't' || r[len(r)-2] != '=' || int(r[1]-'0')*10+int(r[2]-'0') != f.tenant {
				t.Fatalf("reading %q does not belong to tenant %d", r, f.tenant)
			}
			bytes += len(r)
		}
		if bytes != f.bytes {
			t.Fatalf("frame bytes %d, readings hold %d", f.bytes, bytes)
		}
	}
	if singles == 0 || full == 0 {
		t.Errorf("frame sizes miss an end of the range: %d single, %d full", singles, full)
	}
	if tenants[0] <= tenants[fleetTenants-1] || tenants[fleetTenants-1] == 0 {
		t.Errorf("tenant counts are not Zipf-skewed over every tenant: %v", tenants)
	}
}

func TestPercentile(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	sortDurations(d)
	cases := []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51}}
	for _, c := range cases {
		if got, n := percentile(d, c.q); got != c.want || n != 100 {
			t.Errorf("percentile(1..100, %v) = %v, n=%d; want %v, n=100", c.q, got, n, c.want)
		}
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile of no samples = %v, n=%d", got, n)
	}
	if got, n := percentile([]time.Duration{7}, 0.99); got != 7 || n != 1 {
		t.Errorf("percentile of one sample = %v, n=%d", got, n)
	}
	// A p99 needs ten samples beyond it: 1000 samples, not 999.
	if tailOK(0.99, 999) || !tailOK(0.99, 1000) {
		t.Error("tailOK(0.99) must need at least 1000 samples")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456, 1 << 30, 1 << 40} {
		lo, w := bucketSpan(bucketOf(ns))
		if ns < 1<<35 && (float64(ns) < lo || float64(ns) >= lo+w) {
			t.Errorf("%d ns lands in bucket [%v, %v)", ns, lo, lo+w)
		}
		if ns >= histSub && w/lo > 1.0/histSub {
			t.Errorf("bucket of %d ns is %v wide at %v", ns, w, lo)
		}
	}
	h := make(hist, histSize)
	var exact []time.Duration
	r := laneRand(5, 0, 9)
	for i := 0; i < 50000; i++ {
		d := time.Duration(100 + r.ExpFloat64()*20000)
		h.add(d)
		exact = append(exact, d)
	}
	sortDurations(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, n := h.quantile(q)
		want, _ := percentile(exact, q)
		if n != len(exact) {
			t.Errorf("q=%v: n=%d, want %d", q, n, len(exact))
		}
		if rel := float64(got-want) / float64(want); rel > 0.01 || rel < -0.01 {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, want)
		}
	}
	one := make(hist, histSize)
	one.add(42)
	if got, n := one.quantile(0.99); n != 1 || got < 42 || got > 43 {
		t.Errorf("single sample 42ns: %v, n=%d", got, n)
	}
	if got, n := make(hist, histSize).quantile(0.5); got != 0 || n != 0 {
		t.Errorf("empty histogram: %v, n=%d", got, n)
	}
}

// TestSparseWindowFallsBackToWholePhase: a window too thin for a p99 (a
// stalled load) must not fail the run or drop out of the percentiles.
func TestSparseWindowFallsBackToWholePhase(t *testing.T) {
	p := &phase{win: time.Second, winLat: newHists(3), winOps: []int64{2000, 5, 2000},
		winFail: make([]int64, 3), winCPU: make([]time.Duration, 3), ops: 4005, kindLat: newHists(maxKinds)}
	for i := 0; i < 2000; i++ {
		p.winLat[0].add(time.Microsecond)
		p.winLat[2].add(time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		p.winLat[1].add(time.Second)
	}
	r := newReport("local-mail", 1, nil, p)
	r.endToEnd(p, time.Millisecond, 7)
	if !r.out.Correct || r.windows != 1 {
		t.Fatalf("correct=%t windows=%d; want true, 1", r.out.Correct, r.windows)
	}
	if got := r.out.Metrics["latency_p99_us"].Value; got < 0.99 || got > 1.01 {
		t.Errorf("p99 over the whole phase = %v us, want 1", got)
	}
	if r.samples["latency_p99_us"] != 4005 {
		t.Errorf("p99 rests on %d samples, want 4005", r.samples["latency_p99_us"])
	}
}

func TestCPUTimeCountsBusyThreads(t *testing.T) {
	start, wall := cpuTime(), time.Now()
	x := 0
	for time.Since(wall) < 100*time.Millisecond {
		x++
	}
	used, el := cpuTime()-start, time.Since(wall)
	if used < 60*time.Millisecond || used > el+50*time.Millisecond {
		t.Errorf("one busy thread for %v used %v of CPU (x=%d)", el, used, x)
	}
	if rssPeakMB() <= 0 {
		t.Error("peak RSS not reported")
	}
}

// metricNames reads the benchmark's declared metric names.
func metricNames(t *testing.T) (endToEnd, perLayer []string, workloadList []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range spec.Workloads {
		workloadList = append(workloadList, w.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer, workloadList
}

func keysOf(m map[string]metric) []string { return sortedKeys(m) }

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks replies, audits, and that each mode prints exactly the
// metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers, declared := metricNames(t)
	for _, w := range declared {
		if _, err := lookup(w); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := untracedRun(w, 3, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if rep.auditErr != nil || !rep.out.Correct {
				t.Fatalf("untraced: correct=%t, check: %v", rep.out.Correct, rep.auditErr)
			}
			if w.name != "fleet-churn" && rep.out.Failed != 0 {
				t.Errorf("untraced: %d of %d ops failed", rep.out.Failed, rep.out.Attempted)
			}
			if got := keysOf(rep.out.Metrics); !reflect.DeepEqual(got, e2e) {
				t.Errorf("untraced metrics %v, BENCHMARK.json declares %v", got, e2e)
			}
			for k, m := range rep.out.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", k, m.Value)
				}
			}

			rep, err = tracedRun(w, 3, 400*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if rep.auditErr != nil || !rep.out.Correct {
				t.Fatalf("traced: correct=%t, check: %v", rep.out.Correct, rep.auditErr)
			}
			if got := keysOf(rep.out.Metrics); !reflect.DeepEqual(got, layers) {
				t.Errorf("traced metrics %v, BENCHMARK.json declares %v", got, layers)
			}
		})
	}
}

func TestAnalyzeSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, layer: lDeliver, dur: 100},
		{id: 2, parent: 1, layer: lHandle, dur: 90},
		{id: 3, parent: 2, layer: lCall, dur: 50},
		{id: 4, parent: 3, layer: lHandle, dur: 45},
		{id: benchIDBit | 1, layer: lPump, dur: 30},
	}
	st := analyze(spans)
	// Crossings: deliver 100-90, call 50-45. Handlers: 90-50, 45.
	if st.dispatchNs != 15 || st.handleSelfNs != 85 {
		t.Errorf("dispatch %d, handler self %d; want 15, 85", st.dispatchNs, st.handleSelfNs)
	}
	if st.n[lHandle] != 2 || st.n[lPump] != 1 {
		t.Errorf("counted %d handler and %d pump spans; want 2 and 1", st.n[lHandle], st.n[lPump])
	}
}
