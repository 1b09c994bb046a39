// Command perfbench is the repository's benchmark: it sets up one named
// workload, drives it closed-loop for a fixed time, checks every reply,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// ledger) with their units and sample counts. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload rpc-pipelined --seed 7 --seconds 10 --trace 0
//
// Workloads, metrics and the layer table are described in LEDGER.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupFunc builds a fresh instance of the program over inputs already
// drawn; tr, when set, is installed as the traced run's hooks. Only the
// set-up is timed as setup_s, not the drawing of inputs.
type setupFunc func(tr *tracer) (instance, error)

// workloadDef names a workload; prepare draws its inputs from the seed.
type workloadDef struct {
	name    string
	prepare func(seed int64) setupFunc
}

var workloads = []workloadDef{
	{"local-mail", func(seed int64) setupFunc {
		in := genMail(seed)
		return func(tr *tracer) (instance, error) { return newMail(in, tr) }
	}},
	{"rpc-pipelined", func(seed int64) setupFunc {
		in := genRPCLanes(seed)
		return func(tr *tracer) (instance, error) { return newRPC(seed, in, tr) }
	}},
	{"fleet-ingest", func(seed int64) setupFunc {
		in := genFleetLanes(seed, 2)
		return func(tr *tracer) (instance, error) { return newFleet(seed, in, tr) }
	}},
	{"fleet-churn", func(seed int64) setupFunc {
		in := genFleetLanes(seed, 1)
		return func(tr *tracer) (instance, error) {
			f, err := newFleet(seed, in, tr)
			if err != nil {
				return nil, err
			}
			return fleetChurn{f}, nil
		}
	}},
}

const (
	// A run sets the workload up at least minSetups times and keeps going
	// while the set-ups have taken less than setupBudget in total, up to
	// maxSetups; setup_s is the median.
	minSetups    = 7
	maxSetups    = 101
	setupBudget  = time.Second
	spanCapacity = 600_000 // spans one traced phase may hold
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds of load")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace takes 0 or 1 and -seconds must be positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var out *output
	var err error
	if cfg.workload == "all" {
		out, err = runAll(cfg)
	} else {
		out, err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// runOne runs one workload in this process and reports it.
func runOne(cfg config) (*output, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var rep *report
	if cfg.trace {
		rep, err = tracedRun(w, cfg.seed, d)
	} else {
		rep, err = untracedRun(w, cfg.seed, d)
	}
	if err != nil {
		return nil, err
	}
	rep.print(os.Stdout, cfg)
	if err := rep.save(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record not written:", err)
	}
	return rep.out, nil
}

// runAll runs every workload in turn, each in a child process of its own
// so peak memory and set-up are measured per workload, and merges their
// results under "<workload>.<metric>" names.
func runAll(cfg config) (*output, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := &output{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		sub, err := runChild(exe, w.name, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all.Correct = all.Correct && sub.Correct
		all.Attempted += sub.Attempted
		all.Failed += sub.Failed
		for k, v := range sub.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	return all, nil
}

// setupTimes builds the workload repeatedly (see minSetups) and returns
// the last instance, the median set-up time and the number of set-ups.
// Earlier instances are dropped for the garbage collector.
func setupTimes(w workloadDef, seed int64) (instance, time.Duration, int, error) {
	setup := w.prepare(seed)
	var times []float64
	var inst instance
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = setup(nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		el := time.Since(t0)
		total += el
		times = append(times, float64(el))
	}
	return inst, time.Duration(median(times)), len(times), nil
}

// warmup is the untimed load before a measured phase: long enough for
// pools, caches and the adaptive coalescing window to settle.
func warmup(d time.Duration) time.Duration {
	return min(max(d/10, 300*time.Millisecond), 2*time.Second)
}

// warm runs the untimed load.
func warm(inst instance, d time.Duration) { runPhase(inst, warmup(d), nil, false) }

func untracedRun(w workloadDef, seed int64, d time.Duration) (*report, error) {
	inst, setup, setups, err := setupTimes(w, seed)
	if err != nil {
		return nil, err
	}
	warm(inst, d)
	p := runPhase(inst, d, nil, false)
	rep := newReport(w.name, seed, inst, p)
	rep.auditErr = inst.audit()
	rep.endToEnd(p, setup, setups)
	return rep, nil
}

func tracedRun(w workloadDef, seed int64, d time.Duration) (*report, error) {
	half := d / 2
	setup := w.prepare(seed)
	inst, err := setup(nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	warm(inst, half)
	plain := runPhase(inst, half, nil, true)
	rep := newReport(w.name, seed, inst, plain)
	rep.auditErr = inst.audit()

	tr := newTracer(spanCapacity, inst.lanes())
	tinst, err := setup(tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	warm(tinst, half)
	traced := runPhase(tinst, half, tr, false)
	if err := tinst.audit(); err != nil && rep.auditErr == nil {
		rep.auditErr = fmt.Errorf("traced run: %w", err)
	}
	rep.perLayer(plain, traced, tr)
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		if err := tr.dump(fmt.Sprintf("%s/spans-%s.tsv", outDir, w.name)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		}
	}
	return rep, nil
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
