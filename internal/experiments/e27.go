package experiments

import (
	"fmt"
	"sort"
	"time"

	"lateral/internal/distributed"
)

// E27: wire-level frame coalescing + adaptive pipeline depth.
//
// Wire-v3 pipelining (E22) already amortizes ROUND TRIPS: d concurrent
// callers share each simulated RTT. But every caller still seals its own
// record, so the fleet pays one AEAD pass per call per direction no matter
// how deep the pipeline runs. Coalescing moves the amortization one layer
// down: callers racing into a stub during the same wire round share one
// sealed record (the cleartext header binds the sub-frame count and every
// correlation ID as associated data), so AEAD passes scale with wire
// rounds, not calls. The adaptive AIMD window controller sizes the
// coalescing window from observed backlog instead of a hand-tuned knob.
//
// The experiment sweeps the window ceiling at depth 64 and verifies the
// headline reduction (>= 8x fewer sealed records than the uncoalesced
// wire at the same depth), then sweeps the simulated RTT and verifies the
// adaptive default lands within 2x of the best fixed ceiling everywhere —
// the controller must not need per-deployment tuning.

// e27Sample is one measured configuration of the coalescing sweep.
type e27Sample struct {
	res e22Result
	p99 time.Duration
}

// e27Run measures one (window ceiling, rtt) point at the given depth and
// call count, capturing per-call latencies for the p99 cut.
func e27Run(depth, calls int, rtt time.Duration, window int) (e27Sample, error) {
	lat := make([]time.Duration, calls)
	res, err := e22RunCfg(depth, calls, rtt, window, lat)
	if err != nil {
		return e27Sample{}, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return e27Sample{res: res, p99: lat[(99*calls)/100]}, nil
}

// e27WindowLabel names a CoalesceMax value for table rows: 1 is the
// uncoalesced wire, 0 the adaptive default.
func e27WindowLabel(window int) string {
	switch window {
	case 0:
		return "adaptive"
	case 1:
		return "off"
	default:
		return fmt.Sprint(window)
	}
}

// e27Balanced is the per-row exactly-once verdict: every call resolved,
// nothing lost, orphaned, or left in flight, and the record accounting
// consistent with the window — the uncoalesced wire must seal one record
// per call, any real window must seal strictly fewer.
func e27Balanced(window, calls int, st distributed.StubStats) bool {
	balanced := st.Issued == uint64(calls) && st.Completed == uint64(calls) &&
		st.Failed == 0 && st.Inflight == 0 && st.Orphans == 0
	if window == 1 {
		return balanced && st.Records == uint64(calls) && st.CoalescedRecords == 0
	}
	return balanced && st.Records < uint64(calls) && st.CoalescedRecords > 0
}

// E27Coalescing measures what sharing sealed records buys over plain
// wire-v3 pipelining and that the adaptive window needs no tuning.
func E27Coalescing() (Table, error) {
	t := Table{
		ID:     "E27",
		Title:  "wire-level frame coalescing + adaptive window",
		Anchor: "§III-B trustworthy invocation across machines; cost of attested channels at scale",
		Header: []string{"window", "depth", "records", "subs/rec", "rounds", "p99", "verdict"},
	}

	const depth, calls = 64, 256
	const rtt = time.Millisecond

	// Window-ceiling sweep at depth 64: how the sealed-record count, the
	// sub-frames packed per record, and the caller-visible p99 move as the
	// coalescing window opens up.
	records := make(map[int]uint64)
	for _, window := range []int{1, 4, 16, 64, 0} {
		s, err := e27Run(depth, calls, rtt, window)
		if err != nil {
			return t, err
		}
		st := s.res.stats
		records[window] = st.Records
		subsPerRec := "1.00"
		if st.CoalescedRecords > 0 {
			subsPerRec = fmt.Sprintf("%.2f", float64(st.CoalescedSubs)/float64(st.CoalescedRecords))
		}
		t.AddRow(e27WindowLabel(window), depth, st.Records, subsPerRec, s.res.pumps,
			s.p99.Round(10*time.Microsecond), passFail(e27Balanced(window, calls, st)))
	}

	// The headline claim: at 64 concurrent callers the adaptive window
	// seals at least 8x fewer records — 8x fewer AEAD passes on the
	// request path — than the uncoalesced wire for the same workload.
	reduction := float64(records[1]) / float64(records[0])
	t.AddRow("off vs adaptive", depth, "-", "-", "-", "-", passFail(reduction >= 8))

	// The no-tuning claim: across an RTT sweep the adaptive default stays
	// within 2x of the best fixed ceiling for that RTT. A controller that
	// needed per-deployment tuning would lose badly somewhere.
	for _, sweep := range []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		best := uint64(0)
		for _, window := range []int{4, 16, 64} {
			s, err := e27Run(depth, calls, sweep, window)
			if err != nil {
				return t, err
			}
			if best == 0 || s.res.stats.Records < best {
				best = s.res.stats.Records
			}
		}
		adaptive, err := e27Run(depth, calls, sweep, 0)
		if err != nil {
			return t, err
		}
		got := adaptive.res.stats.Records
		t.AddRow(fmt.Sprintf("adaptive@%s", sweep), depth, got,
			fmt.Sprintf("best=%d", best), adaptive.res.pumps, adaptive.p99.Round(10*time.Microsecond),
			passFail(got <= 2*best && e27Balanced(0, calls, adaptive.res.stats)))
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("AEAD passes on the request path: %d uncoalesced vs %d adaptive (%.1fx fewer)",
			records[1], records[0], reduction),
		"records exclude the handshake; the coalesced header binds count + every correlation ID as AD",
	)
	return t, nil
}

// E27Point is one row of the checked-in BENCH_e27.json baseline: the
// coalesce-window curve at depth 64 — sealed records (AEAD passes),
// sub-frames per coalesced record, wire rounds, throughput, p99, and
// allocations. Wire rounds are deterministic. Sealed records are not:
// how many callers one flush gathers depends on goroutine scheduling, so
// the coalesced rows' record counts (and sub-frames per record and
// allocs/op with them) vary from run to run and with GOMAXPROCS. ops/sec
// and p99 are wall-clock.
type E27Point struct {
	Window        string  `json:"coalesce_window"`
	Depth         int     `json:"depth"`
	Calls         int     `json:"calls"`
	SealedRecords uint64  `json:"sealed_records"`
	SubsPerRecord float64 `json:"subs_per_record"`
	WireRounds    int64   `json:"wire_rounds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P99Micros     float64 `json:"p99_us"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// E27Baseline runs the coalesce-window sweep and returns one baseline
// point per ceiling. `lateralbench -e27-json` writes BENCH_e27.json.
func E27Baseline() ([]E27Point, error) {
	const depth, calls = 64, 256
	const rtt = time.Millisecond
	out := make([]E27Point, 0, 5)
	for _, window := range []int{1, 4, 16, 64, 0} {
		s, err := e27Run(depth, calls, rtt, window)
		if err != nil {
			return nil, err
		}
		st := s.res.stats
		if !e27Balanced(window, calls, st) {
			return nil, fmt.Errorf("E27: unbalanced books at window %s: %+v", e27WindowLabel(window), st)
		}
		subsPerRec := 1.0
		if st.CoalescedRecords > 0 {
			subsPerRec = float64(st.CoalescedSubs) / float64(st.CoalescedRecords)
		}
		out = append(out, E27Point{
			Window:        e27WindowLabel(window),
			Depth:         depth,
			Calls:         calls,
			SealedRecords: st.Records,
			SubsPerRecord: subsPerRec,
			WireRounds:    s.res.pumps,
			OpsPerSec:     float64(calls) / s.res.elapsed.Seconds(),
			P99Micros:     float64(s.p99.Microseconds()),
			AllocsPerOp:   float64(s.res.mallocs) / float64(calls),
		})
	}
	return out, nil
}
