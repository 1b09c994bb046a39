package experiments

import (
	"fmt"
	"sort"
	"time"

	"lateral/internal/distributed"
)

// E27: wire-level frame coalescing.
//
// Wire-v3 pipelining (E22) already amortizes ROUND TRIPS: d concurrent
// callers share each simulated RTT. Coalescing moves the amortization one
// layer down: callers that queue frames for the same flush share one
// sealed record (the cleartext header binds the sub-frame count and every
// correlation ID as associated data), so AEAD passes scale with wire
// rounds, not calls. The stub flushes only at round boundaries — once
// before each pump, plus at most one rider flush mid-round — so sealed
// records ≤ 2 × rounds at any depth up to the 64-frame window, whatever
// the scheduling.
//
// The experiment sweeps the pipeline depth at a 1 ms RTT. Depth 1 is the
// uncoalesced reference: one caller, one record per call. It gates the
// headline reduction (depth 64 seals >= 8x fewer records than depth 1 for
// the same 256 calls), and checks the round-boundary bound on every row,
// including depth 64 at a 200 µs and a 5 ms RTT.

// e27Sample is one measured configuration of the coalescing sweep.
type e27Sample struct {
	res e22Result
	p99 time.Duration
}

// e27Run measures one (depth, rtt) point at the given call count,
// capturing per-call latencies for the p99 cut.
func e27Run(depth, calls int, rtt time.Duration) (e27Sample, error) {
	lat := make([]time.Duration, calls)
	res, err := e22RunLat(depth, calls, rtt, lat)
	if err != nil {
		return e27Sample{}, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return e27Sample{res: res, p99: lat[(99*calls)/100]}, nil
}

// e27Balanced is the per-row verdict: every call resolved exactly once,
// nothing lost, orphaned, or left in flight, every sub-frame accounted to
// exactly one record, and at most two records sealed per wire round (the
// pre-pump flush and the rider). A lone caller must seal one plain record
// per call; concurrent callers must seal strictly fewer records than
// calls, at least one of them coalesced.
func e27Balanced(depth, calls int, s e27Sample) bool {
	st := s.res.stats
	balanced := st.Issued == uint64(calls) && st.Completed == uint64(calls) &&
		st.Failed == 0 && st.Inflight == 0 && st.Orphans == 0 &&
		st.Records-st.CoalescedRecords+st.CoalescedSubs == uint64(calls) &&
		st.Records <= 2*uint64(s.res.pumps)
	if depth == 1 {
		return balanced && st.Records == uint64(calls) && st.CoalescedRecords == 0
	}
	return balanced && st.Records < uint64(calls) && st.CoalescedRecords > 0
}

// e27Packed is the depth-64 verdict on top of e27Balanced: the 64 callers
// seal at least 8x fewer records than calls, with at least two sub-frames
// per coalesced record.
func e27Packed(calls int, s e27Sample) bool {
	st := s.res.stats
	return e27Balanced(64, calls, s) && st.Records*8 <= uint64(calls) && e27SubsPerRecord(st) >= 2
}

// e27SubsPerRecord is the mean sub-frames a coalesced record carried (1
// when nothing coalesced).
func e27SubsPerRecord(st distributed.StubStats) float64 {
	if st.CoalescedRecords == 0 {
		return 1
	}
	return float64(st.CoalescedSubs) / float64(st.CoalescedRecords)
}

// E27Coalescing measures what sharing sealed records buys over one record
// per call, and that the round-boundary flush bounds the record count.
func E27Coalescing() (Table, error) {
	t := Table{
		ID:     "E27",
		Title:  "wire-level frame coalescing at round boundaries",
		Anchor: "§III-B trustworthy invocation across machines; cost of attested channels at scale",
		Header: []string{"depth", "rtt", "records", "subs/rec", "rounds", "p99", "verdict"},
	}

	const calls = 256
	const rtt = time.Millisecond

	// Depth sweep: how the sealed-record count, the sub-frames packed per
	// record, and the caller-visible p99 move as more callers share the
	// channel. Depth 1 is the uncoalesced wire.
	records := make(map[int]uint64)
	var subs64 float64
	for _, depth := range []int{1, 4, 16, 64} {
		s, err := e27Run(depth, calls, rtt)
		if err != nil {
			return t, err
		}
		st := s.res.stats
		records[depth] = st.Records
		if depth == 64 {
			subs64 = e27SubsPerRecord(st)
		}
		t.AddRow(depth, rtt, st.Records, fmt.Sprintf("%.2f", e27SubsPerRecord(st)), s.res.pumps,
			s.p99.Round(10*time.Microsecond), passFail(e27Balanced(depth, calls, s)))
	}

	// The headline claim: 64 concurrent callers seal at least 8x fewer
	// records — 8x fewer AEAD passes on the request path — than one
	// caller issuing the same calls, with at least two sub-frames per
	// coalesced record.
	reduction := float64(records[1]) / float64(records[64])
	t.AddRow("64 vs 1", rtt, "-", "-", "-", "-", passFail(reduction >= 8 && subs64 >= 2))

	// The bound is structural and the packing must not depend on the
	// RTT: a short one leaves the rider little time, a long one lets
	// whole waves queue. Both must still seal 8x fewer records than
	// calls, at least two sub-frames per coalesced record.
	for _, sweep := range []time.Duration{200 * time.Microsecond, 5 * time.Millisecond} {
		s, err := e27Run(64, calls, sweep)
		if err != nil {
			return t, err
		}
		st := s.res.stats
		t.AddRow(64, sweep, st.Records, fmt.Sprintf("%.2f", e27SubsPerRecord(st)), s.res.pumps,
			s.p99.Round(10*time.Microsecond), passFail(e27Packed(calls, s)))
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("AEAD passes on the request path: %d at depth 1 vs %d at depth 64 (%.1fx fewer)",
			records[1], records[64], reduction),
		"records and rounds exclude the handshake; every row seals at most 2 records per round",
		"the coalesced header binds count + every correlation ID as AD",
	)
	return t, nil
}

// E27Point is one row of the checked-in BENCH_e27.json baseline: the
// depth curve at a 1 ms RTT — sealed records (AEAD passes), sub-frames
// per coalesced record, wire rounds, throughput, p99, and allocations.
// Depth 1 is exact: one round and one plain record per call. At greater
// depths the counts depend on how many callers queue before each flush,
// so they vary from run to run and with GOMAXPROCS, but records never
// exceed 2 × rounds: the stub seals only at the pre-pump flush and at most
// one rider flush per round. ops/sec and p99 are wall-clock.
type E27Point struct {
	Depth         int     `json:"depth"`
	Calls         int     `json:"calls"`
	SealedRecords uint64  `json:"sealed_records"`
	SubsPerRecord float64 `json:"subs_per_record"`
	WireRounds    int64   `json:"wire_rounds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P99Micros     float64 `json:"p99_us"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// E27Baseline runs the depth sweep and returns one baseline point per
// depth. `lateralbench -e27-json` writes BENCH_e27.json.
func E27Baseline() ([]E27Point, error) {
	const calls = 256
	const rtt = time.Millisecond
	depths := []int{1, 4, 16, 64}
	out := make([]E27Point, 0, len(depths))
	for _, depth := range depths {
		s, err := e27Run(depth, calls, rtt)
		if err != nil {
			return nil, err
		}
		st := s.res.stats
		if !e27Balanced(depth, calls, s) {
			return nil, fmt.Errorf("E27: unbalanced books at depth %d (%d rounds): %+v", depth, s.res.pumps, st)
		}
		out = append(out, E27Point{
			Depth:         depth,
			Calls:         calls,
			SealedRecords: st.Records,
			SubsPerRecord: e27SubsPerRecord(st),
			WireRounds:    s.res.pumps,
			OpsPerSec:     float64(calls) / s.res.elapsed.Seconds(),
			P99Micros:     float64(s.p99.Microseconds()),
			AllocsPerOp:   float64(s.res.mallocs) / float64(calls),
		})
	}
	return out, nil
}
