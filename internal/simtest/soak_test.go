package simtest

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/distributed"
)

var (
	seedFlag = flag.Uint64("simtest.seed", 0, "replay this one seed of every selected TestSoak row verbosely")
	soakFlag = flag.Int("simtest.soak", 0, "run this many seeds per TestSoak row (make soak uses 500)")
)

// soakRow is one schedule of the soak matrix: every seed of the batch runs
// one fresh deployment with all ten invariants checked after every step.
type soakRow struct {
	name string

	// seeds is the default batch size, short the -short one; -simtest.soak
	// overrides both.
	seeds, short int

	// explore builds the seed's explorer config. Rows whose traffic the
	// synchronous explorer cannot generate set run instead.
	explore func(seed uint64) ExploreConfig
	run     func(t *testing.T, seed uint64)

	// batch, when set, judges the whole batch's results once every seed
	// passed: a row whose attack never fired proved nothing.
	batch func(t *testing.T, results []*Result)
}

// soakRows is the soak matrix. Each feature row keeps its own schedule
// and operation count; combined runs the features together, so an epoch
// change lands during a shard split while the auditor watches a tampered
// journal.
var soakRows = []soakRow{
	{name: "explore", seeds: 12, short: 4, explore: func(seed uint64) ExploreConfig {
		return ExploreConfig{Seed: seed, Ops: 30, Replicas: 3, Schedule: DefaultSchedule(3)}
	}},
	// A journal-tamper fault flips one byte in an early entry (the index
	// varies with the seed but always lands: admission alone records nine
	// entries before the first op), and the auditor invariant then demands
	// that every subsequent replay fails.
	{name: "audit", seeds: 25, short: 5, explore: func(seed uint64) ExploreConfig {
		sched := append([]Schedule{
			{At: time.Millisecond, Fault: Fault{Kind: FaultJournalTamper, N: int(seed % 9)}},
		}, DefaultSchedule(3)...)
		return ExploreConfig{Seed: seed, Ops: 24, Replicas: 3, Schedule: sched}
	}},
	// The operation mix includes mosaic attacks (read identifying data,
	// then egress it); no exfil may ever complete.
	{name: "policy", seeds: 25, short: 5, explore: func(seed uint64) ExploreConfig {
		return ExploreConfig{Seed: seed, Ops: 24, Replicas: 3, Schedule: DefaultSchedule(3)}
	}, batch: requireExfilDenied},
	{name: "epoch", seeds: 25, short: 5, explore: func(seed uint64) ExploreConfig {
		return ExploreConfig{Seed: seed, Ops: 30, Replicas: 3, Schedule: EpochSchedule(3)}
	}},
	{name: "shard", seeds: 25, short: 5, explore: func(seed uint64) ExploreConfig {
		return ExploreConfig{Seed: seed, Ops: 30, Replicas: 3, Sharded: true, Schedule: ShardSchedule(3)}
	}},
	{name: "combined", seeds: 25, short: 5, explore: func(seed uint64) ExploreConfig {
		return ExploreConfig{Seed: seed, Ops: 30, Replicas: 3, Sharded: true, Schedule: combinedSchedule(seed)}
	}},
	{name: "coalesce", seeds: 25, short: 5, run: runCoalesceSeed},
}

// combinedSchedule threads the epoch schedule's membership changes and
// replica tampering through the shard schedule's splits and merges, with
// the journal tampered early (at a seed-chosen entry) and again late.
func combinedSchedule(seed uint64) []Schedule {
	sched := append([]Schedule{
		{At: time.Millisecond, Fault: Fault{Kind: FaultJournalTamper, N: int(seed % 9)}},
	}, ShardSchedule(3)...)
	for _, s := range EpochSchedule(3) {
		switch s.Fault.Kind {
		case FaultJoin, FaultLeave, FaultTamper:
			sched = append(sched, s)
		}
	}
	return append(sched, Schedule{At: 340 * time.Millisecond, Fault: Fault{Kind: FaultJournalTamper, N: 3}})
}

// requireExfilDenied fails the policy row when no exfil was denied across
// the batch, so a run that never exercised the policy cannot pass.
func requireExfilDenied(t *testing.T, results []*Result) {
	for _, res := range results {
		for _, line := range res.Trace {
			if strings.Contains(line, "exfil") && strings.HasSuffix(line, "-> denied") {
				return
			}
		}
	}
	t.Fatalf("no exfil op was denied across %d seeds — the soak proved nothing", len(results))
}

// TestSoak runs every row of the soak matrix as a subtest. `make soak`
// runs 500 seeds per row (-simtest.soak); plain `go test` covers a smaller
// batch. A failing seed prints the command that replays it alone:
// -simtest.seed=N runs only seed N and logs its full trace.
func TestSoak(t *testing.T) {
	for _, row := range soakRows {
		t.Run(row.name, func(t *testing.T) {
			first, last := uint64(1), uint64(row.seeds)
			switch {
			case *seedFlag != 0:
				first, last = *seedFlag, *seedFlag
			case *soakFlag > 0:
				last = uint64(*soakFlag)
			case testing.Short():
				last = uint64(row.short)
			}
			var results []*Result
			for seed := first; seed <= last && !t.Failed(); seed++ {
				if res := row.soakSeed(t, seed); res != nil {
					results = append(results, res)
				}
			}
			if row.batch != nil && *seedFlag == 0 {
				row.batch(t, results)
			}
		})
	}
}

// soakSeed runs one seed of the row and returns its explorer result (nil
// for run rows).
func (row soakRow) soakSeed(t *testing.T, seed uint64) *Result {
	defer func() {
		if t.Failed() {
			t.Logf("replay: go test ./internal/simtest -run 'TestSoak/%s$' -simtest.seed=%d", row.name, seed)
		}
	}()
	if row.run != nil {
		row.run(t, seed)
		return nil
	}
	res, err := Explore(row.explore(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	switch {
	case *seedFlag != 0:
		t.Logf("replay of seed %d:\n%s", seed, res.TraceBytes())
		if res.Failed() {
			t.Fatalf("seed %d: %d invariant violations", seed, len(res.Violations))
		}
	case res.Failed():
		t.Fatalf("seed %d violated invariants:\n%s", seed, res.TraceBytes())
	}
	return res
}

// typedCoalesceOutcome reports whether a caller-visible error is one of
// the typed sentinels the stack promises. A dropped sub-frame must
// surface as ErrTransport (the caller's reply never arrives), a tampered
// one as a remote error status — anything unclassifiable is an invariant
// breach in its own right.
func typedCoalesceOutcome(err error) bool {
	for _, sentinel := range []error{
		core.ErrDeadline, core.ErrCanceled, core.ErrOverloaded, core.ErrPolicy,
		distributed.ErrTransport, distributed.ErrRemote, distributed.ErrNotConnected,
		cluster.ErrNoReplicas, cluster.ErrExhausted,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// runCoalesceSeed drives one seeded deployment for the coalesce row.
// Coalescing only happens when callers actually race — the explorer's
// synchronous operations seal single-sub plain records — so this runs
// rounds of real concurrent callers through the pool, each round with one
// one-shot drop or tamper fault armed on a random replica's exporter, and
// checks every invariant at quiesce instead of replaying a trace. After
// every round the wire is healed (a drop marks its replica Down; healing
// keeps the next round on a full fleet so a mid-call total outage can
// never park a backoff on the un-advanced virtual clock).
func runCoalesceSeed(t *testing.T, seed uint64) {
	t.Helper()
	h, err := NewHarness(HarnessConfig{Replicas: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	const workers, callsPer, rounds = 12, 12, 3
	r := &rng{state: seed}
	for round := 0; round < rounds; round++ {
		mode := "drop"
		if r.next()%2 == 0 {
			mode = "tamper"
		}
		h.Apply(Fault{Kind: FaultCoalesce, Target: ReplicaName(1 + r.intn(3)), Peer: mode, N: r.intn(4)})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start // all workers fire together: maximum racing
				for i := 0; i < callsPer; i++ {
					id := fmt.Sprintf("op-%d-%d-%d", round, w, i)
					key := fmt.Sprintf("key-%02d", (w*callsPer+i)%16)
					var err error
					if i%2 == 0 {
						// Slow ops hold a replica for real service time, so
						// the other workers' frames pile up behind the flush
						// leader and coalesce.
						err = h.CallSlowWork(id, key)
					} else {
						err = h.CallWork(id, key, 0)
					}
					if err != nil && !typedCoalesceOutcome(err) {
						t.Errorf("seed %d round %d %s: untyped caller error: %v", seed, round, id, err)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		h.Quiesce()
		if v := h.CheckAll(); len(v) != 0 {
			t.Fatalf("seed %d round %d (mode %s): invariant violations: %v", seed, round, mode, v)
		}
		h.Apply(Fault{Kind: FaultHeal})
	}
	// The soak is only a soak if records actually coalesced: across
	// workers*callsPer*rounds racing calls over three stubs, at least some
	// must have shared a sealed record.
	var coalesced uint64
	for _, rep := range h.Pool.Replicas() {
		coalesced += rep.Stub.CoalescedRecords
	}
	if coalesced == 0 {
		t.Fatalf("seed %d: no coalesced records across the fleet — the soak exercised nothing", seed)
	}
}
