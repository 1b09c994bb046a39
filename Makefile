# Lateral — build, test, and reproduce.

GO ?= go

.PHONY: all verify build vet test race-hotpath race cover bench bench-smoke bench-baseline experiments fuzz cluster-soak stall-soak soak examples clean

all: build vet test race-hotpath

# Tier-1 verify chain (ROADMAP.md): what must stay green on every change.
verify: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The invocation hot path is lock-sensitive end to end — tracing, the
# deadline watchdog, the wire budget, and failover routing: run every
# package on that path under the race detector on each tier-1 pass. A batch
# frame holds its component's slot across every reading, so the
# two-stub batch/single-call contention test repeats ten times.
race-hotpath:
	$(GO) test -race ./internal/telemetry ./internal/core ./internal/distributed ./internal/cluster
	$(GO) test -race -count=10 -run TestBatchConcurrentStubs ./internal/distributed

race:
	$(GO) test -race ./...

# Coverage with checked-in floors for the invocation-path packages. Floors
# sit ~5 points under measured coverage (core 93.0, cluster 94.7,
# distributed 86.6, journal 97.9, cap 98.7, policy 91.9, shard 93.9 at
# the time they were set): they catch a test deletion or a big untested
# addition without flaking on small refactors.
COVER_FLOORS := core:88 cluster:89 distributed:81 journal:85 cap:93 policy:86 shard:85

cover:
	$(GO) test -cover ./...
	@for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./internal/$$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg at $$pct% is below the $$floor% floor"; exit 1; fi; \
		echo "cover: $$pkg $$pct% >= $$floor% floor"; \
	done

# Regenerate every experiment table (EXPERIMENTS.md's source of truth).
experiments:
	$(GO) run ./cmd/lateralbench

# Full benchmark pass, one iteration per experiment plus the
# mechanism micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bench rot (compile errors,
# panics, a broken fixture) in CI without paying full measurement time.
# The allocation gates ride along: the batched-ingest hot path must stay
# at 0 allocs/op per reading, the coalesced sealed-record hot path at
# 0 allocs/op per sub-frame at depth 16, and a budgeted call within 4
# allocs/op of the same call unbudgeted — asserted, not just measured.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -benchmem -run '^$$' ./...
	$(GO) test -count=1 -run 'TestBatchIngestZeroAllocPerReading|TestCoalescedZeroAllocPerSubFrame' ./internal/distributed
	$(GO) test -count=1 -run 'TestGuardedCallAllocs' ./internal/core

# Regenerate the checked-in baselines: E22 pipelining (BENCH_e22.json),
# E23 sharded fleet (BENCH_e23.json), E26 rolling replace
# (BENCH_e26.json), and E27 frame coalescing (BENCH_e27.json). E23 frame
# counts and E26 epoch/healthy counts are deterministic, and so are the
# depth-1 rows of E22 and E27 (one round and one record per call). At
# greater depths wire rounds and sealed records depend on goroutine
# scheduling and vary between runs, but E27 records never exceed 2x the
# wire rounds. ops/sec and p99 are wall-clock.
bench-baseline:
	$(GO) run ./cmd/lateralbench -e22-json BENCH_e22.json
	$(GO) run ./cmd/lateralbench -e23-json BENCH_e23.json
	$(GO) run ./cmd/lateralbench -e26-json BENCH_e26.json
	$(GO) run ./cmd/lateralbench -e27-json BENCH_e27.json

# Short fuzzing pass over every parser that consumes attacker bytes,
# FUZZTIME per target (CI runs `make fuzz FUZZTIME=30s`).
FUZZTIME ?= 10s
FUZZ_TARGETS := FuzzDecodeQuote FuzzServerRespond FuzzSessionOpen FuzzVPFSRead FuzzLegacyFSNames FuzzDistributedFrame FuzzBatchFrameDecode FuzzCoalescedRecord FuzzScheduleDecode FuzzJournalDecode FuzzPolicyDecode

fuzz:
	@for target in $(FUZZ_TARGETS); do \
		echo "fuzz: $$target ($(FUZZTIME))"; \
		$(GO) test -fuzz=$$target -fuzztime=$(FUZZTIME) -run '^$$' . || exit 1; \
	done

# Short soak of the attested replica fleet under the race detector:
# concurrent callers, repeated crash/heal cycles, plus the full E19 chaos
# experiment (crash + tampered build) with -race.
cluster-soak:
	$(GO) test -race -count=5 -run TestSoakUnderChaos ./internal/cluster
	$(GO) test -race -run TestE19ClusterScalesAndSurvivesChaos ./internal/experiments

# Repeated stall-containment runs under the race detector: wedged replicas,
# abandoned handlers, and Delayer chaos (E20) must stay bounded and leak
# nothing across iterations.
stall-soak:
	$(GO) test -race -count=5 -run TestE20StallContainment ./internal/experiments
	$(GO) test -race -count=5 -run 'TestWatchdog|TestFanInBoundedAdmission' ./internal/core

# The soak matrix: every TestSoak row (explore, audit, policy, epoch,
# shard, combined, coalesce) over 500 seeds with all ten invariants
# checked, then each feature's pinned tests and experiments under the race
# detector. A failing seed prints the command that replays it alone:
#   go test ./internal/simtest -run 'TestSoak/<row>$' -simtest.seed=<seed>
soak:
	$(GO) test -count=1 ./internal/simtest -run TestSoak -simtest.soak=500
	$(GO) test -race -count=1 -run 'TestMutationIsCaught|TestExploreReplayIsByteIdentical' ./internal/simtest
	$(GO) test -race -count=3 -run TestE21Simulation ./internal/experiments
	$(GO) test -race -count=3 -run TestQuarantineJournaledExactlyOnce ./internal/cluster
	$(GO) test -race -count=1 -run TestE24 ./internal/experiments
	$(GO) test -race -count=1 -run TestEpochScheduleTransitions ./internal/simtest
	$(GO) test -race -count=1 -run 'TestE26RollingReplace|TestE26BaselinePhases' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestShardScheduleTransitions|TestShardCheckerCatchesMisrouting|TestShardFaultCodecRoundTrips' ./internal/simtest
	$(GO) test -race -count=1 -run TestE23ShardedFleet ./internal/experiments
	$(GO) test -race -count=1 -run 'TestSoak/coalesce$$' ./internal/simtest
	$(GO) test -race -count=1 -run 'TestCoalesceFaultCodecRoundTrips|TestCoalesceCheckerCatchesMisaccounting' ./internal/simtest
	$(GO) test -race -count=1 -run TestE25 ./internal/experiments

examples:
	$(GO) run ./examples/quickstart -substrate all
	$(GO) run ./examples/mailclient
	$(GO) run ./examples/smartmeter
	$(GO) run ./examples/cloudstore
	$(GO) run ./examples/dualphone

clean:
	$(GO) clean ./...
	rm -rf testdata
