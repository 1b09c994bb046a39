package lateral

// The benchmark harness: one Benchmark per experiment in DESIGN.md's
// per-experiment index (regenerating its table each iteration and
// reporting its headline number as a custom metric), plus micro-benchmarks
// for the mechanisms underneath (per-substrate invocation, VPFS vs raw
// legacy storage, attested handshakes, quote generation).
//
// Run everything:
//
//	go test -bench=. -benchmem ./...

import (
	"crypto/ed25519"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"lateral/internal/attack"
	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/experiments"
	"lateral/internal/hw"
	"lateral/internal/journal"
	"lateral/internal/kernel"
	"lateral/internal/legacy"
	"lateral/internal/mail"
	"lateral/internal/netsim"
	"lateral/internal/policy"
	"lateral/internal/securechan"
	"lateral/internal/sgx"
	"lateral/internal/telemetry"
	"lateral/internal/vpfs"
)

// benchExperiment runs one experiment per iteration and reports a named
// headline metric extracted from its table.
func benchExperiment(b *testing.B, run func() (experiments.Table, error),
	metricName string, metric func(experiments.Table) float64) {
	b.Helper()
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if metric != nil {
		b.ReportMetric(metric(last), metricName)
	}
}

func cellFloat(t experiments.Table, row string, col int) float64 {
	for _, r := range t.Rows {
		if r[0] == row {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "x"), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

func BenchmarkE1Containment(b *testing.B) {
	benchExperiment(b, experiments.E1Containment, "mean-leak-pola",
		func(t experiments.Table) float64 { return cellFloat(t, "MEAN", 3) })
}

func BenchmarkE2Portability(b *testing.B) {
	benchExperiment(b, experiments.E2Portability, "substrates",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE3SmartMeter(b *testing.B) {
	benchExperiment(b, experiments.E3SmartMeter, "scenarios-pass",
		func(t experiments.Table) float64 {
			pass := 0
			for _, r := range t.Rows {
				if r[3] == "PASS" {
					pass++
				}
			}
			return float64(pass)
		})
}

func BenchmarkE4Invocation(b *testing.B) {
	benchExperiment(b, experiments.E4Invocation, "substrates",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE5TCB(b *testing.B) {
	benchExperiment(b, experiments.E5TCB, "mean-reduction-x",
		func(t experiments.Table) float64 { return cellFloat(t, "MEAN", 3) })
}

func BenchmarkE6Covert(b *testing.B) {
	benchExperiment(b, experiments.E6Covert, "tdma-bits/frame",
		func(t experiments.Table) float64 { return cellFloat(t, "microkernel/time-partitioned", 5) })
}

func BenchmarkE7VPFS(b *testing.B) {
	benchExperiment(b, experiments.E7VPFS, "attacks",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE8Deputy(b *testing.B) {
	benchExperiment(b, experiments.E8Deputy, "modes",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE9Phishing(b *testing.B) {
	benchExperiment(b, experiments.E9Phishing, "hw-compromised",
		func(t experiments.Table) float64 { return cellFloat(t, "hardware-key", 3) })
}

func BenchmarkE10Gateway(b *testing.B) {
	benchExperiment(b, experiments.E10Gateway, "gated-victim-pkts",
		func(t experiments.Table) float64 { return cellFloat(t, "yes", 2) })
}

func BenchmarkE11Boot(b *testing.B) {
	benchExperiment(b, experiments.E11Boot, "chains",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE12BusTap(b *testing.B) {
	benchExperiment(b, experiments.E12BusTap, "substrates",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE13GUI(b *testing.B) {
	benchExperiment(b, experiments.E13GUI, "paths",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE14Concurrency(b *testing.B) {
	benchExperiment(b, experiments.E14Concurrency, "latelaunch-rel-x",
		func(t experiments.Table) float64 { return cellFloat(t, "tpm-latelaunch", 5) })
}

// --- mechanism micro-benchmarks ---

// BenchmarkInvocation measures the simulator's cross-domain call latency
// per substrate (the "sim-ns/call" column of E4, under the Go benchmark
// harness).
func BenchmarkInvocation(b *testing.B) {
	for _, name := range experiments.SubstrateNames() {
		b.Run(name, func(b *testing.B) {
			sub, err := experiments.NewSubstrate(name)
			if err != nil {
				b.Fatal(err)
			}
			sys, _, err := mail.Build(sub, mail.HorizontalManifest())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mail.FetchMail(sys); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sub.Properties().InvokeCostNs), "modeled-ns/call")
		})
	}
}

// benchMailSystem builds the horizontal mail system used by the tracing
// overhead pair below.
func benchMailSystem(b *testing.B) *core.System {
	b.Helper()
	sys, _, err := mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkUntracedInvocation is the baseline for the tracing overhead
// claim: the full fetch-mail flow with no Tracer installed.
func BenchmarkUntracedInvocation(b *testing.B) {
	sys := benchMailSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mail.FetchMail(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedInvocation is the same flow with the telemetry.Metrics
// collector installed in the production configuration: head sampling at
// 1-in-512 requests (the same order as Dapper's production 1-in-1024), so
// steady-state delivers run the untraced fast path and only the sampled
// ones pay for span IDs, clock reads, and histogram updates — an amortized
// cost of a few ns per request. Compare ns/op against
// BenchmarkUntracedInvocation; the design budget is <5% overhead
// (EXPERIMENTS.md records the measured ratio).
func BenchmarkTracedInvocation(b *testing.B) {
	sys := benchMailSystem(b)
	met := telemetry.NewMetrics()
	sys.SetTracer(met)
	sys.SetTraceSampling(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mail.FetchMail(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullyTracedInvocation traces every request (no sampling) — the
// worst-case fidelity/overhead point, reported alongside the sampled
// number in EXPERIMENTS.md.
func BenchmarkFullyTracedInvocation(b *testing.B) {
	sys := benchMailSystem(b)
	met := telemetry.NewMetrics()
	sys.SetTracer(met)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mail.FetchMail(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedRecorderInvocation measures the full-fidelity span
// recorder instead of the aggregating collector (bounded buffer, reset
// each iteration so it never overflows).
func BenchmarkTracedRecorderInvocation(b *testing.B) {
	sys := benchMailSystem(b)
	rec := telemetry.NewRecorder(0)
	sys.SetTracer(rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mail.FetchMail(sys); err != nil {
			b.Fatal(err)
		}
		rec.Reset()
	}
}

// BenchmarkContainmentSweep measures a full E1-style sweep over the mail
// app (8 fresh systems, compromise, leak scoring).
func BenchmarkContainmentSweep(b *testing.B) {
	build := func() (*core.System, map[string][]byte, error) {
		return mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
	}
	targets := mail.ComponentNames()
	for i := 0; i < b.N; i++ {
		if _, err := attack.ContainmentSweep(build, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorage compares write+read throughput of the raw legacy FS
// with VPFS in both modes — the overhead the trusted wrapper costs.
func BenchmarkStorage(b *testing.B) {
	payload := cryptoutil.NewPRNG("bench").Bytes(vpfs.MaxFileSize)
	b.Run("legacy-raw", func(b *testing.B) {
		dev := hw.NewBlockDevice("bench", 256)
		fs, err := legacy.Format(dev)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.WriteFile("f", payload); err != nil {
				b.Fatal(err)
			}
			if _, err := fs.ReadFile("f"); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []vpfs.Mode{vpfs.ModeMACOnly, vpfs.ModeFull} {
		b.Run("vpfs-"+mode.String(), func(b *testing.B) {
			dev := hw.NewBlockDevice("bench", 256)
			fs, err := legacy.Format(dev)
			if err != nil {
				b.Fatal(err)
			}
			v, err := vpfs.New(fs, cryptoutil.KeyFromSeed("bench"), mode)
			if err != nil {
				b.Fatal(err)
			}
			data := payload[:vpfs.MaxFileSize]
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.WriteFile("f", data); err != nil {
					b.Fatal(err)
				}
				if _, err := v.ReadFile("f"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSecureChannel measures the attested handshake and the
// per-record cost on an established session.
func BenchmarkSecureChannel(b *testing.B) {
	id := cryptoutil.NewSigner("bench-server")
	b.Run("handshake", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			client, err := securechan.NewClient(securechan.ClientConfig{
				Rand:         cryptoutil.NewPRNG(fmt.Sprintf("c%d", i)),
				VerifyServer: func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			server, err := securechan.NewServer(securechan.ServerConfig{
				Rand: cryptoutil.NewPRNG(fmt.Sprintf("s%d", i)), Identity: id,
			})
			if err != nil {
				b.Fatal(err)
			}
			resp, pending, err := server.Respond(client.Hello())
			if err != nil {
				b.Fatal(err)
			}
			_, finish, err := client.Finish(resp)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pending.Complete(finish); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record-4k", func(b *testing.B) {
		client, _ := securechan.NewClient(securechan.ClientConfig{
			Rand:         cryptoutil.NewPRNG("rc"),
			VerifyServer: func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
		})
		server, _ := securechan.NewServer(securechan.ServerConfig{
			Rand: cryptoutil.NewPRNG("rs"), Identity: id,
		})
		resp, pending, err := server.Respond(client.Hello())
		if err != nil {
			b.Fatal(err)
		}
		cs, finish, err := client.Finish(resp)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := pending.Complete(finish)
		if err != nil {
			b.Fatal(err)
		}
		payload := cryptoutil.NewPRNG("payload").Bytes(4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec, err := cs.Seal(payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ss.Open(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuote measures attestation evidence generation + verification
// via the SGX quoting enclave path.
func BenchmarkQuote(b *testing.B) {
	vendor := cryptoutil.NewSigner("intel")
	device := cryptoutil.NewSigner("cpu")
	cert := core.IssueVendorCert(vendor, device.Public())
	meas := cryptoutil.Hash([]byte("enclave"))
	nonce := []byte("bench-nonce")
	for i := 0; i < b.N; i++ {
		q := core.SignQuote("sgx-qe", meas, nonce, device, cert)
		decoded, err := core.DecodeQuote(q.Encode())
		if err != nil {
			b.Fatal(err)
		}
		if err := core.VerifyQuote(decoded, nonce, vendor.Public(), meas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCovertChannel measures the deterministic scheduler simulation
// itself (128 bits, 100-tick frames).
func BenchmarkCovertChannel(b *testing.B) {
	bits := make([]bool, 128)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	for _, p := range []kernel.Policy{kernel.BestEffort, kernel.TimePartitioned} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kernel.MeasureCovertChannel(p, 100, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE15Interchangeability(b *testing.B) {
	benchExperiment(b, experiments.E15Interchangeability, "rows",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE16IOMMU(b *testing.B) {
	benchExperiment(b, experiments.E16IOMMU, "rows",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE17Distributed(b *testing.B) {
	benchExperiment(b, experiments.E17Distributed, "rows",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE18AutoPartition(b *testing.B) {
	benchExperiment(b, experiments.E18AutoPartition, "rows",
		func(t experiments.Table) float64 { return float64(len(t.Rows)) })
}

// BenchmarkE19Cluster regenerates the fleet-scaling table each iteration
// (four fleet sizes plus the chaos run) and reports the 8-replica speedup
// over a single replica as the headline metric.
func BenchmarkE19Cluster(b *testing.B) {
	benchExperiment(b, experiments.E19Cluster, "8-replica-speedup-x",
		func(t experiments.Table) float64 { return cellFloat(t, "8 replicas", 4) })
}

// BenchmarkE20Stall regenerates the stall-containment table each iteration
// (healthy fleet, wedged replica, delayer chaos, leak check) and reports the
// number of calls abandoned at the deadline in the wedged round.
func BenchmarkE20Stall(b *testing.B) {
	benchExperiment(b, experiments.E20Stall, "wedged-timeouts",
		func(t experiments.Table) float64 { return cellFloat(t, "svc-1 wedged 4x budget", 3) })
}

// BenchmarkE21Simulation regenerates the deterministic-simulation table each
// iteration (fault-free sweep, mixed-fault sweep, replay, quarantine) and
// reports the number of faults injected across the mixed-fault round.
func BenchmarkE21Simulation(b *testing.B) {
	benchExperiment(b, experiments.E21Simulation, "mixed-faults-injected",
		func(t experiments.Table) float64 { return cellFloat(t, "mixed-fault schedule", 3) })
}

// BenchmarkE22Pipeline regenerates the pipelining table each iteration
// (depth sweep under a fixed simulated RTT) and reports the depth-16
// round amortization — calls completed per wire round, ≥3 is the
// acceptance floor, 16 the ideal.
func BenchmarkE22Pipeline(b *testing.B) {
	b.ReportAllocs()
	benchExperiment(b, experiments.E22Pipelining, "depth16-calls/round",
		func(t experiments.Table) float64 { return cellFloat(t, "16", 3) })
}

// BenchmarkE23Shard regenerates the million-client sharded-fleet table
// each iteration (16→17 shards, 1,048,576 batched readings, quota and
// placement-audit rows) and reports the final shard-map epoch — 17 (16
// seed joins plus the mid-stream rebalance) is the acceptance value.
func BenchmarkE23Shard(b *testing.B) {
	benchExperiment(b, experiments.E23Sharding, "final-shard-epoch",
		func(t experiments.Table) float64 {
			return cellFloat(t, "1048576 clients, 64 tenants, 17 shards", 1)
		})
}

// BenchmarkE26Rolling regenerates the rolling-replace table each iteration
// (two joins, two drained leaves under partition chaos, the stale-key
// adversary rows, and the auditor's membership replay) and reports the
// final config epoch — 4 transitions is the acceptance value.
func BenchmarkE26Rolling(b *testing.B) {
	benchExperiment(b, experiments.E26Rolling, "final-epoch",
		func(t experiments.Table) float64 { return cellFloat(t, "rolling replace, zero loss", 1) })
}

// benchSink is the remote component for the stub round-trip benchmark: it
// consumes the request and replies without a payload, which keeps the
// whole round trip on the pooled zero-allocation path.
type benchSink struct{}

func (benchSink) CompName() string     { return "sink" }
func (benchSink) CompVersion() string  { return "1.0" }
func (benchSink) Init(*core.Ctx) error { return nil }
func (benchSink) Handle(core.Envelope) (core.Message, error) {
	return core.Message{Op: "ok"}, nil
}

// BenchmarkStubRoundTrip measures the steady-state cost of one remote call
// on an established secure channel — encode, seal, wire, open, dispatch,
// reply — with the exporter pumped inline. Frame, record, and plaintext
// buffers are pooled end to end and the reply carries no payload, so the
// loop body's allocation budget is zero (the periodic HKDF key ratchet
// amortizes below 1 alloc/op); growth here is a hot-path regression.
func BenchmarkStubRoundTrip(b *testing.B) {
	net := netsim.New()
	sub, err := sgx.New(sgx.Config{DeviceSeed: "bench-cpu", Vendor: cryptoutil.NewSigner("intel")})
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewSystem(sub)
	if err := sys.Launch(benchSink{}, true, 1); err != nil {
		b.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		b.Fatal(err)
	}
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "sink",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("bench-srv"),
	})
	if err != nil {
		b.Fatal(err)
	}
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "sink",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("bench-cli"),
		VerifyServer:   func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
		Pump:           exp.Serve,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := stub.Connect(); err != nil {
		b.Fatal(err)
	}
	msg := core.Message{Op: "put", Data: []byte("0123456789abcdef")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Handle(core.Envelope{Msg: msg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCall measures the single cross-domain call the deadline work
// touches most directly: ui → net ("send", two domain hops) on the
// microkernel substrate. The "no-deadline" variant is the regression guard
// for the budget plumbing — an unbudgeted call must stay on the inline
// fast path (the acceptance bound is ≤2% over the pre-deadline baseline;
// EXPERIMENTS.md records the measured pair). "deadline" runs the same call
// with a generous budget, paying for one armed expiry per call (a timer on
// the system clock, shared by every hop) plus a handoff to a parked
// watchdog worker per hop. TestGuardedCallAllocs gates its allocations.
func BenchmarkCall(b *testing.B) {
	b.Run("no-deadline", func(b *testing.B) {
		sys := benchMailSystem(b)
		msg := core.Message{Op: "compose", Data: []byte("d")}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Deliver("ui", msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deadline", func(b *testing.B) {
		sys := benchMailSystem(b)
		msg := core.Message{Op: "compose", Data: []byte("d")}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.DeliverDeadline("ui", msg, core.Span{}, time.Now().Add(time.Hour)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalOverhead pins the fleet black box's cost contract on the
// call path. "off" is the baseline fleet with no journal wired; "on" runs
// the same calls with every admission, transition, and shed journaled into
// the hash chain. The steady-state call path journals NOTHING (events fire
// only on trust transitions and budget sheds), so off and on must stay
// within noise of each other — the journal-off fast path is a nil check.
// "record-event" is the cost of one journaled event itself: one canonical
// encode plus one SHA-256 chain link.
func BenchmarkJournalOverhead(b *testing.B) {
	drive := func(b *testing.B, rec cluster.EventRecorder) {
		b.Helper()
		d, err := experiments.BuildJournaledFleetDemo(2, 0, nil, rec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Send("meter-007", 3); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { drive(b, nil) })
	b.Run("on", func(b *testing.B) {
		jnl, err := journal.New(journal.Config{
			Signer:  cryptoutil.NewSigner("bench-journal"),
			Counter: &journal.MemCounter{},
		})
		if err != nil {
			b.Fatal(err)
		}
		drive(b, jnl)
	})
	b.Run("record-event", func(b *testing.B) {
		jnl, err := journal.New(journal.Config{
			Signer:          cryptoutil.NewSigner("bench-journal"),
			Counter:         &journal.MemCounter{},
			CheckpointEvery: -1,
			MaxEntries:      1 << 22,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jnl.RecordEvent(journal.KindDeadline, "anon/anon-1", "budget expired", uint64(i), uint64(i))
		}
	})
}

// BenchmarkPolicyOverhead pins the chain-aware policy layer's cost
// contract on the invocation path. "off" is the baseline mail flow with no
// policy installed — the nil-hook fast path the whole design hinges on: no
// taint is computed, no interface call is made, so off must stay within
// noise of the pre-policy numbers. "on" runs the same flow under an engine
// whose rules never match the workload (a realistic deployment: taint and
// deny rules targeting other channels, a trailing allow) — the full
// per-invocation check plus taint bookkeeping. "check" is one rule-set
// evaluation by itself.
func BenchmarkPolicyOverhead(b *testing.B) {
	drive := func(b *testing.B, sys *core.System) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mail.FetchMail(sys); err != nil {
				b.Fatal(err)
			}
		}
	}
	rules, err := policy.Decode([]byte(
		"taint vault ids meter-identities\ndeny no-exfil to-net * when meter-identities\nallow rest * *\n"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		drive(b, benchMailSystem(b))
	})
	b.Run("on", func(b *testing.B) {
		eng, err := policy.New(policy.Config{Name: "bench", Rules: rules})
		if err != nil {
			b.Fatal(err)
		}
		sys := benchMailSystem(b)
		sys.SetPolicy(eng)
		drive(b, sys)
	})
	b.Run("check", func(b *testing.B) {
		eng, err := policy.New(policy.Config{Name: "bench", Rules: rules})
		if err != nil {
			b.Fatal(err)
		}
		req := core.PolicyRequest{From: "imap", Channel: "to-parse", To: "parse", Op: "parse"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.CheckInvoke(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
