package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// rpc-pipelined: one attested stub on one secure channel to an exporter
// wrapping an SGX echo enclave, 16 callers in flight. The pump serves the
// exporter directly, with no simulated round-trip time, so the figures
// are the program's own cost and not a sleep.

const (
	rpcLanes = 16
	rpcCalls = 1024 // generated payloads per lane, cycled
)

// echo mirrors its request so the run measures the transport.
type echo struct{}

func (echo) CompName() string     { return "echo" }
func (echo) CompVersion() string  { return "1.0" }
func (echo) Init(*core.Ctx) error { return nil }
func (echo) Handle(env core.Envelope) (core.Message, error) {
	return core.Message{Op: "ok", Data: env.Msg.Data}, nil
}

type rpcInst struct {
	sys   *core.System
	net   *netsim.Network
	stub  *distributed.Stub
	calls [][]rpcCall
	cur   []int
}

func newRPC(seed int64, calls [][]rpcCall, tr *tracer) (*rpcInst, error) {
	tag := fmt.Sprint(seed)
	vendor := cryptoutil.NewSigner("vendor-" + tag)
	cpu, err := sgx.New(sgx.Config{DeviceSeed: "rpc-cpu-" + tag, Vendor: vendor})
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(cpu)
	if err := sys.Launch(echo{}, true, 1); err != nil {
		return nil, err
	}
	if err := sys.InitAll(); err != nil {
		return nil, err
	}
	meas := cryptoutil.Hash(core.DomainImage(echo{}))
	net := netsim.New()
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "echo",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls-" + tag),
		Rand:      cryptoutil.NewPRNG("rpc-srv-" + tag),
	})
	if err != nil {
		return nil, err
	}
	pump := exp.Serve
	if tr != nil {
		pump = tr.tracedPump(exp.Serve, nil)
		sys.SetTracer(tr)
		sys.SetTraceSampling(coreSample)
	}
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "echo",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("rpc-cli-" + tag),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			q, err := core.DecodeQuote(evidence)
			if err != nil {
				return err
			}
			return core.VerifyQuote(q, tr[:], vendor.Public(), meas)
		},
		Pump: pump,
	})
	if err != nil {
		return nil, err
	}
	if err := stub.Connect(); err != nil {
		return nil, fmt.Errorf("rpc-pipelined: attested handshake: %w", err)
	}
	return &rpcInst{sys: sys, net: net, stub: stub, calls: calls, cur: make([]int, rpcLanes)}, nil
}

func (r *rpcInst) lanes() int { return rpcLanes }

func (r *rpcInst) do(lane int) result {
	c := r.calls[lane][r.cur[lane]%rpcCalls]
	r.cur[lane]++
	res := result{ops: 1, kind: uint8(c.class), payload: 2 * int64(len(c.data))}
	reply, err := r.stub.Handle(core.Envelope{Msg: core.Message{Op: "echo", Data: c.data}})
	if err != nil {
		res.failed = 1
	} else if reply.Op != "ok" || !bytes.Equal(reply.Data, c.data) {
		res.failed, res.wrong = 1, true
	}
	return res
}

func (r *rpcInst) counters() counters {
	st := r.sys.Stats()
	ss := r.stub.Stats()
	c := counters{
		invocations: st.Invocations, virtualNs: st.VirtualNs, timeouts: st.Timeouts, overloads: st.Overloads,
		stubIssued: ss.Issued, stubRecords: ss.Records, coalRecords: ss.CoalescedRecords,
		coalSubs: ss.CoalescedSubs, stubOrphans: ss.Orphans, stubMaxInflight: ss.MaxInflight,
	}
	for _, ep := range []string{"cloud", "laptop"} {
		ns := r.net.StatsFor(ep)
		c.datagrams += ns.Sent
		c.wireBytes += ns.SentBytes
	}
	return c
}

// audit checks the stub's exactly-once accounting: every issued call
// resolved, none in flight, no reply without a caller.
func (r *rpcInst) audit() error {
	return stubBalanced("rpc-pipelined stub", r.stub.Stats())
}

func stubBalanced(who string, st distributed.StubStats) error {
	if st.Issued != st.Completed+st.Failed || st.Inflight != 0 || st.Orphans != 0 {
		return fmt.Errorf("%s unbalanced: issued %d, completed %d, failed %d, inflight %d, orphans %d",
			who, st.Issued, st.Completed, st.Failed, st.Inflight, st.Orphans)
	}
	return nil
}
