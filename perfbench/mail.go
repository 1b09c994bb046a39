package main

import (
	"fmt"
	"time"

	"lateral/internal/core"
	"lateral/internal/kernel"
	"lateral/internal/mail"
	"lateral/internal/policy"
)

// local-mail: the Fig. 1 horizontal mail app, eight domains on the
// microkernel substrate, with a policy engine installed whose one rule
// never matches — every crossing pays the check, none is refused. Two
// clients each repeat fetch, compose, fetch, and a fetch under a 1 s
// budget, so one request in four runs guarded by the deadline watchdog.
// The mix puts the median on the unbudgeted fast path and the 99th
// percentile on the budgeted path; a 1:1 mix would put the median on the
// boundary between the two.

const (
	mailLanes    = 2
	mailDrafts   = 512
	mailBudget   = time.Second
	kindBudgeted = 1
)

// mailFetched is what every fetch must render: the canned message body
// with its HTML bold tags turned into asterisks.
const mailFetched = "*Quarterly report attached*"

type mailInst struct {
	sys *core.System
	in  mailInputs
	cur []int // per lane; touched only by the lane's goroutine
}

// neverRules is a rule set with one deny rule conditioned on a label no
// taint rule confers: the engine evaluates it on every check and never
// matches.
func neverRules() *policy.RuleSet {
	return &policy.RuleSet{Rules: []policy.Rule{{
		Name: "deny-exfil", Effect: policy.Deny, Channel: "*", Op: "*", When: []string{"exfil"},
	}}}
}

func newMail(in mailInputs, tr *tracer) (*mailInst, error) {
	sys, _, err := mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
	if err != nil {
		return nil, fmt.Errorf("local-mail: build: %w", err)
	}
	eng, err := policy.New(policy.Config{Name: "mail", Rules: neverRules()})
	if err != nil {
		return nil, fmt.Errorf("local-mail: policy: %w", err)
	}
	var pol core.Policy = eng
	if tr != nil {
		pol = tracedPolicy{p: eng, tr: tr}
		sys.SetTracer(tr)
		sys.SetTraceSampling(coreSample)
	}
	sys.SetPolicy(pol)
	return &mailInst{sys: sys, in: in, cur: make([]int, mailLanes)}, nil
}

func (m *mailInst) lanes() int { return mailLanes }

func (m *mailInst) do(lane int) result {
	i := m.cur[lane]
	m.cur[lane]++
	var got, want string
	var err error
	r := result{ops: 1}
	switch i % 4 {
	case 1:
		k := (i / 4) % mailDrafts
		got, err = mail.Compose(m.sys, m.in.drafts[lane][k])
		want = m.in.want[lane][k]
	case 3:
		r.kind = kindBudgeted
		got, err = mail.FetchMailDeadline(m.sys, time.Now().Add(mailBudget))
		want = mailFetched
	default:
		got, err = mail.FetchMail(m.sys)
		want = mailFetched
	}
	if err != nil {
		r.failed = 1
	} else if got != want {
		r.failed, r.wrong = 1, true
	}
	return r
}

func (m *mailInst) counters() counters {
	st := m.sys.Stats()
	return counters{invocations: st.Invocations, virtualNs: st.VirtualNs, timeouts: st.Timeouts, overloads: st.Overloads}
}

func (m *mailInst) audit() error { return nil }
