// Package core is the paper's primary contribution: a unified interface to
// isolation technologies ("this interface should do for isolation
// mechanisms what POSIX did for the UNIX system call interface") together
// with the horizontal component programming model built on top of it.
//
// The package defines three layers:
//
//   - Substrate / DomainHandle / TrustAnchor — the unified view of
//     hardware isolation (Section II's structural template, Figure 2).
//     Each isolation technology (microkernel, TrustZone, SGX, TPM late
//     launch, SEP) implements these interfaces in its own package.
//
//   - Component / Envelope / Ctx — the horizontal application model
//     (Section III). Components are written once against this interface
//     and run unmodified on any substrate.
//
//   - System — the runtime that loads components into domains, wires the
//     communication channels a manifest granted, and enforces the paper's
//     compromise semantics: a subverted component keeps exactly the
//     authority its domain and channels give it, nothing more.
//
// Components never import a substrate package. That property is what
// experiment E2 verifies mechanically.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Common errors.
var (
	// ErrNoChannel is returned when a component invokes a channel it was
	// never granted. The substrate blocks all communication that the
	// manifest did not establish.
	ErrNoChannel = errors.New("core: no such channel granted")

	// ErrDomainExists is returned when creating a domain whose name is taken.
	ErrDomainExists = errors.New("core: domain already exists")

	// ErrNoDomain is returned when referencing an unknown domain.
	ErrNoDomain = errors.New("core: no such domain")

	// ErrTooManyTrusted is returned when a substrate cannot host another
	// trusted domain (e.g. TrustZone has a single secure world).
	ErrTooManyTrusted = errors.New("core: substrate cannot host more trusted domains")

	// ErrQuote is returned when quote verification fails.
	ErrQuote = errors.New("core: quote verification failed")

	// ErrRefused is a component-level refusal (e.g. policy check failed).
	ErrRefused = errors.New("core: request refused")

	// ErrDeadline is returned when a call's budget is spent: either the
	// deadline passed before the target could be invoked, or the watchdog
	// abandoned a handler that ran past it. The abandoned handler keeps
	// running to completion (Handle stays serialized per component); only
	// the caller is released. See DESIGN.md "Deadlines and backpressure".
	ErrDeadline = errors.New("core: call deadline exceeded")

	// ErrOverloaded is returned when a component's bounded admission queue
	// is full: the call is shed immediately instead of queueing forever
	// behind a slow or hung handler. Load shedding is per target node, so
	// one convoyed component cannot absorb every caller in the system.
	ErrOverloaded = errors.New("core: component admission queue full")

	// ErrCanceled is returned when the caller's context was canceled while
	// the call was queued or executing.
	ErrCanceled = errors.New("core: call canceled")
)

// Message is the unit of communication between components. Op selects the
// service operation; Data is an opaque payload the components agree on.
type Message struct {
	Op   string
	Data []byte
}

// Clone returns a deep copy so that senders and receivers never alias.
func (m Message) Clone() Message {
	return Message{Op: m.Op, Data: m.CloneData()}
}

// CloneData returns a deep copy of just the payload bytes.
func (m Message) CloneData() []byte {
	d := make([]byte, len(m.Data))
	copy(d, m.Data)
	return d
}

// Envelope is a delivered message together with the sender identity the
// *channel* (not the sender) established. With a capability-style channel,
// From and Badge are trustworthy; on an ambient channel both are zero and
// the receiver only has whatever identity claims ride inside Msg.Data —
// the raw material of confused-deputy attacks.
type Envelope struct {
	Msg   Message
	From  string // channel-established sender identity; "" on ambient channels
	Badge uint64 // capability badge; 0 on ambient channels

	// Span is the telemetry span of the invocation carrying this envelope
	// (zero when no Tracer is installed). It propagates the causal trace
	// across domains — and, via the distributed stub/exporter pair, across
	// machines. Components may read it but never need to.
	Span Span

	// Deadline is the call budget: the instant after which the caller no
	// longer waits for the reply (zero means unbounded). It propagates
	// through the whole invocation chain — outbound calls a handler makes
	// inherit the remaining budget, and the distributed layer carries it
	// across machines as a remaining-budget wire field. Components may
	// consult it to shed doomed work early but never need to; the system's
	// watchdog enforces it either way.
	Deadline time.Time

	// Taint is the invocation chain's accumulated label set: every label
	// the chain acquired from channels and assets it touched before
	// reaching this handler, on this machine or upstream of the wire
	// (policy.go). Sorted, read-only, nil on an untainted chain.
	// Components may consult it but enforcement is the system's job.
	Taint []string

	// expiry is the armed expiry of Deadline, carried from a handler to
	// the outbound calls that inherit its deadline unchanged so the whole
	// call tree shares one timer. Nil on external delivers and on calls
	// whose context tightened the budget: their hop arms its own.
	expiry *expiry
}

// Component is the unit of horizontal application design. Implementations
// hold their own state; the framework guarantees Handle is never invoked
// concurrently for the same component.
type Component interface {
	// CompName returns the component's stable name.
	CompName() string

	// CompVersion returns the code version; name and version together
	// form the measured code identity.
	CompVersion() string

	// Init is called once after the component is loaded into a domain.
	Init(ctx *Ctx) error

	// Handle serves one invocation and returns the reply.
	Handle(env Envelope) (Message, error)
}

// Subvertible is implemented by components that model an exploitable
// vulnerability. After attack.Compromise flips its domain, Handle is no
// longer called; HandleCompromised is, and it typically tries to exfiltrate
// everything reachable and to abuse every granted channel. The isolation
// substrate — not the component's good manners — is what limits the damage.
type Subvertible interface {
	Component
	HandleCompromised(env Envelope) (Message, error)
}

// CodeOf returns the simulated binary image of a component: the bytes that
// a launch measurement hashes. Changing either name or version changes the
// measurement, exactly like shipping a different binary.
func CodeOf(c Component) []byte {
	return []byte(c.CompName() + "@" + c.CompVersion())
}

// DomainImage returns the code image of a domain hosting the given
// components — the concatenation of their binaries, as System.Colocate
// loads it. Verifiers compute golden measurements from this.
func DomainImage(comps ...Component) []byte {
	var code []byte
	for _, c := range comps {
		code = append(code, CodeOf(c)...)
		code = append(code, '\n')
	}
	return code
}

// Observer receives everything an adversary can see. The attack package
// provides the implementation; core only reports. Observer is the
// adversary-facing twin of the operator-facing Tracer (trace.go): an
// Observer sees payload bytes from compromised domains, a Tracer sees
// timing and topology of every crossing but never payloads.
type Observer interface {
	// Observe records that the adversary saw data in the given context.
	Observe(context string, data []byte)
}

// Ctx is the capability environment handed to a component at Init. All of
// a component's interaction with the rest of the system flows through it:
// invoking granted channels, storing assets in domain memory, and asking
// for attestation primitives if the substrate provides them.
type Ctx struct {
	sys  *System
	node *node
}

// Self returns the component's own name.
func (c *Ctx) Self() string { return c.node.comp.CompName() }

// DomainName returns the name of the domain hosting the component. With
// colocation several components share a domain.
func (c *Ctx) DomainName() string { return c.node.domainName }

// Substrate returns the properties of the substrate hosting the component,
// so a component can adapt to (or refuse) a weaker attacker model.
func (c *Ctx) Substrate() Properties { return c.sys.props }

// Call invokes a granted outbound channel and returns the reply. It fails
// with ErrNoChannel if the manifest never granted the channel. When the
// calling handler is itself executing under a deadline, the call inherits
// the remaining budget automatically.
func (c *Ctx) Call(channel string, msg Message) (Message, error) {
	return c.sys.call(nil, c.node, channel, msg)
}

// CallCtx is Call with an explicit context: the call fails with
// ErrCanceled once ctx is canceled, and a ctx deadline tightens (never
// loosens) any budget inherited from the calling handler. The component
// API stays Envelope-based — Handle never sees a context; the budget
// reaches the callee as Envelope.Deadline.
func (c *Ctx) CallCtx(ctx context.Context, channel string, msg Message) (Message, error) {
	return c.sys.call(ctx, c.node, channel, msg)
}

// HasChannel reports whether an outbound channel with this name was granted.
func (c *Ctx) HasChannel(channel string) bool {
	c.sys.mu.Lock()
	defer c.sys.mu.Unlock()
	_, ok := c.node.out[channel]
	return ok
}

// Channels returns the names of all granted outbound channels, sorted so
// callers iterating over them behave deterministically.
func (c *Ctx) Channels() []string {
	c.sys.mu.Lock()
	out := make([]string, 0, len(c.node.out))
	for name := range c.node.out {
		out = append(out, name)
	}
	c.sys.mu.Unlock()
	sort.Strings(out)
	return out
}

// StoreAsset places a named secret into the component's domain memory.
// Assets are what the containment experiments score: when a domain is
// compromised, every asset physically inside it leaks.
func (c *Ctx) StoreAsset(name string, secret []byte) error {
	return c.sys.storeAsset(c.node, name, secret)
}

// LoadAsset reads a previously stored asset back from domain memory.
func (c *Ctx) LoadAsset(name string) ([]byte, error) {
	return c.sys.loadAsset(c.node, name)
}

// Quote asks the substrate's trust anchor to attest this component's
// domain. It fails if the substrate has no anchor.
func (c *Ctx) Quote(nonce []byte) (Quote, error) {
	a := c.sys.sub.Anchor()
	if a == nil {
		return Quote{}, fmt.Errorf("substrate %s: no trust anchor", c.sys.sub.Name())
	}
	return a.Quote(c.node.dom.handle, nonce)
}

// Seal binds data to this domain's code identity via the trust anchor.
func (c *Ctx) Seal(plaintext []byte) ([]byte, error) {
	a := c.sys.sub.Anchor()
	if a == nil {
		return nil, fmt.Errorf("substrate %s: no trust anchor", c.sys.sub.Name())
	}
	return a.Seal(c.node.dom.handle, plaintext)
}

// Unseal recovers data previously sealed to this domain's code identity.
func (c *Ctx) Unseal(sealed []byte) ([]byte, error) {
	a := c.sys.sub.Anchor()
	if a == nil {
		return nil, fmt.Errorf("substrate %s: no trust anchor", c.sys.sub.Name())
	}
	return a.Unseal(c.node.dom.handle, sealed)
}
