package core

import (
	"net/netip"
	"time"

	"scidive/internal/sip"
)

// This file defines the pluggable protocol-correlator architecture that
// replaced the monolithic Event Generator. Each protocol's footprint→event
// correlation lives in its own module implementing Correlator; the Event
// Generator is a thin dispatcher over an ordered registry of them, and the
// Distiller and the ShardedEngine's router derive their port
// classification, routing keys, state budgets and per-frame hints from the
// same registry through the capability interfaces below. Adding a protocol
// means adding one file that implements Correlator (plus whichever
// capabilities it needs) and registering it — no existing module changes
// (see options_scan.go for the worked example, and README.md for the
// walkthrough).

// Correlator is one protocol's footprint→event module. Process receives
// every frame view whose dispatch protocol is listed in Protocols (for
// raw views the port's expected protocol, not ProtoOther) together with
// the router's per-frame hints and the shared cross-protocol
// SessionContext, and appends the events the frame completes to evs — the
// caller-owned scratch slice that makes the steady-state hot path
// allocation-free. Correlators run in registry order; within one frame,
// the event stream is the concatenation of each correlator's appends in
// that order. An event carries strings, never the view: whatever of the
// frame it reports is copied into its Detail, so nothing the correlators
// emit keeps the frame's memory alive.
type Correlator interface {
	// Name identifies the module (CLI -correlators selection, docs).
	Name() string
	// Protocols lists the footprint protocols this correlator consumes.
	Protocols() []Protocol
	// Process folds one frame view into the correlator's state, appending
	// any completed events to evs.
	Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event)
}

// Registration names a correlator constructor. Every pipeline (the serial
// generator, each shard's generator, and the sharded router) builds its
// own private instances from the registered constructors.
type Registration struct {
	Name string
	New  func() Correlator
}

// DefaultCorrelators returns the built-in registry in dispatch order. The
// order is part of the engine's observable behavior: it fixes the event
// order within a frame (e.g. a MESSAGE's bad-format event precedes its
// instant-message events) and the priority of port claims and routing
// keys.
func DefaultCorrelators() []Registration {
	return []Registration{
		// control registers first so the digest port claim outranks the
		// protocol claimers (see control_correlator.go); it emits no
		// events, so its position cannot affect per-frame event order.
		{Name: "control", New: func() Correlator { return newControlCorrelator() }},
		{Name: "sip", New: func() Correlator { return newSIPCorrelator() }},
		{Name: "im", New: func() Correlator { return newIMCorrelator() }},
		{Name: "rtp", New: func() Correlator { return newRTPCorrelator() }},
		{Name: "rtcp", New: func() Correlator { return newRTCPCorrelator() }},
		{Name: "acct", New: func() Correlator { return newAcctCorrelator() }},
		{Name: "options-scan", New: func() Correlator { return newOptionsScanCorrelator() }},
		{Name: "evasion", New: func() Correlator { return newEvasionCorrelator() }},
	}
}

// buildCorrelators instantiates a registry (nil = DefaultCorrelators) and
// configures each instance with the normalized generator config.
func buildCorrelators(regs []Registration, cfg GenConfig) []Correlator {
	if regs == nil {
		regs = DefaultCorrelators()
	}
	out := make([]Correlator, len(regs))
	for i, reg := range regs {
		out[i] = reg.New()
		if c, ok := out[i].(configurable); ok {
			c.configure(cfg)
		}
	}
	return out
}

// --- Capability interfaces ---
//
// A correlator implements only the capabilities it needs; the dispatcher,
// distiller and router probe with type assertions. All capabilities are
// package-internal: correlators live in this package (they share the
// session-state machinery), so nothing outside can or should implement
// them.

// configurable correlators receive the normalized GenConfig once, at
// pipeline construction, before any traffic flows.
type configurable interface {
	configure(cfg GenConfig)
}

// portClaimer correlators claim UDP port ranges for their protocol. The
// Distiller (and the sharded router's frame peek, which must classify
// identically) asks each registered claimer in registry order; the first
// claim wins and selects the protocol decoder. Traffic no correlator
// claims is ignored.
type portClaimer interface {
	claimPort(srcPort, dstPort uint16) (Protocol, bool)
}

// budgeted correlators own capped cross-session state (see Limits). They
// receive the budget before traffic flows, report which of their caps the
// sharded router enforces globally (so shard-local copies run uncapped),
// and fold their eviction counters into stats snapshots. Counters must be
// atomics: the router reads them lock-free while the routing lock is held
// elsewhere.
type budgeted interface {
	setLimits(l Limits)
	shardLocalLimits(l *Limits)
	contributeStats(st *EngineStats)
}

// snapshotter correlators carry private state that must survive a process
// restart, serialized through checkpoint/restore (snapshot.go). walkState
// spells the state's layout once for both directions: an encoding codec
// gets the live state deterministically (maps in sorted key order); a
// decoding codec fills fresh values WITHOUT mutating the correlator, and
// the returned closure installs them. The engine runs every install only
// after the whole snapshot has decoded cleanly, so a corrupt checkpoint
// can never leave a correlator half-reinstated. Correlators whose maps
// are aliased elsewhere (e.g. the RTP trackers the generator exposes for
// inspection) must refill them in place.
type snapshotter interface {
	walkState(cd *codec) (install func())
}

// stateSharder correlators hold worker-resident cross-session state keyed
// by routing key, and can merge and filter their serialized (snapshotter)
// state across shard boundaries. The portable-snapshot writer merges the
// per-shard blobs into one global blob, and restore filters the global
// blob down to each shard's keep set — the same routing keys sipRouteKey
// pins, so filtered state lands exactly where the router will send its
// traffic. Snapshotter correlators WITHOUT this capability are
// router-authoritative in the sharded engine (their hinter state sees
// every frame in global arrival order): the global blob is the router
// instance's state and restore installs onto the router instance.
type stateSharder interface {
	mergeState(blobs [][]byte) ([]byte, error)
	filterState(blob []byte, keep func(routeKey string) bool) ([]byte, error)
}

// expirer correlators hold state that ends on the sweep clock. Every
// periodic expiry sweep notifies them (sweepExpirers), whether or not it
// evicted a session, with the sweep's time and the session timeout.
type expirer interface {
	onExpire(now, timeout time.Duration)
}

// sweepExpirers is the correlator half of one periodic expiry sweep. The
// serial generator and the sharded router both call it beside their own
// directory sweep at the same frame position, so router-owned correlator
// state ends exactly when the serial engine's does.
func sweepExpirers(correlators []Correlator, now, timeout time.Duration) {
	for _, c := range correlators {
		if ex, ok := c.(expirer); ok {
			ex.onExpire(now, timeout)
		}
	}
}

// establishObserver correlators react to a session becoming established
// (the SIP 200-INVITE transition). The dispatcher and the router both
// deliver the notification immediately after applySIP reports it, so
// serial and sharded state move in lockstep.
type establishObserver interface {
	onEstablished(st *sessionState)
}

// sipRouteKeyer correlators override the sharded router's sticky routing
// key for a SIP dialog's first sighting. Returning ok pins the dialog
// (and everything filed under its Call-ID) to shard hash(key) instead of
// hash(Call-ID), which is how a correlator with cross-dialog state keeps
// that state shard-local and serial-equivalent. First claimer in registry
// order wins.
type sipRouteKeyer interface {
	sipRouteKey(m *sip.Message, out sipOutcome, src netip.AddrPort) (string, bool)
}

// sipHinter correlators compute a per-frame verdict for a SIP message at
// the router, in global arrival order, against router-owned state; the
// owning shard's correlator instance consumes the verdict from RouteHints
// instead of its local state.
type sipHinter interface {
	sipHint(at time.Duration, src, dst netip.AddrPort, m *sip.Message, out sipOutcome, h *RouteHints)
}

// claimPortOf classifies a datagram against a correlator set, returning
// the first claim in registry order.
func claimPortOf(correlators []Correlator, srcPort, dstPort uint16) (Protocol, bool) {
	for _, c := range correlators {
		if pc, ok := c.(portClaimer); ok {
			if proto, claimed := pc.claimPort(srcPort, dstPort); claimed {
				return proto, true
			}
		}
	}
	return ProtoOther, false
}

// handlesProto reports whether a correlator subscribed to a protocol.
// Called only at generator construction, when the per-protocol dispatch
// lists are precomputed; per-frame dispatch never walks Protocols().
func handlesProto(c Correlator, p Protocol) bool {
	for _, cp := range c.Protocols() {
		if cp == p {
			return true
		}
	}
	return false
}
