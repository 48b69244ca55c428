package core

import (
	"fmt"
	"net/netip"
	"time"
)

// SessionContext is the single cross-protocol state surface shared by
// every correlator: the session/dialog table (sessionIndex), the trail
// store, the registration-binding directory, and the per-frame scratch
// the dispatcher prepares (session key, memoized applySIP outcome). What
// used to be implicit struct-field coupling inside the monolithic Event
// Generator is now explicit: a correlator that needs state another
// protocol produced goes through a named SessionContext method (e.g.
// CheckPendingRTCPBye, Binding), so the cross-protocol edges are visible
// in the type system.
type SessionContext struct {
	cfg    GenConfig
	trails *TrailStore
	idx    *sessionIndex
	limits Limits

	// Registration bindings (AOR -> contact IP) are context state, not
	// correlator state: the SIP correlator writes them, the accounting
	// correlator reads them (billing fraud's registered-location check),
	// and the sharded router replicates them to every shard.
	bindings map[string]netip.Addr
	// bindingAge orders bindings for LRU eviction without changing the
	// shape of the bindings map itself; entries missing from it rank
	// oldest. bindingClock advances on every set/refresh.
	bindingAge   map[string]int
	bindingClock int

	evictedSessions int
	evictedBindings int

	// observers are the registered establishObserver correlators, notified
	// by beginFrame the moment applySIP reports a session established.
	observers []establishObserver

	// Per-frame scratch, valid from beginFrame to endFrame. st is the
	// dialog state the frame was resolved to, once, by beginFrame:
	// applySIP's for SIP, the attributed session's for RTP/RTCP (nil when
	// the flow belongs to no known session), nil for everything else.
	// Correlators read it and endFrame touches through it; nobody looks
	// the key up again.
	session string
	st      *sessionState
	sipOut  sipOutcome
}

// newSessionContext builds the shared context for one pipeline instance.
func newSessionContext(cfg GenConfig, trails *TrailStore) *SessionContext {
	return &SessionContext{
		cfg:        cfg,
		trails:     trails,
		idx:        newSessionIndex(),
		bindings:   make(map[string]netip.Addr),
		bindingAge: make(map[string]int),
	}
}

// beginFrame files the frame view into its trail and prepares the
// per-frame scratch: the session key every correlator sees, and — for SIP
// — the one-and-only applySIP application for this sighting, so dialog
// state moves exactly once no matter how many correlators consume the
// outcome. It reports whether the view's protocol is known.
func (ctx *SessionContext) beginFrame(v *FrameView, h RouteHints) bool {
	ctx.st, ctx.sipOut = nil, sipOutcome{}
	switch v.Proto {
	case ProtoSIP:
		// The trail is keyed by the session's own copy of the Call-ID, so
		// the two share one string and neither keeps the message alive.
		ctx.st, ctx.sipOut = ctx.idx.applySIP(v.Msg, v.At, v.Src)
		ctx.session = ctx.st.callID
		ctx.trails.Get(ctx.session, ProtoSIP).AppendView(v)
		if ctx.sipOut.established {
			for _, o := range ctx.observers {
				o.onEstablished(ctx.st)
			}
		}
	case ProtoRTP, ProtoRTCP:
		if h.Session != "" {
			// The router attributed the flow in global frame order; this
			// shard only resolves the key against its own table.
			ctx.session, ctx.st = h.Session, ctx.idx.sessions[h.Session]
		} else {
			ctx.session, ctx.st, _ = ctx.idx.attributeMedia(v.Proto, v.Src, v.Dst)
		}
		ctx.trails.Get(ctx.session, v.Proto).AppendView(v)
	case ProtoAccounting:
		ctx.session = v.Txn.CallID
		ctx.trails.Get(ctx.session, ProtoAccounting).AppendView(v)
	case ProtoOther:
		ctx.session = ctx.idx.endpointKey('w', "raw:", v.Dst)
		ctx.trails.Get(ctx.session, ProtoOther).AppendView(v)
	default:
		return false
	}
	return true
}

// endFrame records session activity for expiry bookkeeping (SIP, RTP and
// RTCP frames touch their session; accounting and raw traffic resolve no
// state, so do not, preserving the generator's historic expiry behavior).
func (ctx *SessionContext) endFrame(at time.Duration) {
	if ctx.st != nil {
		ctx.st.lastSeen = at
	}
}

// Config returns the normalized generator configuration.
func (ctx *SessionContext) Config() GenConfig { return ctx.cfg }

// Budget returns the installed state budget.
func (ctx *SessionContext) Budget() Limits { return ctx.limits }

// Session returns the session (trail) key of the footprint being
// processed.
func (ctx *SessionContext) Session() string { return ctx.session }

// SIP returns the memoized dialog state and transition outcome of the SIP
// footprint being processed. Only meaningful while a SIP view is in
// flight.
func (ctx *SessionContext) SIP() (st *sessionState, out sipOutcome) {
	return ctx.st, ctx.sipOut
}

// SessionState returns the dialog state of the frame in flight, as
// resolved by beginFrame: nil for a media flow no known session
// negotiated, and for accounting and raw traffic.
func (ctx *SessionContext) SessionState() *sessionState { return ctx.st }

// OpenSession returns the dialog state for a session key, creating it
// (subject to the MaxSessions budget) if needed.
func (ctx *SessionContext) OpenSession(id string) *sessionState {
	return ctx.idx.core(id)
}

// MediaDstSession maps a destination media endpoint to the session that
// negotiated it ("" when none has).
func (ctx *SessionContext) MediaDstSession(dst netip.AddrPort) string {
	if st := ctx.idx.mediaDstSession(dst); st != nil {
		return st.callID
	}
	return ""
}

// Binding returns the registered contact IP for an AOR.
func (ctx *SessionContext) Binding(aor string) (netip.Addr, bool) {
	ip, ok := ctx.bindings[aor]
	return ip, ok
}

// SetBinding installs or refreshes a registration binding, evicting the
// least-recently refreshed one (ties: smaller AOR; entries predating age
// tracking rank oldest) when MaxBindings would be exceeded.
func (ctx *SessionContext) SetBinding(aor string, ip netip.Addr) {
	if _, exists := ctx.bindings[aor]; !exists &&
		ctx.limits.MaxBindings > 0 && len(ctx.bindings) >= ctx.limits.MaxBindings {
		var vk string
		found := false
		for k := range ctx.bindings {
			if !found || ctx.bindingAge[k] < ctx.bindingAge[vk] ||
				(ctx.bindingAge[k] == ctx.bindingAge[vk] && k < vk) {
				vk, found = k, true
			}
		}
		if found {
			delete(ctx.bindings, vk)
			delete(ctx.bindingAge, vk)
			ctx.evictedBindings++
		}
	}
	ctx.bindings[aor] = ip
	ctx.bindingClock++
	ctx.bindingAge[aor] = ctx.bindingClock
}

// CheckPendingRTCPBye fires the spoofed-RTCP-BYE event once the grace
// period elapses without a SIP BYE appearing. This is the explicit
// three-protocol coupling point: the RTCP correlator arms the pending
// state, SIP dialog transitions can clear it, and whichever media or
// control packet next observes the session drives the verdict — so both
// the RTP and RTCP correlators call this on every sighting of a known
// session.
func (ctx *SessionContext) CheckPendingRTCPBye(st *sessionState, now time.Duration, evs *[]Event) {
	if !st.rtcpByePending || st.rtcpByeFired {
		return
	}
	if st.byeSeen {
		st.rtcpByePending = false // legitimate teardown caught up
		return
	}
	if now-st.rtcpByeAt <= ctx.cfg.ReinviteGrace {
		return
	}
	st.rtcpByePending = false
	st.rtcpByeFired = true
	*evs = append(*evs, Event{
		At: now, Type: EvRTCPSpoofedBye, Session: st.callID,
		Detail: fmt.Sprintf("RTCP BYE at %v with no SIP BYE after %v; media control and call signaling disagree",
			st.rtcpByeAt, ctx.cfg.ReinviteGrace),
	})
}
