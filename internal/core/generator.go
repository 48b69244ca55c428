package core

import (
	"net/netip"
	"time"

	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// GenConfig tunes the correlators' stateful checks.
type GenConfig struct {
	// MonitorWindow is "m": how long after a BYE/REINVITE the orphan-flow
	// monitor stays armed (Section 4.3). Default 1s.
	MonitorWindow time.Duration
	// ReinviteGrace delays the REINVITE orphan monitor: a legitimately
	// migrating phone keeps transmitting from its old socket until its
	// re-INVITE transaction completes, so media from the old address is
	// only suspicious after this grace period. Default 250ms.
	ReinviteGrace time.Duration
	// SeqJumpThreshold is the paper's empirically chosen sequence-number
	// discontinuity bound. Default 100.
	SeqJumpThreshold int
	// AuthFloodThreshold is how many 401s one session may draw before the
	// DoS event fires. Default 5.
	AuthFloodThreshold int
	// GuessThreshold is how many distinct challenge responses one session
	// may try before the password-guessing event fires. Default 3.
	GuessThreshold int
	// IMPeriod is how long a sender's source IP is expected to stay
	// stable (the rule's mobility allowance). Default 60s.
	IMPeriod time.Duration
	// DigestPort is the UDP port the cooperative layer's probe→aggregator
	// digest traffic runs on. The control correlator claims it so the
	// IDS's own control plane on a monitored link is classified (and
	// ignored) instead of raising protocol-mismatch/evasion alerts.
	// Default DefaultDigestPort.
	DigestPort uint16
	// RTPActivityEvery, when >0, makes the RTP correlator emit an
	// EvRTPActivity heartbeat at most once per interval per session —
	// the positive media-liveness evidence cross-point rules consume.
	// Default 0 (off), so single-tap event streams are unchanged.
	RTPActivityEvery time.Duration
}

// withDefaults fills zero fields.
func (c GenConfig) withDefaults() GenConfig {
	if c.MonitorWindow == 0 {
		c.MonitorWindow = time.Second
	}
	if c.ReinviteGrace == 0 {
		c.ReinviteGrace = 250 * time.Millisecond
	}
	if c.SeqJumpThreshold == 0 {
		c.SeqJumpThreshold = 100
	}
	if c.AuthFloodThreshold == 0 {
		c.AuthFloodThreshold = 5
	}
	if c.GuessThreshold == 0 {
		c.GuessThreshold = 3
	}
	if c.IMPeriod == 0 {
		c.IMPeriod = 60 * time.Second
	}
	if c.DigestPort == 0 {
		c.DigestPort = DefaultDigestPort
	}
	return c
}

// EventGenerator folds footprints into events. It is a thin dispatcher
// over the ordered correlator registry: per footprint it prepares the
// shared SessionContext (trail filing, session key, the single applySIP
// application), then runs every correlator subscribed to the footprint's
// protocol, concatenating their events in registry order. All protocol
// logic lives in the correlator modules (sip_correlator.go and friends);
// what remains here is session lifecycle plumbing shared by the serial
// engine and every shard.
type EventGenerator struct {
	cfg         GenConfig
	trails      *TrailStore
	ctx         *SessionContext
	correlators []Correlator
	idx         *sessionIndex
	limits      Limits

	// byProto are the per-protocol dispatch lists, precomputed at
	// construction so the per-frame loop never calls Protocols() (which
	// returns a fresh slice — a hidden per-frame allocation in the old
	// dispatcher).
	byProto [ProtoOther + 1][]Correlator

	// dropTrail drops an evicted session's trails, routing pin and rule
	// progress. Every path that drops a directory entry — the periodic
	// expire, the MaxSessions LRU eviction and the router-broadcast
	// EvictSession — runs it beside dropSession; a field, so
	// ExpireSessions does not allocate a closure per call.
	dropTrail func(id string)
	// rules is the rule engine the generator's events feed (nil for a
	// bare generator): dropTrail ends a dropped session's partials there.
	rules *RuleEngine

	// sticky mirrors the sharded router's Call-ID -> routing-key pins
	// (sharded.go classifySIPMsgLocked) on the router's exact lifecycle,
	// so a serial-written portable checkpoint carries the keys a sharded
	// restore needs to colocate cross-dialog state (IM sender sessions,
	// OPTIONS probes). nil on shard-local generators — only the serial
	// engine's own generator mirrors.
	sticky map[string]string

	// bindings aliases the context's registration bindings.
	bindings map[string]netip.Addr
}

// NewEventGenerator returns a generator over the default correlator
// registry, storing footprints into trails.
func NewEventGenerator(cfg GenConfig, trails *TrailStore) *EventGenerator {
	return newEventGeneratorFrom(cfg, trails, buildCorrelators(nil, cfg.withDefaults()))
}

// newEventGeneratorFrom wires a generator to already-built (and
// configured) correlator instances; NewEngine shares the instances with
// its distiller's port classification.
func newEventGeneratorFrom(cfg GenConfig, trails *TrailStore, correlators []Correlator) *EventGenerator {
	cfg = cfg.withDefaults()
	ctx := newSessionContext(cfg, trails)
	g := &EventGenerator{
		cfg:         cfg,
		trails:      trails,
		ctx:         ctx,
		correlators: correlators,
		idx:         ctx.idx,
		bindings:    ctx.bindings,
	}
	for _, c := range correlators {
		if o, ok := c.(establishObserver); ok {
			ctx.observers = append(ctx.observers, o)
		}
		for p := Protocol(1); p <= ProtoOther; p++ {
			if handlesProto(c, p) {
				g.byProto[p] = append(g.byProto[p], c)
			}
		}
	}
	g.dropTrail = func(id string) {
		g.trails.Drop(id)
		delete(g.sticky, id)
		if g.rules != nil {
			g.rules.dropSession(id)
		}
	}
	return g
}

// SetLimits installs the generator's share of the state budget. Must be
// called before traffic flows (NewEngine does).
func (g *EventGenerator) SetLimits(l Limits) {
	g.limits = l
	g.ctx.limits = l
	g.idx.maxSessions = l.MaxSessions
	g.idx.onCapEvict = func(id string) {
		g.dropTrail(id)
		g.ctx.evictedSessions++
	}
	for _, c := range g.correlators {
		if b, ok := c.(budgeted); ok {
			b.setLimits(l)
		}
	}
}

// EvictSession drops one session's dialog state, pending registration,
// and trails, reporting whether it existed. The sharded engine broadcasts
// router-side capacity evictions to shards through this.
func (g *EventGenerator) EvictSession(id string) bool {
	st, ok := g.idx.sessions[id]
	if !ok {
		return false
	}
	g.idx.dropSession(id, st)
	g.dropTrail(id)
	return true
}

// Bindings returns the registration bindings learned from traffic.
func (g *EventGenerator) Bindings() map[string]netip.Addr {
	out := make(map[string]netip.Addr, len(g.bindings))
	for k, v := range g.bindings {
		out[k] = v
	}
	return out
}

// ApplyBinding installs a registration binding learned elsewhere. The
// sharded router replicates each observed binding to every shard so that
// cross-session checks (billing fraud's registered-location comparison)
// see a consistent directory regardless of which shard learned it.
func (g *EventGenerator) ApplyBinding(aor string, ip netip.Addr) {
	g.ctx.SetBinding(aor, ip)
}

// session returns the state for a Call-ID, creating it if needed.
func (g *EventGenerator) session(callID string) *sessionState {
	return g.idx.core(callID)
}

// ExpireSessions drops per-session state (and the session's trails) for
// sessions idle longer than timeout as of now, then sweeps the expirer
// correlators: RTP continuity trackers silent longer than timeout, IM
// source histories older than IMPeriod, lapsed OPTIONS scan windows. It
// returns how many sessions were evicted. Registration bindings are live
// registrations, not history, and are kept (MaxBindings caps them).
// Tables the sweep has churned are rebuilt to their size (compact).
func (g *EventGenerator) ExpireSessions(now, timeout time.Duration) int {
	evicted := g.idx.expire(now, timeout, g.dropTrail)
	if g.idx.compact() && g.sticky != nil {
		g.sticky = rebuilt(g.sticky)
	}
	g.trails.compact()
	sweepExpirers(g.correlators, now, timeout)
	return evicted
}

// ProcessView folds one frame view into the trails and state, appending
// any completed events to evs. This is the steady-state hot path: the
// view, the hints and the event scratch are all caller-owned, so a frame
// that completes no event is processed with zero heap allocations.
func (g *EventGenerator) ProcessView(v *FrameView, h RouteHints, evs *[]Event) {
	if !g.ctx.beginFrame(v, h) {
		return
	}
	defer g.ctx.endFrame(v.At)
	// Routing-key mirror (serial engine only): pin the sticky key on the
	// dialog's first sighting exactly as the sharded router does
	// (classifySIPMsgLocked), so portable checkpoints restore to any
	// shard count with cross-dialog state colocated.
	if g.sticky != nil && v.Proto == ProtoSIP && g.ctx.st != nil {
		if _, ok := g.sticky[g.ctx.st.callID]; !ok {
			routeKey := g.ctx.st.callID
			if v.StreamKey != "" {
				// Stream-carried message: flow affinity wins (the router
				// routes by TCP 4-tuple, see streamFlowKey).
				routeKey = v.StreamKey
			} else {
				for _, c := range g.correlators {
					if rk, isKeyer := c.(sipRouteKeyer); isKeyer {
						if k, claimed := rk.sipRouteKey(v.Msg, g.ctx.sipOut, v.Src); claimed {
							routeKey = k
							break
						}
					}
				}
			}
			g.sticky[g.ctx.st.callID] = routeKey
		}
	}
	p := v.dispatchProto()
	if p < 0 || int(p) >= len(g.byProto) {
		return
	}
	for _, c := range g.byProto[p] {
		c.Process(v, h, g.ctx, evs)
	}
}

// mediaFromBody extracts the audio endpoint from a message's SDP body.
func mediaFromBody(m *sip.Message) (netip.AddrPort, bool) {
	return sdp.MediaEndpointOf(m.Body, "audio")
}
