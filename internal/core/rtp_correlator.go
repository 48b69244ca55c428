package core

import (
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"scidive/internal/rtp"
)

// rtpCorrelator correlates media traffic: sequence-number continuity per
// destination endpoint (paper Section 4.2.4), garbage on media ports
// (the Figure 8 attack signature), and the stateful cross-protocol checks
// for media belonging to a known SIP session — orphan flows after BYE
// (Figure 5) or REINVITE (Figure 7), and source legitimacy (Figure 8).
//
// The continuity trackers span sessions (they are keyed by endpoint), so
// in sharded mode they are router-owned: the router's instance computes
// the verdict in global frame order (track, or advance on a tracker its
// flow memo cached) and the shard instances consume it from RouteHints,
// leaving their own maps untouched. A tracker ends once its endpoint has
// been silent for a session timeout (onExpire, on the sweep clock both
// engines share), so the map holds what the live window holds.
type rtpCorrelator struct {
	cfg    GenConfig
	limits Limits
	seqs   map[netip.AddrPort]*seqTrack
	// evicted is atomic: the sharded router reads it for lock-free stats
	// while the routing lock is held elsewhere.
	evicted atomic.Uint64
	// epoch counts removals from seqs: a tracker pointer the router's
	// flow memo (flowmemo.go) caches is seqs[dst] while the epoch it was
	// filled at is current. Inserts leave existing pointers valid.
	epoch uint64
	// swept counts trackers the sweep has dropped since seqs was last
	// rebuilt (see churned).
	swept int
}

func newRTPCorrelator() *rtpCorrelator {
	return &rtpCorrelator{seqs: make(map[netip.AddrPort]*seqTrack)}
}

func (c *rtpCorrelator) Name() string            { return "rtp" }
func (c *rtpCorrelator) Protocols() []Protocol   { return []Protocol{ProtoRTP} }
func (c *rtpCorrelator) configure(cfg GenConfig) { c.cfg = cfg }

// claimPort claims even media ports (RTP by convention).
func (c *rtpCorrelator) claimPort(srcPort, dstPort uint16) (Protocol, bool) {
	if dstPort >= defaultMediaPortFloor && dstPort%2 == 0 {
		return ProtoRTP, true
	}
	return ProtoOther, false
}

// contentConfirmer: RTP's wire shape (version bits, payload type outside
// the RTCP conflict range, nonzero SSRC) nominates payloads tunneled over
// non-media ports for reclassification (classify.go).
func (c *rtpCorrelator) contentProto() Protocol             { return ProtoRTP }
func (c *rtpCorrelator) confirmContent(payload []byte) bool { return confirmRTPContent(payload) }

func (c *rtpCorrelator) setLimits(l Limits)         { c.limits = l }
func (c *rtpCorrelator) shardLocalLimits(l *Limits) { l.MaxSeqTrackers = 0 }
func (c *rtpCorrelator) contributeStats(st *EngineStats) {
	st.SeqTrackersEvicted += int(c.evicted.Load())
}

// onEstablished clears continuity trackers for a freshly negotiated
// session's endpoints: RTP sequence numbers restart at a random value, so
// stale trackers from earlier calls must not carry over.
func (c *rtpCorrelator) onEstablished(st *sessionState) {
	c.forget(st.callerMedia)
	c.forget(st.calleeMedia)
}

// forget drops the tracker for one endpoint, if there is one.
func (c *rtpCorrelator) forget(ep netip.AddrPort) {
	if _, ok := c.seqs[ep]; ok {
		delete(c.seqs, ep)
		c.epoch++
	}
}

// onExpire drops every tracker whose endpoint has been silent for longer
// than the session timeout, on every sweep: trackers are keyed by
// endpoint, not session, so an RTP-only flood to fresh endpoints is
// reclaimed too. A packet to a dropped endpoint opens a new flow. The
// epoch moves once if anything went, so the router's flow memo
// revalidates its pointers; a rebuild of the churned map moves no tracker.
func (c *rtpCorrelator) onExpire(now, timeout time.Duration) {
	dropped := 0
	for ep, tr := range c.seqs {
		if now-tr.at > timeout {
			delete(c.seqs, ep)
			dropped++
		}
	}
	if dropped > 0 {
		c.epoch++
	}
	c.swept += dropped
	if churned(&c.swept, len(c.seqs)) {
		c.seqs = rebuilt(c.seqs)
	}
}

// track folds one packet into the continuity tracker for its destination,
// returning the verdict and the tracker. The serial correlator and the
// sharded router's instance run exactly this, so verdicts and evictions
// match packet for packet; the router's flow memo keeps the tracker and
// runs advance on it until the epoch moves.
func (c *rtpCorrelator) track(at time.Duration, dst netip.AddrPort, seq uint16) (SeqVerdict, *seqTrack) {
	tr, ok := c.seqs[dst]
	if !ok {
		if c.limits.MaxSeqTrackers > 0 && len(c.seqs) >= c.limits.MaxSeqTrackers {
			if evictStalestSeq(c.seqs) {
				c.evicted.Add(1)
				c.epoch++
			}
		}
		tr = &seqTrack{}
		c.seqs[dst] = tr
	}
	return c.advance(tr, !ok, at, seq), tr
}

// advance folds one packet into a tracker that is seqs[dst]; newFlow says
// track just made it. It fits the inlining budget, so neither track nor
// the flow memo's hit path pays a call for it.
func (c *rtpCorrelator) advance(tr *seqTrack, newFlow bool, at time.Duration, seq uint16) (v SeqVerdict) {
	if tr.primed {
		v.Prev, v.Jump = tr.last, abs(rtp.SeqDiff(tr.last, seq)) > c.cfg.SeqJumpThreshold
	}
	if every := c.cfg.RTPActivityEvery; every > 0 && (newFlow || at-tr.lastAct >= every) {
		v.Activity, tr.lastAct = true, at
	}
	v.NewFlow, tr.primed, tr.last, tr.at = newFlow, true, seq, at
	return v
}

func (c *rtpCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	switch v.Proto {
	case ProtoOther:
		c.garbageEvent(v, h, ctx, evs)
	case ProtoRTP:
		c.processRTP(v, h, ctx, evs)
	}
}

// garbageEvent reports undecodable traffic on an RTP port, attributed to
// the session that negotiated the destination endpoint when one has.
func (c *rtpCorrelator) garbageEvent(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	eventSession := h.Session
	if eventSession == "" {
		eventSession = ctx.Session()
		if s := ctx.MediaDstSession(v.Dst); s != "" {
			eventSession = s
		}
	}
	*evs = append(*evs, Event{
		At: v.At, Type: EvRTPGarbage, Session: eventSession,
		Detail: fmt.Sprintf("undecodable %d bytes on RTP port from %v: %s", v.RawLen, v.Src, v.Reason),
	})
}

func (c *rtpCorrelator) processRTP(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	session := ctx.Session()
	sv := h.Seq
	if !h.HasSeq {
		sv, _ = c.track(v.At, v.Dst, v.RTP.Seq)
	}
	if sv.NewFlow {
		*evs = append(*evs, Event{At: v.At, Type: EvRTPNewFlow, Session: session,
			Detail: fmt.Sprintf("%v -> %v ssrc=%08x", v.Src, v.Dst, v.RTP.SSRC)})
	}
	if sv.Jump {
		d := rtp.SeqDiff(sv.Prev, v.RTP.Seq)
		*evs = append(*evs, Event{
			At: v.At, Type: EvRTPSeqJump, Session: session,
			Detail: fmt.Sprintf("seq %d -> %d (|Δ|=%d > %d) at %v",
				sv.Prev, v.RTP.Seq, abs(d), c.cfg.SeqJumpThreshold, v.Dst),
		})
	}
	st := ctx.SessionState()
	// Media-liveness heartbeat for cross-point rules (see GenConfig.
	// RTPActivityEvery): at most one event per interval per endpoint, so a
	// remote aggregator can prove media kept flowing without shipping
	// per-packet evidence. Suppressed once this tap has seen the session's
	// BYE — post-teardown media is orphan evidence (EvRTPAfterBye), not
	// liveness, and a vantage that witnessed a legitimate hangup must not
	// report the last in-flight packets as the call still being up.
	if sv.Activity && !(st != nil && st.byeSeen) {
		*evs = append(*evs, Event{At: v.At, Type: EvRTPActivity, Session: session,
			Detail: fmt.Sprintf("media flowing to %v", v.Dst)})
	}
	if st == nil {
		return
	}
	c.checkSessionRTP(v, st, ctx, evs)
}

// checkSessionRTP applies the stateful cross-protocol checks for media
// belonging to a known SIP session. The pending-RTCP-BYE check runs
// first: its event predates this packet's own findings.
func (c *rtpCorrelator) checkSessionRTP(v *FrameView, st *sessionState, ctx *SessionContext, evs *[]Event) {
	ctx.CheckPendingRTCPBye(st, v.At, evs)
	// Orphan flow after BYE (Figure 5 rule).
	if st.byeSeen && v.Src == st.byeFromMedia &&
		v.At > st.byeAt && v.At-st.byeAt <= c.cfg.MonitorWindow {
		*evs = append(*evs, Event{
			At: v.At, Type: EvRTPAfterBye, Session: st.callID,
			Detail: fmt.Sprintf("RTP from %v %.1fms after its BYE", v.Src, (v.At-st.byeAt).Seconds()*1000),
		})
	}
	// Orphan flow after REINVITE (Figure 7 rule): traffic still arriving
	// from the address the "moved" party supposedly left, once the
	// migration transaction has had time to complete.
	if st.reinviteSeen && v.Src == st.reinviteOldMedia &&
		v.At-st.reinviteAt > c.cfg.ReinviteGrace &&
		v.At-st.reinviteAt <= c.cfg.ReinviteGrace+c.cfg.MonitorWindow {
		*evs = append(*evs, Event{
			At: v.At, Type: EvRTPAfterReinvite, Session: st.callID,
			Detail: fmt.Sprintf("RTP still arriving from old media address %v %.1fms after REINVITE",
				v.Src, (v.At-st.reinviteAt).Seconds()*1000),
		})
	}
	// Source legitimacy (Figure 8 rule): media to a negotiated endpoint
	// must come from the other negotiated endpoint.
	if !st.byeSeen {
		var expected netip.AddrPort
		switch v.Dst {
		case st.callerMedia:
			expected = st.calleeMedia
		case st.calleeMedia:
			expected = st.callerMedia
		}
		if expected.IsValid() && v.Src.Addr() != expected.Addr() {
			*evs = append(*evs, Event{
				At: v.At, Type: EvRTPBadSource, Session: st.callID,
				Detail: fmt.Sprintf("media to %v from %v; session negotiated %v", v.Dst, v.Src, expected),
			})
		}
	}
}

// seqTrack tracks RTP sequence continuity per destination media endpoint.
type seqTrack struct {
	last    uint16
	primed  bool
	at      time.Duration // last packet toward this endpoint (LRU eviction)
	lastAct time.Duration // last activity heartbeat (RTPActivityEvery cadence)
}

// seqEntry is one continuity tracker as a checkpoint carries it.
type seqEntry struct {
	dst netip.AddrPort
	tr  seqTrack
}

// walkState walks the continuity trackers in endpoint order, then the
// eviction count. The install closure refills the map in place.
func (c *rtpCorrelator) walkState(cd *codec) func() {
	var entries []seqEntry
	var evicted uint64
	if cd.enc {
		entries = make([]seqEntry, 0, len(c.seqs))
		for k, tr := range c.seqs {
			entries = append(entries, seqEntry{dst: k, tr: *tr})
		}
		sort.Slice(entries, func(i, j int) bool { return seqLess(entries[i].dst, entries[j].dst) })
		evicted = c.evicted.Load()
	}
	seq(cd, &entries, func(cd *codec, e *seqEntry) {
		cd.addrPort(&e.dst)
		cd.u16(&e.tr.last)
		cd.bool(&e.tr.primed)
		cd.dur(&e.tr.at)
		cd.dur(&e.tr.lastAct)
	})
	cd.u64(&evicted)
	return func() {
		clear(c.seqs)
		for _, e := range entries {
			tr := new(seqTrack)
			*tr = e.tr
			c.seqs[e.dst] = tr
		}
		c.epoch++
		c.evicted.Store(evicted)
	}
}

// evictStalestSeq removes the sequence tracker with the oldest last
// packet (ties broken by endpoint address, then port) and reports whether
// one was removed. Shared by the serial correlator and the sharded
// router's instance.
func evictStalestSeq(seqs map[netip.AddrPort]*seqTrack) bool {
	var vk netip.AddrPort
	found := false
	for k, tr := range seqs {
		if !found || tr.at < seqs[vk].at || (tr.at == seqs[vk].at && seqLess(k, vk)) {
			vk, found = k, true
		}
	}
	if found {
		delete(seqs, vk)
	}
	return found
}

func seqLess(a, b netip.AddrPort) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Port() < b.Port()
}

func abs(d int) int {
	if d < 0 {
		return -d
	}
	return d
}
