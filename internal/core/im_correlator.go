package core

import (
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"scidive/internal/sip"
)

// imCorrelator applies the fake-IM source-stability rule (Figure 6) to
// SIP MESSAGE requests. The source history is keyed by (claimed sender,
// delivery destination): on a hub tap each proxy relay leg is a distinct
// delivery path with its own stable source, matching what the paper's
// per-endpoint IDS would see.
//
// An entry older than IMPeriod is judged exactly like an absent one, so
// the expiry sweep drops it (onExpire) without changing any verdict.
//
// The history spans SIP dialogs, so in sharded mode it is router-owned:
// the router's instance judges every MESSAGE in global arrival order
// (sipHint) and pins each MESSAGE dialog to the sender's shard
// (sipRouteKey); the shard instances consume the verdict from RouteHints
// and leave their own maps untouched.
type imCorrelator struct {
	cfg    GenConfig
	limits Limits
	ims    map[string]imRecord // "AOR|dstIP" -> last IM source on that delivery path
	// evicted is atomic: the sharded router reads it for lock-free stats
	// while the routing lock is held elsewhere.
	evicted atomic.Uint64
	// swept counts histories the sweep has dropped since ims was last
	// rebuilt (see churned).
	swept int
}

func newIMCorrelator() *imCorrelator {
	return &imCorrelator{ims: make(map[string]imRecord)}
}

func (c *imCorrelator) Name() string            { return "im" }
func (c *imCorrelator) Protocols() []Protocol   { return []Protocol{ProtoSIP} }
func (c *imCorrelator) configure(cfg GenConfig) { c.cfg = cfg }

func (c *imCorrelator) setLimits(l Limits)         { c.limits = l }
func (c *imCorrelator) shardLocalLimits(l *Limits) { l.MaxIMHistories = 0 }
func (c *imCorrelator) contributeStats(st *EngineStats) {
	st.IMHistoriesEvicted += int(c.evicted.Load())
}

// isIM reports whether a sighting is a judgeable MESSAGE request.
func isIM(m *sip.Message, out sipOutcome) bool {
	return m.IsRequest() && out.fromToOK && m.Method == sip.MethodMessage
}

// sipRouteKey pins MESSAGE dialogs to the sender's IM session ("im:" +
// AOR) so that fake-IM rule state for one sender colocates across
// Call-IDs.
func (c *imCorrelator) sipRouteKey(m *sip.Message, out sipOutcome, src netip.AddrPort) (string, bool) {
	if !isIM(m, out) {
		return "", false
	}
	return "im:" + out.from.AOR, true
}

// sipHint judges a MESSAGE against the router-owned source history, in
// arrival order, exactly as the serial correlator would.
func (c *imCorrelator) sipHint(at time.Duration, src, dst netip.AddrPort, m *sip.Message, out sipOutcome, h *RouteHints) {
	if !isIM(m, out) {
		return
	}
	if mismatch, prev := c.judge(out.from.AOR, src.Addr(), dst.Addr(), at); mismatch {
		h.IM = IMVerdict{Mismatch: true, PrevIP: prev}
	}
	h.HasIM = true
}

// onExpire drops source histories older than the mobility allowance; the
// sweep's session timeout does not apply to them.
func (c *imCorrelator) onExpire(now, _ time.Duration) {
	for k, rec := range c.ims {
		if now-rec.at > c.cfg.IMPeriod {
			delete(c.ims, k)
			c.swept++
		}
	}
	if churned(&c.swept, len(c.ims)) {
		c.ims = rebuilt(c.ims)
	}
}

// judge folds one MESSAGE sighting into the source history, reporting a
// source mismatch (and the previously seen source) when the claimed
// sender's source changed within the mobility allowance.
func (c *imCorrelator) judge(aor string, src, dst netip.Addr, at time.Duration) (mismatch bool, prev netip.Addr) {
	histKey := aor + "|" + dst.String()
	rec, seen := c.ims[histKey]
	switch {
	case !seen || at-rec.at > c.cfg.IMPeriod:
		// First sighting, or beyond the mobility allowance: accept and
		// remember the source.
		if !seen && c.limits.MaxIMHistories > 0 && len(c.ims) >= c.limits.MaxIMHistories {
			if evictStalestIM(c.ims) != "" {
				c.evicted.Add(1)
			}
		}
		c.ims[histKey] = imRecord{ip: src, at: at}
	case rec.ip != src:
		return true, rec.ip
	default:
		c.ims[histKey] = imRecord{ip: src, at: at}
	}
	return false, netip.Addr{}
}

func (c *imCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	if v.Proto != ProtoSIP {
		return
	}
	_, out := ctx.SIP()
	if !isIM(v.Msg, out) {
		return
	}
	aor := out.from.AOR
	session := "im:" + aor
	*evs = append(*evs, Event{At: v.At, Type: EvSIPInstantMessage, Session: session,
		Detail: fmt.Sprintf("from %s via %v", aor, v.Src.Addr())})
	mismatch, prev := false, netip.Addr{}
	if h.HasIM {
		// The router already judged this MESSAGE against the global source
		// history; the local map stays untouched.
		mismatch, prev = h.IM.Mismatch, h.IM.PrevIP
	} else {
		mismatch, prev = c.judge(aor, v.Src.Addr(), v.Dst.Addr(), v.At)
	}
	if mismatch {
		*evs = append(*evs, Event{
			At: v.At, Type: EvIMSourceMismatch, Session: session,
			Detail: fmt.Sprintf("IM claiming %s came from %v; recent messages to %v came from %v",
				aor, v.Src.Addr(), v.Dst.Addr(), prev),
		})
	}
}

// imRecord tracks the last source of instant messages per claimed sender.
type imRecord struct {
	ip netip.Addr
	at time.Duration
}

// imEntry is one source history as a checkpoint carries it.
type imEntry struct {
	key string
	rec imRecord
}

// walkState walks the source histories in key order, then the eviction
// count. The install closure refills the map in place.
func (c *imCorrelator) walkState(cd *codec) func() {
	var entries []imEntry
	var evicted uint64
	if cd.enc {
		entries = make([]imEntry, 0, len(c.ims))
		for k, rec := range c.ims {
			entries = append(entries, imEntry{key: k, rec: rec})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		evicted = c.evicted.Load()
	}
	seq(cd, &entries, func(cd *codec, e *imEntry) {
		cd.str(&e.key)
		cd.addr(&e.rec.ip)
		cd.dur(&e.rec.at)
	})
	cd.u64(&evicted)
	return func() {
		clear(c.ims)
		for _, e := range entries {
			c.ims[e.key] = e.rec
		}
		c.evicted.Store(evicted)
	}
}

// evictStalestIM removes the least-recently-seen IM history entry (ties
// broken by the smaller key) and returns its key, or "" when empty. The
// serial correlator and the sharded router's instance both call this so
// capped IM state evicts identical victims.
func evictStalestIM(ims map[string]imRecord) string {
	var vk string
	found := false
	for k, r := range ims {
		if !found || r.at < ims[vk].at || (r.at == ims[vk].at && k < vk) {
			vk, found = k, true
		}
	}
	if found {
		delete(ims, vk)
	}
	return vk
}
