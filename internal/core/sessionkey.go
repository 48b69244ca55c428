package core

import (
	"net/netip"
	"strings"
	"time"

	"scidive/internal/sip"
)

// This file is the session-keying core shared by the serial Engine and the
// ShardedEngine. Both engines must agree exactly on (a) which session key a
// footprint is filed under and (b) how SIP sightings mutate per-session
// state, because the sharded router uses the same logic to decide which
// shard owns a frame: a session's SIP, RTP, RTCP and accounting traffic
// must all land on the shard that holds its trails, or cross-protocol
// rules silently stop firing.

// sessionState is the per-call state the generator accumulates.
type sessionState struct {
	callID      string
	lastSeen    time.Duration
	established bool

	callerAOR   string
	calleeAOR   string
	callerTag   string
	calleeTag   string
	callerMedia netip.AddrPort
	calleeMedia netip.AddrPort
	inviteSrcIP netip.Addr // network source of the first INVITE sighting

	byeSeen      bool
	byeAt        time.Duration
	byeFromMedia netip.AddrPort // media of the purported BYE sender

	lastReinviteSeq  uint32
	reinviteSeen     bool
	reinviteAt       time.Duration
	reinviteOldMedia netip.AddrPort // media the "moved" party used before

	badFormat     bool
	acctStart     bool
	unmatchedOnce bool

	// RTCP BYE correlation (three-protocol chain: SIP state, RTP media,
	// RTCP control).
	rtcpByeAt      time.Duration
	rtcpByePending bool
	rtcpByeFired   bool

	// Registration-session state (Section 3.3).
	isRegistration bool
	challenges     int
	floodFired     bool
	guessResponses map[string]struct{} // nil until the first credentials
	guessFired     bool

	// routeShard is a derived cache, valid for the state's lifetime and
	// never checkpointed (sharded router's directory only): 1 + the shard
	// the dialog's pinned routing key hashes to, 0 until a media packet
	// first needs it (see mediaShardLocked). It sits in guessFired's
	// padding.
	routeShard int32
}

// sessionIndex holds the session table and the SIP transitions that feed
// it. The serial engine's EventGenerator embeds one; the sharded router
// owns a second, independent copy (its "directory") built from the same
// frame stream, which is what lets it attribute media flows to sessions
// without consulting any shard.
//
// byMedia is the reverse map from negotiated media endpoint to the
// sessions holding it (a session holding one endpoint as both caller and
// callee media is listed twice), so attributing a media frame is a map
// lookup plus a pick among the few calls that share the endpoint under
// the flowSessionLess total order, whatever the size of the table.
type sessionIndex struct {
	sessions   map[string]*sessionState
	pendingReg map[string]string // Call-ID -> AOR awaiting 200
	byMedia    map[netip.AddrPort][]*sessionState

	// endpointKeys interns the address-derived fallback session keys
	// ("rtp:<ep>", "rtcp:<ep>", "raw:<ep>") so steady-state media traffic
	// toward a known endpoint never re-formats the key string per frame.
	endpointKeys map[endpointKeyID]string

	// maxSessions caps the table (0 = unbounded): creating a session at
	// the cap first evicts the least-recently-touched one (ties: smaller
	// Call-ID), reporting it via onCapEvict so the owner can drop the
	// victim's trails and count the eviction.
	maxSessions int
	onCapEvict  func(id string)

	// epoch counts inserts into and removals from sessions and byMedia,
	// the only changes that can move a sole attribution (see
	// attributeMedia); the sharded router's flow memo (flowmemo.go) keeps
	// an answer only while the epoch it was filled at is current.
	epoch uint64

	// swept counts the sessions the expiry sweep has dropped since the
	// directory's maps were last rebuilt (compact).
	swept int
}

// newSessionIndex returns an empty index.
func newSessionIndex() *sessionIndex {
	return &sessionIndex{
		sessions:     make(map[string]*sessionState),
		pendingReg:   make(map[string]string),
		byMedia:      make(map[netip.AddrPort][]*sessionState),
		endpointKeys: make(map[endpointKeyID]string),
	}
}

// endpointKeyID identifies one interned fallback key: the key kind
// ('r' = rtp, 'c' = rtcp, 'w' = raw) plus the endpoint.
type endpointKeyID struct {
	kind byte
	ap   netip.AddrPort
}

// endpointKeyCap bounds the interned-key table; an adversary spraying
// unique endpoints only forces re-formatting, never unbounded growth.
const endpointKeyCap = 4096

// endpointKey returns the interned prefix+endpoint fallback key.
func (x *sessionIndex) endpointKey(kind byte, prefix string, ap netip.AddrPort) string {
	id := endpointKeyID{kind: kind, ap: ap}
	if s, ok := x.endpointKeys[id]; ok {
		return s
	}
	if len(x.endpointKeys) >= endpointKeyCap {
		clear(x.endpointKeys)
	}
	s := prefix + ap.String()
	x.endpointKeys[id] = s
	return s
}

// core returns the state for a Call-ID, creating it if needed. A new
// state keeps its own copy of the Call-ID, which is also the table's key
// and every trail's: callID may be a substring of a message.
func (x *sessionIndex) core(callID string) *sessionState {
	st, ok := x.sessions[callID]
	if !ok {
		if x.maxSessions > 0 && len(x.sessions) >= x.maxSessions {
			x.evictLRU()
		}
		st = &sessionState{callID: strings.Clone(callID)}
		x.sessions[st.callID] = st
		x.epoch++ // a Call-ID can spell a fallback key ("rtp:<ep>")
	}
	return st
}

// addClone adds a copy of s to set unless set already holds s: a set
// outlives the frame, and s may be a substring of a message.
func addClone(set map[string]struct{}, s string) {
	if _, ok := set[s]; !ok {
		set[strings.Clone(s)] = struct{}{}
	}
}

// evictLRU drops the least-recently-touched session (ties broken by the
// smaller Call-ID, so eviction order never depends on map iteration).
func (x *sessionIndex) evictLRU() {
	var vid string
	var vst *sessionState
	for id, st := range x.sessions {
		if vst == nil || st.lastSeen < vst.lastSeen ||
			(st.lastSeen == vst.lastSeen && id < vid) {
			vid, vst = id, st
		}
	}
	if vst == nil {
		return
	}
	x.dropSession(vid, vst)
	if x.onCapEvict != nil {
		x.onCapEvict(vid)
	}
}

// dropSession removes one session and every index entry that points at
// it, including a pending registration keyed by the same Call-ID (left
// dangling by earlier versions of expire).
func (x *sessionIndex) dropSession(id string, st *sessionState) {
	delete(x.sessions, id)
	delete(x.pendingReg, id)
	x.unindexMedia(st, st.callerMedia)
	x.unindexMedia(st, st.calleeMedia)
	x.epoch++
}

// expire drops per-session state for sessions idle longer than timeout as
// of now, invoking onEvict (if non-nil) with each evicted session id. It
// returns how many sessions were evicted.
func (x *sessionIndex) expire(now, timeout time.Duration, onEvict func(id string)) int {
	evicted := 0
	for id, st := range x.sessions {
		if now-st.lastSeen > timeout {
			x.dropSession(id, st)
			if onEvict != nil {
				onEvict(id)
			}
			evicted++
		}
	}
	x.swept += evicted
	return evicted
}

// compact rebuilds the directory's maps once they are churned, and
// reports whether it did.
func (x *sessionIndex) compact() bool {
	if !churned(&x.swept, len(x.sessions)) {
		return false
	}
	x.sessions, x.pendingReg, x.byMedia = rebuilt(x.sessions), rebuilt(x.pendingReg), rebuilt(x.byMedia)
	return true
}

// churned reports whether a table is due for a rebuild: the sweep has
// dropped more entries from it since the last one (*swept) than it still
// holds (live). If so, the count starts again. A Go map never hands back
// the room its deletions leave, so a table keyed by ever-fresh identities
// (Call-IDs, endpoints, senders) keeps growing its capacity under churn
// while its length stays flat. Rebuilding at this point costs each
// dropped entry one copy at most.
func churned(swept *int, live int) bool {
	if *swept <= live {
		return false
	}
	*swept = 0
	return true
}

// rebuilt returns a copy of m sized to what it holds (maps.Clone does
// not promise that). Nothing reads a table's layout or iteration order,
// so swapping a table for its copy is invisible in any output.
func rebuilt[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (x *sessionIndex) indexMedia(st *sessionState, media netip.AddrPort) {
	if !media.IsValid() {
		return
	}
	x.byMedia[media] = append(x.byMedia[media], st)
	x.epoch++
}

func (x *sessionIndex) unindexMedia(st *sessionState, media netip.AddrPort) {
	if !media.IsValid() {
		return
	}
	x.epoch++
	list := x.byMedia[media]
	for i, cand := range list {
		if cand == st {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(x.byMedia, media)
	} else {
		x.byMedia[media] = list
	}
}

// setCallerMedia / setCalleeMedia update a session's negotiated media
// endpoints, keeping the reverse index consistent. All media writes must
// go through these.
func (x *sessionIndex) setCallerMedia(st *sessionState, media netip.AddrPort) {
	if st.callerMedia != media {
		x.unindexMedia(st, st.callerMedia)
		x.indexMedia(st, media)
	}
	st.callerMedia = media
}

func (x *sessionIndex) setCalleeMedia(st *sessionState, media netip.AddrPort) {
	if st.calleeMedia != media {
		x.unindexMedia(st, st.calleeMedia)
		x.indexMedia(st, media)
	}
	st.calleeMedia = media
}

// attributeMedia resolves an RTP or RTCP flow to the session (trail) key it
// is filed under and the dialog state behind that key: the negotiated
// session when one holds either endpoint, else the interned
// address-derived fallback key ("rtp:<dst>" / "rtcp:<dst>"). The fallback
// key is still looked up in the table — a SIP dialog whose Call-ID spells
// a fallback key is the state such flows see and touch — which is the one
// string lookup left on the media path, paid by unattributed flows only.
// The serial engine and the sharded router both attribute here (shards
// take the router's key as a hint), so trails are keyed identically by
// construction.
//
// sole reports that at most one distinct session holds either endpoint
// (after the RTCP port shift). flowSessionLess only ranks two or more
// candidates, so a sole answer stays right until sessions or byMedia
// change — which bumps epoch — and the router's flow memo keeps only
// sole answers. The serial engine ignores it.
func (x *sessionIndex) attributeMedia(proto Protocol, src, dst netip.AddrPort) (key string, st *sessionState, sole bool) {
	if proto == ProtoRTCP {
		if st, sole = x.rtcpFlowSession(src, dst); st != nil {
			return st.callID, st, sole
		}
		key = x.endpointKey('c', "rtcp:", dst)
	} else {
		if st, sole = x.flowSession(src, dst); st != nil {
			return st.callID, st, sole
		}
		key = x.endpointKey('r', "rtp:", dst)
	}
	return key, x.sessions[key], true
}

// flowSession maps a media flow to the SIP session that negotiated either
// endpoint (nil when none has), and reports whether it was the only
// candidate. Sessions whose media is still unknown (zero-valued) have no
// byMedia entry, so never match. Consecutive calls frequently renegotiate
// the same media ports, so among candidates the live (not torn down),
// most recently active session wins; ties break on the session id for
// determinism.
func (x *sessionIndex) flowSession(src, dst netip.AddrPort) (*sessionState, bool) {
	best, sole := bestFlowSession(nil, true, x.byMedia[dst])
	return bestFlowSession(best, sole, x.byMedia[src])
}

// bestFlowSession returns the best of best and cands under
// flowSessionLess, and sole unless cands holds a session other than the
// best so far. A session listed twice is one candidate: flowSessionLess
// never prefers a session to itself.
func bestFlowSession(best *sessionState, sole bool, cands []*sessionState) (*sessionState, bool) {
	for _, st := range cands {
		switch {
		case best == nil:
			best = st
		case st != best:
			sole = false
			if flowSessionLess(best, st) {
				best = st
			}
		}
	}
	return best, sole
}

// flowSessionLess reports whether candidate b should replace the current
// best a when attributing a media flow.
func flowSessionLess(a, b *sessionState) bool {
	// Live sessions outrank torn-down ones: an old call's BYE must not
	// capture the media of the call that replaced it (it still matches
	// within its own monitoring window via lastSeen recency below).
	aLive, bLive := !a.byeSeen, !b.byeSeen
	if aLive != bLive {
		return bLive
	}
	if a.lastSeen != b.lastSeen {
		return b.lastSeen > a.lastSeen
	}
	return b.callID > a.callID
}

// rtcpFlowSession maps an RTCP flow (media port + 1 by convention) to its
// session, as flowSession does.
func (x *sessionIndex) rtcpFlowSession(src, dst netip.AddrPort) (*sessionState, bool) {
	down := func(ap netip.AddrPort) netip.AddrPort {
		if !ap.IsValid() || ap.Port() == 0 {
			return ap
		}
		return netip.AddrPortFrom(ap.Addr(), ap.Port()-1)
	}
	return x.flowSession(down(src), down(dst))
}

// mediaDstSession maps a destination media endpoint to its session (nil
// when none negotiated it), picking the best candidate under
// flowSessionLess.
func (x *sessionIndex) mediaDstSession(dst netip.AddrPort) *sessionState {
	st, _ := bestFlowSession(nil, true, x.byMedia[dst])
	return st
}

// sipOutcome reports which attribution-relevant transitions one SIP
// sighting caused, plus the parsed fields both consumers need. The
// generator turns it into events; the sharded router uses it to maintain
// the routing directory and replicate cross-session state.
type sipOutcome struct {
	// from and to are substrings of the message's header values: good for
	// the frame, cloned by whoever keeps one longer.
	from, to sip.AddrRef
	fromToOK bool // request From/To parsed (requests only)
	cseq     sip.CSeq
	cseqOK   bool // response CSeq parsed (responses only)

	firstInvite   bool
	reinvite      bool
	reinviteMover string
	reinviteOld   netip.AddrPort
	firstBye      bool
	registered    bool       // REGISTER request recorded in pendingReg
	regOK         bool       // 200 matched a pending registration
	regAOR        string     // AOR of the matched registration
	bindingIP     netip.Addr // contact IP of the 200, when it parsed
	established   bool       // session became established on this message
}

// applySIP folds one SIP sighting into the session table and reports what
// changed. This is the single place dialog state transitions happen; it
// must stay free of event construction so the router can replay it
// without an EventGenerator. It reads headers through the message's
// summary, so whichever of format check, router and shard sees a message
// first pays for the read and the others find it done; what it stores on
// the session it clones, so a dialog never pins a header value.
func (x *sessionIndex) applySIP(m *sip.Message, at time.Duration, src netip.AddrPort) (*sessionState, sipOutcome) {
	st := x.core(m.CallID())
	var out sipOutcome
	if m.IsRequest() {
		from, okF := m.FromRef()
		to, okT := m.ToRef()
		if !okF || !okT {
			return st, out
		}
		out.from, out.to, out.fromToOK = from, to, true
		switch m.Method {
		case sip.MethodRegister:
			st.isRegistration = true
			x.pendingReg[st.callID] = strings.Clone(to.AOR)
			out.registered = true
		case sip.MethodInvite:
			if to.Tag == "" {
				// Dialog-forming INVITE.
				if st.callerAOR == "" {
					st.callerAOR = strings.Clone(from.AOR)
					st.calleeAOR = strings.Clone(to.AOR)
					st.callerTag = strings.Clone(from.Tag)
					st.inviteSrcIP = src.Addr()
					if media, ok := mediaFromBody(m); ok {
						x.setCallerMedia(st, media)
					}
					out.firstInvite = true
				}
				return st, out
			}
			// Re-INVITE: someone claims to be moving their media.
			cseq, err := m.CSeq()
			if err != nil || cseq.Seq <= st.lastReinviteSeq {
				return st, out // duplicate sighting (e.g. the proxy-relayed copy)
			}
			st.lastReinviteSeq = cseq.Seq
			var oldMedia netip.AddrPort
			if from.Tag == st.callerTag {
				oldMedia = st.callerMedia
				if media, ok := mediaFromBody(m); ok {
					x.setCallerMedia(st, media)
				}
			} else {
				oldMedia = st.calleeMedia
				if media, ok := mediaFromBody(m); ok {
					x.setCalleeMedia(st, media)
				}
			}
			st.reinviteSeen = true
			st.reinviteAt = at
			st.reinviteOldMedia = oldMedia
			out.reinvite = true
			out.reinviteMover = from.AOR
			out.reinviteOld = oldMedia
		case sip.MethodBye:
			if st.byeSeen {
				return st, out // duplicate sighting
			}
			st.byeSeen = true
			st.byeAt = at
			// Which party claims to be hanging up? Match by tag, falling back
			// to AOR for dialogs whose caller tag we never learned.
			switch {
			case from.Tag != "" && from.Tag == st.callerTag, from.AOR == st.callerAOR:
				st.byeFromMedia = st.callerMedia
			default:
				st.byeFromMedia = st.calleeMedia
			}
			out.firstBye = true
		}
		return st, out
	}
	cseq, err := m.CSeq()
	if err != nil {
		return st, out
	}
	out.cseq, out.cseqOK = cseq, true
	switch {
	case m.StatusCode == sip.StatusOK && cseq.Method == sip.MethodRegister:
		if aor, ok := x.pendingReg[st.callID]; ok {
			out.regOK = true
			out.regAOR = aor
			if contact, ok := m.ContactRef(); ok {
				if ip, err := netip.ParseAddr(contact.Host); err == nil {
					out.bindingIP = ip
				}
			}
		}
	case m.StatusCode == sip.StatusOK && cseq.Method == sip.MethodInvite:
		if to, ok := m.ToRef(); ok && st.calleeTag == "" {
			st.calleeTag = strings.Clone(to.Tag)
		}
		if media, ok := mediaFromBody(m); ok && !st.established {
			x.setCalleeMedia(st, media)
		}
		if !st.established && st.callerAOR != "" {
			st.established = true
			out.established = true
		}
	}
	return st, out
}

// RouteHints carries per-frame verdicts the sharded router pre-computed in
// global arrival order. A shard's EventGenerator consumes them instead of
// its own cross-session maps, which is how state that spans sessions (RTP
// sequence continuity per endpoint, IM source history per sender) stays
// exactly serial-equivalent even though frames are processed on many
// shards. The zero value means "no hints": the generator falls back to
// its local state, which is the serial engine's behavior.
type RouteHints struct {
	// Session overrides media-flow attribution for RTP/RTCP footprints and
	// the garbage-event session for raw traffic on an RTP port. Empty
	// means attribute locally.
	Session string
	// HasSeq indicates Seq carries the sequence-continuity verdict for an
	// RTP footprint.
	HasSeq bool
	Seq    SeqVerdict
	// HasIM indicates IM carries the source-stability verdict for a SIP
	// MESSAGE footprint.
	HasIM bool
	IM    IMVerdict
}

// SeqVerdict is the router's RTP sequence-continuity decision for one
// packet, computed against the globally ordered per-endpoint tracker.
type SeqVerdict struct {
	NewFlow bool   // first packet seen toward this endpoint
	Jump    bool   // discontinuity beyond the threshold
	Prev    uint16 // previous sequence number (valid when the tracker was primed)
	// Activity marks the packet as an RTP activity heartbeat: the first
	// packet toward the endpoint, or the first after RTPActivityEvery has
	// elapsed since the last heartbeat. Always false when
	// GenConfig.RTPActivityEvery is 0 (the default).
	Activity bool
}

// IMVerdict is the router's IM source-stability decision for one MESSAGE.
type IMVerdict struct {
	Mismatch bool       // source differs from recent history within the period
	PrevIP   netip.Addr // the remembered source (valid when Mismatch)
}
