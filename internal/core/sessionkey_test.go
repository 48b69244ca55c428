package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// The reverse media index is the only attribution path in production, so
// the O(#sessions) scan it replaced lives on here as the reference the
// index is held to: same candidates, same flowSessionLess order, no index.

// scanFlowSession is the reference for sessionIndex.flowSession: the best
// matching session, and whether it was the only one.
func scanFlowSession(x *sessionIndex, src, dst netip.AddrPort) (string, bool) {
	match := func(negotiated, ep netip.AddrPort) bool {
		return negotiated.IsValid() && ep.IsValid() && negotiated == ep
	}
	var best *sessionState
	matched := 0
	for _, st := range x.sessions {
		if !(match(st.callerMedia, dst) || match(st.calleeMedia, dst) ||
			match(st.callerMedia, src) || match(st.calleeMedia, src)) {
			continue
		}
		matched++
		if best == nil || flowSessionLess(best, st) {
			best = st
		}
	}
	return sessionID(best), matched <= 1
}

// scanRTCPFlowSession is the reference for sessionIndex.rtcpFlowSession.
func scanRTCPFlowSession(x *sessionIndex, src, dst netip.AddrPort) (string, bool) {
	down := func(ap netip.AddrPort) netip.AddrPort {
		if !ap.IsValid() || ap.Port() == 0 {
			return ap
		}
		return netip.AddrPortFrom(ap.Addr(), ap.Port()-1)
	}
	return scanFlowSession(x, down(src), down(dst))
}

// scanMediaDstSession is the reference for sessionIndex.mediaDstSession.
func scanMediaDstSession(x *sessionIndex, dst netip.AddrPort) string {
	if !dst.IsValid() {
		return ""
	}
	var best *sessionState
	for _, st := range x.sessions {
		if st.callerMedia != dst && st.calleeMedia != dst {
			continue
		}
		if best == nil || flowSessionLess(best, st) {
			best = st
		}
	}
	return sessionID(best)
}

func sessionID(st *sessionState) string {
	if st == nil {
		return ""
	}
	return st.callID
}

// flowID is sessionID for flowSession's two results.
func flowID(st *sessionState, sole bool) (string, bool) { return sessionID(st), sole }

// checkMediaIndex verifies the reverse media index against the session
// table it is derived from: every byMedia pointer is a live session that
// holds the endpoint, and every valid negotiated endpoint is listed exactly
// as many times as it is held (twice for a session whose caller and callee
// media coincide). Sessions are filed under their own Call-ID.
func checkMediaIndex(x *sessionIndex) error {
	held := make(map[netip.AddrPort]map[*sessionState]int)
	for id, st := range x.sessions {
		if st.callID != id {
			return fmt.Errorf("session %q filed under key %q", st.callID, id)
		}
		for _, m := range []netip.AddrPort{st.callerMedia, st.calleeMedia} {
			if !m.IsValid() {
				continue
			}
			if held[m] == nil {
				held[m] = make(map[*sessionState]int)
			}
			held[m][st]++
		}
	}
	listed := make(map[netip.AddrPort]map[*sessionState]int)
	for ep, list := range x.byMedia {
		if !ep.IsValid() || len(list) == 0 {
			return fmt.Errorf("byMedia[%v] has %d entries; invalid or empty keys must not exist", ep, len(list))
		}
		listed[ep] = make(map[*sessionState]int)
		for _, st := range list {
			if x.sessions[st.callID] != st {
				return fmt.Errorf("byMedia[%v] points at dead session %q", ep, st.callID)
			}
			listed[ep][st]++
		}
	}
	// Equal both ways: nothing listed that is not held, nothing held that
	// is not listed, and the same number of times.
	for _, dir := range [][2]map[netip.AddrPort]map[*sessionState]int{{listed, held}, {held, listed}} {
		for ep, sessions := range dir[0] {
			for st := range sessions {
				if listed[ep][st] != held[ep][st] {
					return fmt.Errorf("session %q holds %v %d times but byMedia lists it %d times",
						st.callID, ep, held[ep][st], listed[ep][st])
				}
			}
		}
	}
	return nil
}

// attrWorld drives one EventGenerator through seeded SIP/RTP/RTCP
// interleavings over a deliberately tiny endpoint pool, so consecutive and
// concurrent calls keep colliding on the same media endpoints. Beside the
// generator's table it runs the sharded router's media route stage: a
// flow memo with a router-style rtp correlator (memo, rc), and a
// memo-less twin (twin: attributeMedia and track on every packet). Both
// correlators hear what the router's instance hears: establishments and
// expiry sweeps.
type attrWorld struct {
	t     *testing.T
	rng   *rand.Rand
	g     *EventGenerator
	now   time.Duration
	next  int
	calls []*attrCall
	eps   []netip.AddrPort

	memo     flowMemo
	rc, twin *rtpCorrelator
}

type attrCall struct {
	id       string
	tag      string // tag and branch stem (the id, unless it is an address)
	invite   *sip.Message
	answered bool
	cseq     uint32
}

func newAttrWorld(t *testing.T, seed int64, maxSessions, maxSeqTrackers int) *attrWorld {
	w := &attrWorld{t: t, rng: rand.New(rand.NewSource(seed)), g: newGen(),
		rc: newRTPCorrelator(), twin: newRTPCorrelator()}
	limits := Limits{MaxSessions: maxSessions, MaxSeqTrackers: maxSeqTrackers}
	w.g.SetLimits(limits)
	cfg := w.g.cfg
	cfg.RTPActivityEvery = 100 * time.Millisecond // every verdict field moves
	for _, rc := range []*rtpCorrelator{w.rc, w.twin} {
		rc.configure(cfg)
		rc.setLimits(limits)
		w.g.ctx.observers = append(w.g.ctx.observers, rc)
	}
	for host := 1; host <= 3; host++ {
		// Port 0 is a legal SDP answer ("stream refused") and the one port
		// the RTCP port-1 convention must leave alone.
		for _, port := range []uint16{0, 40000, 40001, 40002} {
			w.eps = append(w.eps, netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(host)}), port))
		}
	}
	return w
}

func (w *attrWorld) ep() netip.AddrPort { return w.eps[w.rng.Intn(len(w.eps))] }

func (w *attrWorld) tick() { w.now += time.Duration(1+w.rng.Intn(50)) * time.Millisecond }

func sdpAt(ep netip.AddrPort) []byte {
	return []byte(fmt.Sprintf("v=0\r\no=u 1 1 IN IP4 %s\r\ns=-\r\nc=IN IP4 %s\r\nt=0 0\r\nm=audio %d RTP/AVP 0\r\n",
		ep.Addr(), ep.Addr(), ep.Port()))
}

func (w *attrWorld) sip(src, dst netip.AddrPort, m *sip.Message) {
	w.tick()
	w.g.Process(sipFp(w.t, w.now, src, dst, m))
}

// request builds a request of call c. inDialog adds the To tag, which is
// what separates a re-INVITE from a dialog-forming INVITE.
func (w *attrWorld) request(c *attrCall, method sip.Method, fromCaller, inDialog bool, body []byte) *sip.Message {
	from, to := `<sip:alice@d>;tag=a`+c.tag, `<sip:bob@d>`
	if inDialog {
		to += ";tag=b" + c.tag
	}
	if !fromCaller {
		from, to = `<sip:bob@d>;tag=b`+c.tag, `<sip:alice@d>;tag=a`+c.tag
	}
	c.cseq++
	spec := sip.RequestSpec{
		Method: method, RequestURI: "sip:peer@d",
		From: mustAddr2(w.t, from), To: mustAddr2(w.t, to), CallID: c.id,
		CSeq: sip.CSeq{Seq: c.cseq, Method: method},
		Via:  sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + c.tag}},
	}
	if body != nil {
		spec.Body, spec.BodyType = body, "application/sdp"
	}
	return sip.NewRequest(spec)
}

func (w *attrWorld) invite() {
	id := fmt.Sprintf("c%03d@attr", w.next)
	w.dial(&attrCall{id: id, tag: id}, sdpAt(w.ep()))
}

// fallbackInvite opens a dialog whose Call-ID spells an endpoint's
// fallback key ("rtp:<ep>" / "rtcp:<ep>") and that negotiates no media:
// unattributed flows toward the endpoint now resolve to its state.
func (w *attrWorld) fallbackInvite() {
	prefix := "rtp:"
	if w.rng.Intn(2) == 0 {
		prefix = "rtcp:"
	}
	w.dial(&attrCall{id: prefix + w.ep().String(), tag: fmt.Sprintf("f%03d", w.next)}, nil)
}

func (w *attrWorld) dial(c *attrCall, body []byte) {
	w.next++
	c.invite = w.request(c, sip.MethodInvite, true, false, body)
	w.calls = append(w.calls, c)
	w.sip(egCaller, egCallee, c.invite)
}

func (w *attrWorld) pick() *attrCall {
	if len(w.calls) == 0 {
		return nil
	}
	return w.calls[w.rng.Intn(len(w.calls))]
}

func (w *attrWorld) answer(c *attrCall) {
	resp := sip.NewResponse(c.invite, sip.StatusOK, "b"+c.tag)
	resp.Headers.Add(sip.HdrContentType, "application/sdp")
	resp.Body = sdpAt(w.ep())
	if w.rng.Intn(4) == 0 {
		// callerMedia == calleeMedia: the endpoint is held, and listed, twice.
		if st := w.g.idx.sessions[c.id]; st != nil && st.callerMedia.IsValid() {
			resp.Body = sdpAt(st.callerMedia)
		}
	}
	c.answered = true
	w.sip(egCallee, egCaller, resp)
}

// answerNoMedia is a 200 without SDP: it establishes the dialog (the rtp
// correlators forget the caller media's tracker) and leaves every
// endpoint where it was, so the session index does not change.
func (w *attrWorld) answerNoMedia(c *attrCall) {
	c.answered = true
	w.sip(egCallee, egCaller, sip.NewResponse(c.invite, sip.StatusOK, "b"+c.tag))
}

func (w *attrWorld) media(proto Protocol) {
	src, dst := w.ep(), w.ep()
	w.tick()
	if proto == ProtoRTCP {
		w.g.Process(&FrameView{Proto: ProtoRTCP, At: w.now, Src: src, Dst: dst})
		return
	}
	w.g.Process(&FrameView{Proto: ProtoRTP, At: w.now, Src: src, Dst: dst,
		RTP: rtp.HeaderView{Seq: uint16(w.rng.Intn(1 << 16)), SSRC: 7}})
}

func (w *attrWorld) snapshotRestore() {
	snap := exportSessionIndex(w.g.idx).canonical()
	blob := encodeAll(func(c *codec) { walkIndex(c, &snap) })
	var back indexSnap
	if err := decodeAll(blob, "session index", func(c *codec) { walkIndex(c, &back) }); err != nil {
		w.t.Fatalf("session index round trip: %v", err)
	}
	installSessionIndex(w.g.idx, back)
}

// seqRestore round-trips both correlators' trackers through a checkpoint
// on their own: every tracker is a new object afterwards.
func (w *attrWorld) seqRestore() {
	for _, rc := range []*rtpCorrelator{w.rc, w.twin} {
		install, err := decodeCorrBlob(rc, encodeCorrState(rc))
		if err != nil {
			w.t.Fatalf("tracker round trip: %v", err)
		}
		install()
	}
}

// expire is the router's sweep: the session table, then the rtp
// correlators, which drop trackers silent for longer than the timeout.
func (w *attrWorld) expire() {
	w.tick()
	timeout := time.Duration(100+w.rng.Intn(400)) * time.Millisecond
	w.g.ExpireSessions(w.now, timeout)
	for _, rc := range []*rtpCorrelator{w.rc, w.twin} {
		rc.onExpire(w.now, timeout)
	}
}

func (w *attrWorld) step() {
	c := w.pick()
	switch op := w.rng.Intn(23); {
	case op < 4 || c == nil:
		w.invite()
	case op < 7:
		w.answer(c)
	case op < 8:
		w.answerNoMedia(c)
	case op < 10:
		// Re-INVITE: either party moves its media.
		w.sip(egCaller, egCallee, w.request(c, sip.MethodInvite, w.rng.Intn(2) == 0, true, sdpAt(w.ep())))
	case op < 12:
		w.sip(egCaller, egCallee, w.request(c, sip.MethodBye, w.rng.Intn(2) == 0, true, nil))
	case op < 15:
		w.media(ProtoRTP)
	case op < 17:
		w.media(ProtoRTCP)
	case op < 18:
		w.expire()
	case op < 19:
		w.g.EvictSession(c.id)
	case op < 20:
		w.fallbackInvite()
	case op < 22:
		w.snapshotRestore()
	default:
		w.seqRestore()
	}
}

// check holds every attribution query the engines make — RTP flow, RTCP
// flow, garbage-on-media-port destination — to the reference scan, over
// the whole endpoint pool plus the invalid endpoint, and the index to its
// invariant.
func (w *attrWorld) check(label string) {
	x := w.g.idx
	if err := checkMediaIndex(x); err != nil {
		w.t.Fatalf("%s: %v", label, err)
	}
	probes := append([]netip.AddrPort{{}}, w.eps...)
	for _, dst := range probes {
		if got, want := sessionID(x.mediaDstSession(dst)), scanMediaDstSession(x, dst); got != want {
			w.t.Fatalf("%s: mediaDstSession(%v) = %q, scan says %q", label, dst, got, want)
		}
		for _, src := range probes {
			got, gotSole := flowID(x.flowSession(src, dst))
			if want, wantSole := scanFlowSession(x, src, dst); got != want || gotSole != wantSole {
				w.t.Fatalf("%s: flowSession(%v, %v) = %q sole %v, scan says %q sole %v", label, src, dst, got, gotSole, want, wantSole)
			}
			got, gotSole = flowID(x.rtcpFlowSession(src, dst))
			if want, wantSole := scanRTCPFlowSession(x, src, dst); got != want || gotSole != wantSole {
				w.t.Fatalf("%s: rtcpFlowSession(%v, %v) = %q sole %v, scan says %q sole %v", label, src, dst, got, gotSole, want, wantSole)
			}
		}
	}
	w.checkMemo(label, probes)
}

// routed is one media packet's answer from the route stage.
type routed struct {
	key string
	st  *sessionState
	h   RouteHints
}

// checkMemo routes every (src, dst) pair of the pool, RTP and RTCP,
// through the memo and through the memo-less twin and requires the same
// session, state and hints — the whole SeqVerdict — packet for packet.
// The memo must also agree with an uncached attribution before the sweep
// (what the step changed) and after it (what the sweep filled). Each
// sweep touches the sessions it attributes, so both start from the same
// lastSeen values, which are put back afterwards: probing leaves the
// world's expiry order alone, and a memo answer must not depend on them.
func (w *attrWorld) checkMemo(label string, probes []netip.AddrPort) {
	x := w.g.idx
	if err := checkFlowMemo(&w.memo, x, w.rc, nil); err != nil {
		w.t.Fatalf("%s: after the step: %v", label, err)
	}
	lastSeen := make(map[*sessionState]time.Duration, len(x.sessions))
	for _, st := range x.sessions {
		lastSeen[st] = st.lastSeen
	}
	type packet struct {
		proto    Protocol
		src, dst netip.AddrPort
		seq      uint16
	}
	var pkts []packet
	for _, proto := range []Protocol{ProtoRTP, ProtoRTCP} {
		for _, src := range probes {
			for _, dst := range probes {
				pkts = append(pkts, packet{proto, src, dst, uint16(w.rng.Intn(1 << 16))})
			}
		}
	}
	sweep := func(route func(p packet) routed) []routed {
		out := make([]routed, len(pkts))
		for i, p := range pkts {
			out[i] = route(p)
		}
		for st, at := range lastSeen {
			st.lastSeen = at
		}
		return out
	}
	got := sweep(func(p packet) routed {
		sl, sv, hasSeq := w.memo.route(x, w.rc, p.proto, w.now, p.src, p.dst, p.seq)
		return routed{sl.key, sl.st, RouteHints{Session: sl.key, HasSeq: hasSeq, Seq: sv}}
	})
	want := sweep(func(p packet) routed {
		key, st, _ := x.attributeMedia(p.proto, p.src, p.dst)
		r := routed{key: key, st: st, h: RouteHints{Session: key}}
		if p.proto == ProtoRTP {
			r.h.Seq, _ = w.twin.track(w.now, p.dst, p.seq)
			r.h.HasSeq = true
		}
		if st != nil {
			st.lastSeen = w.now
		}
		return r
	})
	for i := range pkts {
		if got[i] != want[i] {
			p := pkts[i]
			w.t.Fatalf("%s: %v %v -> %v seq %d: memo routes %q (%p) %+v, twin %q (%p) %+v", label,
				p.proto, p.src, p.dst, p.seq, got[i].key, got[i].st, got[i].h, want[i].key, want[i].st, want[i].h)
		}
	}
	if err := checkFlowMemo(&w.memo, x, w.rc, nil); err != nil {
		w.t.Fatalf("%s: after the sweep: %v", label, err)
	}
}

// TestMediaIndexEquivalentToScan is the index ≡ scan property: after every
// step of a seeded interleaving of INVITEs, answers (with and without
// media), re-INVITEs, BYEs, media, expiry, LRU eviction under MaxSessions,
// EvictSession, dialogs whose Call-ID spells a fallback key, and snapshot
// restore of the index or the RTP trackers, the index answers every
// attribution query exactly as the scan does and satisfies
// checkMediaIndex — and the sharded router's flow memo routes every flow
// of the pool exactly as its memo-less twin, with trackers evicted under
// MaxSeqTrackers ∈ {2, 4} on some seeds.
func TestMediaIndexEquivalentToScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		maxSessions := 0
		if seed%2 == 0 {
			maxSessions = 4
		}
		maxSeqTrackers := []int{0, 2, 4}[seed%3]
		w := newAttrWorld(t, seed, maxSessions, maxSeqTrackers)
		for i := 0; i < 400; i++ {
			w.step()
			w.check(fmt.Sprintf("seed %d cap %d/%d step %d", seed, maxSessions, maxSeqTrackers, i))
		}
		if maxSessions > 0 && w.g.ctx.evictedSessions == 0 {
			t.Errorf("seed %d: MaxSessions=%d never evicted; the sweep does not cover evictLRU", seed, maxSessions)
		}
		if maxSeqTrackers > 0 && w.rc.evicted.Load() == 0 {
			t.Errorf("seed %d: MaxSeqTrackers=%d never evicted; the sweep does not cover evictStalestSeq", seed, maxSeqTrackers)
		}
	}
}

// TestFlowAttributionOrder pins the three-level preference among sessions
// sharing a media endpoint: live beats torn-down, then the more recently
// active, then the larger Call-ID.
func TestFlowAttributionOrder(t *testing.T) {
	x := newSessionIndex()
	add := func(id string, lastSeen time.Duration, bye bool) {
		st := x.core(id)
		st.lastSeen, st.byeSeen = lastSeen, bye
		x.setCalleeMedia(st, egBMedia)
	}
	add("old-but-live", time.Second, false)
	add("recent-but-torn-down", 9*time.Second, true)
	if got, _ := flowID(x.flowSession(egCMedia, egBMedia)); got != "old-but-live" {
		t.Errorf("live vs torn-down: attributed to %q", got)
	}
	add("newer-live", 2*time.Second, false)
	if got, _ := flowID(x.flowSession(egBMedia, egCMedia)); got != "newer-live" {
		t.Errorf("lastSeen recency (matched on src): attributed to %q", got)
	}
	add("z-tie", 2*time.Second, false)
	if got := sessionID(x.mediaDstSession(egBMedia)); got != "z-tie" {
		t.Errorf("Call-ID tie-break: attributed to %q", got)
	}
}

// TestFallbackKeyCollidingCallID pins the behaviour of a hostile dialog
// whose Call-ID spells an address-derived fallback key: unattributed media
// toward that endpoint is filed under the key, resolves to the dialog's
// state and touches it, exactly as when the key was looked up by string.
func TestFallbackKeyCollidingCallID(t *testing.T) {
	for _, tc := range []struct {
		key string
		fp  *FrameView
	}{
		{"rtp:" + egBMedia.String(), rtpAt(time.Second, egEvil, egBMedia, 1)},
		{"rtcp:" + egBMedia.String(), &FrameView{Proto: ProtoRTCP, At: time.Second, Src: egEvil, Dst: egBMedia}},
	} {
		g := newGen()
		inv := egInvite(t, tc.key)
		inv.Body = nil
		inv.Headers.Del(sip.HdrContentType)
		g.Process(sipFp(t, 0, egCaller, egCallee, inv))
		st := g.idx.sessions[tc.key]
		if st == nil || st.callerMedia.IsValid() {
			t.Fatalf("%s: hostile dialog not set up as intended: %+v", tc.key, st)
		}
		g.Process(tc.fp)
		if st.lastSeen != time.Second {
			t.Errorf("%s: colliding dialog not touched by fallback-keyed media (lastSeen %v)", tc.key, st.lastSeen)
		}
		if g.trails.Lookup(tc.key, tc.fp.Proto) == nil {
			t.Errorf("%s: media not filed under the fallback key", tc.key)
		}
	}
}
