package core

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
	"time"
)

// flowMemo is the sharded router's media fast path: a 2-way
// set-associative table in front of the route stage's flow attribution
// (sessionIndex.attributeMedia) and RTP continuity tracker lookup
// (rtpCorrelator.track). A steady RTP or RTCP packet costs one probe
// instead of three hashed map lookups. A miss runs those two functions
// unchanged — there is still one attribution algorithm — and keeps the
// answer only when nothing but index membership can change it:
//
//   - the attribution is sole (attributeMedia): flowSessionLess only
//     ranks two or more candidates, so byeSeen and lastSeen cannot move
//     it, and every insert into or removal from the session table or the
//     reverse media index bumps sessionIndex.epoch;
//   - the tracker is a pointer that stays seqs[dst] until a removal from
//     seqs, and every removal bumps rtpCorrelator.epoch.
//
// A slot answers only while both epochs it was filled at are current.
// Flows are keyed by (proto, src, dst) with IPv4 endpoints packed into
// words; anything else bypasses the memo. The table is made on the first
// media frame with the next power of two ≥ 2 × len(byMedia) sets (at
// least 64) and made again, empty, whenever the directory outgrows it,
// so it has no size to tune and never shrinks: 144 bytes a set, 9 KB at
// the floor, 590 KB for 1024 two-party calls. The serial engine keeps
// calling attributeMedia: the floor alone is about half of its whole heap
// while it follows 8 calls.
type flowMemo struct {
	slots []flowSlot // two ways per set; way 0 is the more recently filled
	shift uint       // 64 - log2(sets)
	// miss holds the answer of a miss the memo does not keep, so callers
	// always get a slot.
	miss flowSlot
}

// flowSlot is one memoized answer: 72 bytes, no netip values.
type flowSlot struct {
	// src and dst are the flow's endpoints as addr<<16 | port; dst also
	// carries the protocol at bit 48, so no filled slot is all zeros.
	src, dst uint64
	st       *sessionState // nil when no session claims the flow
	key      string        // its session (trail) key
	seq      *seqTrack     // seqs[dst] for RTP with an rtp correlator, else nil
	idxEpoch uint64
	seqEpoch uint64
	// shard is 1 + the shard of a flow no session claims once the router
	// has resolved it, else 0 (a claimed flow's is on st.routeShard). It
	// cannot go stale before the slot does: a routing pin is only made for
	// a session, and making that session bumps idxEpoch.
	shard int32
}

// minFlowSets is the table's floor.
const minFlowSets = 64

// packFlow packs an IPv4 media flow into the memo's key words; ok is false
// for any other flow.
func packFlow(proto Protocol, src, dst netip.AddrPort) (s, d uint64, ok bool) {
	sa, da := src.Addr(), dst.Addr()
	if !sa.Is4() || !da.Is4() {
		return 0, 0, false
	}
	// As4, not As16: reading four bytes back out of As16's two 8-byte
	// stores defeats store forwarding and costs several times as much.
	s4, d4 := sa.As4(), da.As4()
	s = uint64(binary.BigEndian.Uint32(s4[:]))<<16 | uint64(src.Port())
	d = uint64(proto)<<48 | uint64(binary.BigEndian.Uint32(d4[:]))<<16 | uint64(dst.Port())
	return s, d, true
}

// ways returns the two slots of the flow's set.
func (m *flowMemo) ways(src, dst uint64) []flowSlot {
	i := ((src*0x9e3779b97f4a7c15 ^ dst) * 0xff51afd7ed558ccd >> m.shift) * 2
	return m.slots[i : i+2 : i+2]
}

// current reports whether the slot's answer is still right.
func (sl *flowSlot) current(x *sessionIndex, rc *rtpCorrelator) bool {
	return sl.idxEpoch == x.epoch && (sl.seq == nil || sl.seqEpoch == rc.epoch)
}

// route attributes one media packet and, for RTP with an rtp correlator,
// folds it into its continuity tracker, exactly as attributeMedia and
// track would: it returns the slot holding the answer — a memo slot, or
// m.miss — whose key is the packet's session, and the continuity verdict
// (hasSeq false when none is made). The attributed session is touched
// (lastSeen) either way. rc may be nil (no rtp correlator registered), in
// which case no RTP verdict is made.
func (m *flowMemo) route(x *sessionIndex, rc *rtpCorrelator, proto Protocol, at time.Duration, src, dst netip.AddrPort, seq uint16) (sl *flowSlot, v SeqVerdict, hasSeq bool) {
	ps, pd, packed := packFlow(proto, src, dst)
	if packed && m.slots != nil {
		ways := m.ways(ps, pd)
		for i := range ways {
			sl = &ways[i]
			if sl.src != ps || sl.dst != pd || !sl.current(x, rc) {
				continue
			}
			if sl.seq != nil {
				v, hasSeq = rc.advance(sl.seq, false, at, seq), true
			}
			if sl.st != nil {
				sl.st.lastSeen = at
			}
			return sl, v, hasSeq
		}
	}
	key, st, sole := x.attributeMedia(proto, src, dst)
	var tr *seqTrack
	if proto == ProtoRTP && rc != nil {
		v, tr = rc.track(at, dst, seq)
		hasSeq = true
	}
	if st != nil {
		st.lastSeen = at
	}
	sl = &m.miss
	if packed && sole {
		m.fit(len(x.byMedia))
		sl = m.victim(ps, pd, x, rc)
	}
	*sl = flowSlot{src: ps, dst: pd, st: st, key: key, seq: tr, idxEpoch: x.epoch}
	if rc != nil {
		sl.seqEpoch = rc.epoch
	}
	return sl, v, hasSeq
}

// fit makes the table, empty, when there is none or the directory's
// endpoint count has outgrown it.
func (m *flowMemo) fit(endpoints int) {
	sets := minFlowSets
	for sets < 2*endpoints {
		sets *= 2
	}
	if 2*sets <= len(m.slots) {
		return
	}
	m.slots = make([]flowSlot, 2*sets)
	m.shift = uint(64 - bits.TrailingZeros(uint(sets)))
}

// dropStale empties every slot whose answer has gone stale, so the table
// keeps no dropped session or tracker alive. A stale slot never answers,
// so emptying one changes no route; the router runs this on the sweep
// clock, not per frame.
func (m *flowMemo) dropStale(x *sessionIndex, rc *rtpCorrelator) {
	for i := range m.slots {
		if sl := &m.slots[i]; sl.dst != 0 && !sl.current(x, rc) {
			*sl = flowSlot{}
		}
	}
}

// victim picks the slot a new answer for the flow goes in: the flow's own
// stale slot in way 1, else way 0, whose current answer for another flow
// first moves to way 1.
func (m *flowMemo) victim(src, dst uint64, x *sessionIndex, rc *rtpCorrelator) *flowSlot {
	ways := m.ways(src, dst)
	w0, w1 := &ways[0], &ways[1]
	if w1.src == src && w1.dst == dst {
		return w1
	}
	if (w0.src != src || w0.dst != dst) && w0.current(x, rc) {
		*w1 = *w0
	}
	return w0
}
