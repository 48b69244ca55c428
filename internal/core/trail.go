package core

import (
	"fmt"
	"net/netip"
	"time"

	"scidive/internal/sip"
)

// Trail is an ordered list of related footprints — the per-session,
// per-protocol grouping of paper Section 3.1. Cross-protocol detection
// keeps multiple trails per session (a SIP trail, an RTP trail, an
// accounting trail) under the same session key.
type Trail struct {
	// Session is the correlation key shared by all trails of one session.
	Session string
	// Protocol is the single protocol this trail carries.
	Protocol Protocol

	// A trail is one contiguous slab, of the kind its Protocol picks:
	// RTP and RTCP trails pack each packet into a 64-byte pointer-free
	// mediaSlot (media); SIP trails pack each message into a 128-byte
	// sipSlot (sip); accounting and raw trails, a handful of entries a
	// session, keep whole frame views (entries). The slab grows until the
	// trail's bound, then becomes a ring: head indexes the oldest entry
	// and appends overwrite in place, so a saturated trail (the steady
	// state of a long media stream) retains footprints with zero
	// per-frame allocation.
	entries []FrameView
	media   []mediaSlot
	sip     []sipSlot
	head    int
	maxLen  int
	// restored counts footprints that existed before a checkpoint restore.
	// Their bytes are deliberately not checkpointed (the event layer never
	// rereads trail contents); only the length survives, so Len and the
	// eviction bound behave as if they were still present.
	restored int
}

// sipSlot is what a SIP trail retains of one message: the view's common
// fields and its SIP arm, without the 176 bytes of RTP, RTCP, accounting
// and raw arms a SIP view never fills.
type sipSlot struct {
	at        time.Duration
	src, dst  netip.AddrPort
	msg       *sip.Message
	malformed []string
	streamKey string
	portProto Protocol
}

func (s *sipSlot) pack(v *FrameView) {
	s.at, s.src, s.dst, s.msg = v.At, v.Src, v.Dst, v.Msg
	s.malformed, s.streamKey, s.portProto = v.Malformed, v.StreamKey, v.PortProto
}

func (s *sipSlot) unpack(v *FrameView) {
	*v = FrameView{
		Proto: ProtoSIP, At: s.at, Src: s.src, Dst: s.dst, Msg: s.msg,
		Malformed: s.malformed, StreamKey: s.streamKey, PortProto: s.portProto,
	}
}

// A packed slab's first allocation. Short dialogs are most SIP trails (an
// INVITE transaction and a BYE transaction are six messages), so theirs
// starts at four slots; a media trail is either one stray packet or on
// its way to the bound, so it starts at one and doubles.
const (
	mediaSlabFirst = 1
	sipSlabFirst   = 4
)

// grown returns the packed slab s one slot longer: doubled when full
// (from first), but never past the bound — a saturated ring holds exactly
// bound slots. The caller checked that len(s) is still below the bound.
func grown[S any](s []S, first, bound int) []S {
	n := len(s)
	if n == cap(s) {
		c := max(2*n, first)
		if bound > 0 {
			c = min(c, bound)
		}
		s = append(make([]S, 0, c), s...)
	}
	return s[:n+1]
}

// AppendView adds a copy of the frame view, evicting the oldest entry
// when the trail exceeds its bound (memory is the practical limit the
// paper notes). Restored phantom entries are older than every real one,
// so they evict first.
func (t *Trail) AppendView(v *FrameView) {
	n := len(t.entries) + len(t.media) + len(t.sip)
	at := n // the slot to write: a new one, or the oldest of a saturated ring
	if t.maxLen > 0 && t.restored+n >= t.maxLen {
		if t.restored > 0 {
			t.restored--
		} else {
			at = t.head
			if t.head++; t.head == n {
				t.head = 0
			}
		}
	}
	switch t.Protocol {
	case ProtoRTP, ProtoRTCP:
		if at == n {
			t.media = grown(t.media, mediaSlabFirst, t.maxLen)
		}
		t.media[at].pack(v)
	case ProtoSIP:
		if at == n {
			t.sip = grown(t.sip, sipSlabFirst, t.maxLen)
		}
		t.sip[at].pack(v)
	default:
		if at == n {
			t.entries = append(t.entries, *v)
		} else {
			t.entries[at] = *v
		}
	}
}

// Len returns the number of retained footprints (including restored
// phantom entries whose bytes were dropped at the last checkpoint).
func (t *Trail) Len() int { return t.restored + len(t.entries) + len(t.media) + len(t.sip) }

// eachView calls fn on every retained entry in arrival order, stopping
// early when fn returns false. A packed trail's slots are unpacked one
// at a time into a view that is only valid during the call.
func (t *Trail) eachView(fn func(v *FrameView) bool) {
	n := len(t.entries) + len(t.media) + len(t.sip)
	var scratch FrameView
	for i := 0; i < n; i++ {
		j := (t.head + i) % n
		v := &scratch
		switch t.Protocol {
		case ProtoRTP, ProtoRTCP:
			t.media[j].unpack(v)
		case ProtoSIP:
			t.sip[j].unpack(v)
		default:
			v = &t.entries[j]
		}
		if !fn(v) {
			return
		}
	}
}

// trailKey identifies one trail in the store.
type trailKey struct {
	session string
	proto   Protocol
}

// TrailStore holds all live trails indexed by session and protocol.
type TrailStore struct {
	trails map[trailKey]*Trail
	// MaxTrailLen bounds each trail's retained footprints (0 = unbounded).
	MaxTrailLen int
}

// NewTrailStore returns an empty store. maxTrailLen bounds per-trail
// memory (0 = unbounded).
func NewTrailStore(maxTrailLen int) *TrailStore {
	return &TrailStore{trails: make(map[trailKey]*Trail), MaxTrailLen: maxTrailLen}
}

// Get returns the trail for (session, proto), creating it if needed.
func (s *TrailStore) Get(session string, proto Protocol) *Trail {
	k := trailKey{session: session, proto: proto}
	t, ok := s.trails[k]
	if !ok {
		t = &Trail{Session: session, Protocol: proto, maxLen: s.MaxTrailLen}
		s.trails[k] = t
	}
	return t
}

// Lookup returns the trail for (session, proto) or nil, without creating.
func (s *TrailStore) Lookup(session string, proto Protocol) *Trail {
	return s.trails[trailKey{session: session, proto: proto}]
}

// SessionTrails returns every trail of a session (one per protocol seen).
func (s *TrailStore) SessionTrails(session string) []*Trail {
	var out []*Trail
	for _, proto := range []Protocol{ProtoSIP, ProtoRTP, ProtoRTCP, ProtoAccounting, ProtoOther} {
		if t := s.Lookup(session, proto); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Sessions returns the number of distinct sessions with live trails.
func (s *TrailStore) Sessions() int {
	seen := make(map[string]struct{}, len(s.trails))
	for k := range s.trails {
		seen[k.session] = struct{}{}
	}
	return len(seen)
}

// Trails returns the total number of live trails.
func (s *TrailStore) Trails() int { return len(s.trails) }

// Drop removes all trails of a session (e.g. long after teardown).
func (s *TrailStore) Drop(session string) {
	for _, proto := range []Protocol{ProtoSIP, ProtoRTP, ProtoRTCP, ProtoAccounting, ProtoOther} {
		delete(s.trails, trailKey{session: session, proto: proto})
	}
}

// String summarizes the store for logs.
func (s *TrailStore) String() string {
	return fmt.Sprintf("TrailStore{sessions=%d trails=%d}", s.Sessions(), s.Trails())
}
