package core

import "fmt"

// Trail is an ordered list of related footprints — the per-session,
// per-protocol grouping of paper Section 3.1. Cross-protocol detection
// keeps multiple trails per session (a SIP trail, an RTP trail, an
// accounting trail) under the same session key.
type Trail struct {
	// Session is the correlation key shared by all trails of one session.
	Session string
	// Protocol is the single protocol this trail carries.
	Protocol Protocol

	// A trail is one contiguous slab, of one of two kinds chosen by its
	// Protocol: RTP and RTCP trails pack each packet into a 64-byte
	// mediaSlot (media); SIP, accounting and raw trails keep whole frame
	// views (entries). The slab grows until the trail's bound, then
	// becomes a ring: head indexes the oldest entry and appends overwrite
	// in place, so a saturated trail (the steady state of a long media
	// stream) retains footprints with zero per-frame allocation.
	entries []FrameView
	media   []mediaSlot
	head    int
	maxLen  int
	// restored counts footprints that existed before a checkpoint restore.
	// Their bytes are deliberately not checkpointed (the event layer never
	// rereads trail contents); only the length survives, so Len and the
	// eviction bound behave as if they were still present.
	restored int
}

// isMedia reports whether the trail stores packed media slots.
func (t *Trail) isMedia() bool { return t.Protocol == ProtoRTP || t.Protocol == ProtoRTCP }

// AppendView adds a copy of the frame view, evicting the oldest entry
// when the trail exceeds its bound (memory is the practical limit the
// paper notes). Restored phantom entries are older than every real one,
// so they evict first.
func (t *Trail) AppendView(v *FrameView) {
	media := t.isMedia()
	n := len(t.entries) + len(t.media)
	if t.maxLen > 0 && t.restored+n >= t.maxLen {
		if t.restored == 0 {
			// Saturated: overwrite the oldest slot in place.
			if media {
				t.media[t.head].pack(v)
			} else {
				t.entries[t.head] = *v
			}
			t.head++
			if t.head == n {
				t.head = 0
			}
			return
		}
		t.restored--
	}
	if !media {
		t.entries = append(t.entries, *v)
		return
	}
	if n == cap(t.media) {
		// Double, but never past the bound (n is still below it here):
		// a saturated ring holds exactly maxLen slots.
		c := max(2*n, 1)
		if t.maxLen > 0 {
			c = min(c, t.maxLen)
		}
		t.media = append(make([]mediaSlot, 0, c), t.media...)
	}
	t.media = t.media[:n+1]
	t.media[n].pack(v)
}

// Len returns the number of retained footprints (including restored
// phantom entries whose bytes were dropped at the last checkpoint).
func (t *Trail) Len() int { return t.restored + len(t.entries) + len(t.media) }

// eachView calls fn on every retained entry in arrival order, stopping
// early when fn returns false. A media trail's slots are unpacked one at
// a time into a view that is only valid during the call.
func (t *Trail) eachView(fn func(v *FrameView) bool) {
	n := len(t.entries) + len(t.media)
	var scratch *FrameView
	if t.isMedia() {
		scratch = new(FrameView)
	}
	for i := 0; i < n; i++ {
		j := (t.head + i) % n
		v := scratch
		if v != nil {
			t.media[j].unpack(v)
		} else {
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
