package core

import "fmt"

// Trail is the per-session, per-protocol grouping of paper Section 3.1.
// Cross-protocol detection keeps multiple trails per session (a SIP trail,
// an RTP trail, an accounting trail) under the same session key.
//
// The correlators in the Event Generator consume each footprint as it
// arrives and keep whatever they need on the session's state, so nothing
// ever reads a footprint back out of a trail: a trail counts what it has
// seen, clamped to its bound, and that count is all a checkpoint carries.
// The direct-matching ablation (experiments.DirectMatcher), which does
// reread raw footprints, keeps its own list outside the engine.
type Trail struct {
	// Session is the correlation key shared by all trails of one session.
	Session string
	// Protocol is the single protocol this trail carries.
	Protocol Protocol

	n      int
	maxLen int
}

// AppendView counts one more footprint, up to the trail's bound. A count
// already at or past the bound stays put.
func (t *Trail) AppendView(*FrameView) {
	if t.maxLen == 0 || t.n < t.maxLen {
		t.n++
	}
}

// Len returns the number of footprints the trail accounts for.
func (t *Trail) Len() int { return t.n }

// trailKey identifies one trail in the store.
type trailKey struct {
	session string
	proto   Protocol
}

// TrailStore holds all live trails indexed by session and protocol.
type TrailStore struct {
	trails map[trailKey]*Trail
	// MaxTrailLen bounds each trail's count (0 = unbounded).
	MaxTrailLen int
	// dropped counts sessions dropped since trails was last rebuilt (see
	// churned).
	dropped int
}

// NewTrailStore returns an empty store. maxTrailLen bounds each trail's
// count (0 = unbounded).
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
	s.dropped++
}

// compact rebuilds the trail table once it is churned; the generator's
// expiry sweep calls it.
func (s *TrailStore) compact() {
	if churned(&s.dropped, len(s.trails)) {
		s.trails = rebuilt(s.trails)
	}
}

// String summarizes the store for logs.
func (s *TrailStore) String() string {
	return fmt.Sprintf("TrailStore{sessions=%d trails=%d}", s.Sessions(), s.Trails())
}
