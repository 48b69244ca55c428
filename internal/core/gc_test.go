package core

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestExpireSessionsEvictsIdleState(t *testing.T) {
	trails := NewTrailStore(0)
	g := NewEventGenerator(GenConfig{}, trails)
	// Two sessions: one active recently, one long idle.
	for i, call := range []string{"old@x", "fresh@x"} {
		at := time.Duration(i) * time.Hour
		fp := &FrameView{Proto: ProtoRTP, At: at}
		g.Process(fp)
		// Force session state to exist by naming the session via SIP:
		st := g.session(call)
		st.lastSeen = at
		trails.Get(call, ProtoSIP).AppendView(fp)
	}
	if got := g.ExpireSessions(90*time.Minute, 45*time.Minute); got != 1 {
		t.Fatalf("evicted %d sessions, want 1", got)
	}
	if _, ok := g.idx.sessions["old@x"]; ok {
		t.Error("idle session survived")
	}
	if _, ok := g.idx.sessions["fresh@x"]; !ok {
		t.Error("fresh session evicted")
	}
	if trails.Lookup("old@x", ProtoSIP) != nil {
		t.Error("idle session's trails survived")
	}
	if trails.Lookup("fresh@x", ProtoSIP) == nil {
		t.Error("fresh session's trails evicted")
	}
}

func TestExpireSessionsIdempotent(t *testing.T) {
	g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
	g.session("only@x").lastSeen = 0
	g.Process(&FrameView{Proto: ProtoRTP, Dst: netip.MustParseAddrPort("10.0.0.2:40000")})
	if got := g.ExpireSessions(time.Hour, time.Minute); got != 1 {
		t.Fatalf("first sweep evicted %d", got)
	}
	if got := g.ExpireSessions(2*time.Hour, time.Minute); got != 0 {
		t.Errorf("second sweep evicted %d", got)
	}
	// The tracker's endpoint has been silent past the timeout too.
	if n := len(rtpOf(g).seqs); n != 0 {
		t.Errorf("seq trackers remain: %d", n)
	}
}

// rtpOf returns the generator's rtp correlator.
func rtpOf(g *EventGenerator) *rtpCorrelator {
	for _, c := range g.correlators {
		if rc, ok := c.(*rtpCorrelator); ok {
			return rc
		}
	}
	return nil
}

func TestExpireSessionsKeepsBindings(t *testing.T) {
	g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
	g.bindings["alice@d"] = testSrcAddr()
	g.session("call@x").lastSeen = 0
	g.ExpireSessions(time.Hour, time.Minute)
	if len(g.Bindings()) != 1 {
		t.Error("registration binding evicted with session state")
	}
}

func TestGCPropertyNeverEvictsFresh(t *testing.T) {
	f := func(idleSecs, timeoutSecs uint8) bool {
		g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
		idle := time.Duration(idleSecs) * time.Second
		timeout := time.Duration(timeoutSecs)*time.Second + time.Second
		now := 24 * time.Hour
		g.session("s").lastSeen = now - idle
		evicted := g.ExpireSessions(now, timeout)
		if idle > timeout {
			return evicted == 1
		}
		return evicted == 0
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// testSrcAddr returns a fixture address.
func testSrcAddr() netip.Addr { return netip.MustParseAddr("10.0.0.1") }
