package core

import (
	"net/netip"
	"testing"
	"time"
)

// These tests pin the eviction policy of every state budget in Limits:
// which victim goes, in what order, with what accounting. The diff
// harness proves serial and sharded engines agree under caps; these
// prove the caps themselves do what Limits documents.

func TestSessionCapEvictsLRU(t *testing.T) {
	trails := NewTrailStore(0)
	g := NewEventGenerator(GenConfig{}, trails)
	g.SetLimits(Limits{MaxSessions: 3})
	for i, id := range []string{"a@x", "b@x", "c@x"} {
		g.session(id).lastSeen = time.Duration(i+1) * time.Second
		trails.Get(id, ProtoSIP).AppendView(&FrameView{})
	}
	g.session("d@x") // at cap: must evict a@x, the least recently touched
	if _, ok := g.idx.sessions["a@x"]; ok {
		t.Error("LRU session survived the cap")
	}
	for _, id := range []string{"b@x", "c@x", "d@x"} {
		if _, ok := g.idx.sessions[id]; !ok {
			t.Errorf("session %s evicted, want only the LRU gone", id)
		}
	}
	if g.ctx.evictedSessions != 1 {
		t.Errorf("evictedSessions = %d, want 1", g.ctx.evictedSessions)
	}
	if trails.Lookup("a@x", ProtoSIP) != nil {
		t.Error("evicted session's trails survived")
	}
}

func TestSessionCapTieBreaksOnCallID(t *testing.T) {
	g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
	g.SetLimits(Limits{MaxSessions: 3})
	// All equally stale: the smaller Call-ID must go, regardless of
	// creation or map iteration order.
	for _, id := range []string{"b@x", "c@x", "a@x"} {
		g.session(id).lastSeen = 0
	}
	g.session("d@x")
	if _, ok := g.idx.sessions["a@x"]; ok {
		t.Error("tie-break kept the smaller Call-ID")
	}
	if _, ok := g.idx.sessions["b@x"]; !ok {
		t.Error("tie-break evicted more than the smallest Call-ID")
	}
}

func TestSessionCapDropsPendingRegistration(t *testing.T) {
	g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
	g.SetLimits(Limits{MaxSessions: 1})
	g.session("reg@x").lastSeen = 0
	g.idx.pendingReg["reg@x"] = "alice@d"
	g.session("new@x")
	if _, ok := g.idx.pendingReg["reg@x"]; ok {
		t.Error("evicted session left its pending registration dangling")
	}
}

func TestEvictStalestIM(t *testing.T) {
	ims := map[string]imRecord{
		"bob@d|10.0.0.2":   {at: 2 * time.Second},
		"alice@d|10.0.0.1": {at: time.Second},
		"carol@d|10.0.0.3": {at: 3 * time.Second},
	}
	if vk := evictStalestIM(ims); vk != "alice@d|10.0.0.1" {
		t.Errorf("evicted %q, want the stalest entry", vk)
	}
	// Tie on age: smaller key goes.
	ims["aaa@d|10.0.0.9"] = imRecord{at: 2 * time.Second}
	if vk := evictStalestIM(ims); vk != "aaa@d|10.0.0.9" {
		t.Errorf("tie-break evicted %q, want the smaller key", vk)
	}
	evictStalestIM(ims)
	evictStalestIM(ims)
	if vk := evictStalestIM(ims); vk != "" {
		t.Errorf("empty map eviction returned %q, want \"\"", vk)
	}
}

func TestEvictStalestSeq(t *testing.T) {
	ep := func(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }
	seqs := map[netip.AddrPort]*seqTrack{
		ep("10.0.0.2:10000"): {at: 2 * time.Second},
		ep("10.0.0.1:10000"): {at: time.Second},
	}
	if !evictStalestSeq(seqs) {
		t.Fatal("eviction reported nothing removed")
	}
	if _, ok := seqs[ep("10.0.0.1:10000")]; ok {
		t.Error("stalest tracker survived")
	}
	// Tie on age: address order, then port order.
	seqs[ep("10.0.0.2:9000")] = &seqTrack{at: 2 * time.Second}
	evictStalestSeq(seqs)
	if _, ok := seqs[ep("10.0.0.2:9000")]; ok {
		t.Error("tie-break kept the smaller endpoint")
	}
	evictStalestSeq(seqs)
	if evictStalestSeq(seqs) {
		t.Error("empty map eviction reported a removal")
	}
}

func TestBindingCapEvictsLeastRecentlyRefreshed(t *testing.T) {
	g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
	g.SetLimits(Limits{MaxBindings: 2})
	ip := netip.MustParseAddr("10.0.0.9")
	g.ApplyBinding("alice@d", ip)
	g.ApplyBinding("bob@d", ip)
	g.ApplyBinding("alice@d", ip) // refresh: alice is now newer than bob
	g.ApplyBinding("carol@d", ip)
	b := g.Bindings()
	if _, ok := b["bob@d"]; ok {
		t.Error("least-recently-refreshed binding survived")
	}
	if _, ok := b["alice@d"]; !ok {
		t.Error("refreshed binding was evicted")
	}
	if g.ctx.evictedBindings != 1 {
		t.Errorf("evictedBindings = %d, want 1", g.ctx.evictedBindings)
	}
}

func TestBindingCapRanksUntrackedOldest(t *testing.T) {
	g := NewEventGenerator(GenConfig{}, NewTrailStore(0))
	g.SetLimits(Limits{MaxBindings: 2})
	// Entries written before age tracking (direct map writes, as older
	// tests do) have no bindingAge entry and must rank oldest; ties on
	// the missing age break to the smaller AOR.
	g.bindings["zeta@d"] = testSrcAddr()
	g.bindings["alpha@d"] = testSrcAddr()
	g.ApplyBinding("new@d", testSrcAddr())
	b := g.Bindings()
	if _, ok := b["alpha@d"]; ok {
		t.Error("tie-break kept the smaller AOR")
	}
	if _, ok := b["zeta@d"]; !ok {
		t.Error("tie-break evicted more than the smallest untracked AOR")
	}
}

func TestRuleEngineAlertCap(t *testing.T) {
	re := NewRuleEngine([]Rule{{
		Name:     "jump",
		Severity: SeverityWarning,
		Steps:    []Step{{Type: EvRTPSeqJump}},
	}})
	re.maxAlerts = 2
	fire := func(sess string, at time.Duration) { re.Feed(Event{At: at, Type: EvRTPSeqJump, Session: sess}) }

	fire("s1", 1*time.Second)
	fire("s2", 2*time.Second)
	fire("s3", 3*time.Second) // evicts the s1 alert
	alerts := re.Alerts()
	if len(alerts) != 2 || alerts[0].Session != "s2" || alerts[1].Session != "s3" {
		t.Fatalf("alerts after eviction = %v, want oldest dropped", alerts)
	}
	if re.evicted != 1 {
		t.Errorf("evicted = %d, want 1", re.evicted)
	}

	// The dedup index must have been rewritten: a repeat for s2 bumps the
	// surviving s2 alert, not whatever now occupies its old slot.
	fire("s2", 4*time.Second)
	alerts = re.Alerts()
	if alerts[0].Count != 2 || alerts[1].Count != 1 {
		t.Errorf("repeat after eviction bumped the wrong alert: %v", alerts)
	}

	// The evicted alert's suppression is forgotten with it: s1 re-fires
	// as a fresh alert (evicting s2, now the oldest).
	fire("s1", 5*time.Second)
	alerts = re.Alerts()
	if len(alerts) != 2 || alerts[0].Session != "s3" || alerts[1].Session != "s1" {
		t.Fatalf("re-fire after eviction = %v, want s1 back as newest", alerts)
	}
	if alerts[1].Count != 1 {
		t.Errorf("re-fired alert Count = %d, want a fresh 1", alerts[1].Count)
	}
	if re.evicted != 2 {
		t.Errorf("evicted = %d, want 2", re.evicted)
	}
}

func TestAlertEvictionKeepsDedupAligned(t *testing.T) {
	re := NewRuleEngine([]Rule{{
		Name:     "jump",
		Severity: SeverityWarning,
		Steps:    []Step{{Type: EvRTPSeqJump}},
	}})
	re.maxAlerts = 3
	fire := func(sess string, at time.Duration) { re.Feed(Event{At: at, Type: EvRTPSeqJump, Session: sess}) }

	// Fill the cap, then push it over repeatedly: every new session past
	// the third evicts the oldest survivor.
	for i, sess := range []string{"s1", "s2", "s3", "s4", "s5", "s6"} {
		fire(sess, time.Duration(i)*time.Second)
	}
	alerts := re.Alerts()
	if len(alerts) != 3 || alerts[0].Session != "s4" || alerts[2].Session != "s6" {
		t.Fatalf("alerts after 3 evictions = %v, want s4..s6", alerts)
	}
	if re.evicted != 3 {
		t.Fatalf("evicted = %d, want 3", re.evicted)
	}

	// After repeated evictions every surviving dedup entry must still
	// point at its own alert: a repeat for each survivor bumps exactly
	// that survivor's Count, never a neighbor's.
	for _, sess := range []string{"s5", "s6", "s6", "s4"} {
		fire(sess, 10*time.Second)
	}
	alerts = re.Alerts()
	want := map[string]int{"s4": 2, "s5": 2, "s6": 3}
	for _, a := range alerts {
		if a.Count != want[a.Session] {
			t.Errorf("session %s Count = %d, want %d", a.Session, a.Count, want[a.Session])
		}
	}

	// Survivor bumps must not have disturbed eviction accounting, and a
	// fresh session must still evict the current oldest (s4).
	fire("s7", 11*time.Second)
	alerts = re.Alerts()
	if len(alerts) != 3 || alerts[0].Session != "s5" || alerts[2].Session != "s7" {
		t.Fatalf("alerts after fresh fire = %v, want s5, s6, s7", alerts)
	}
	if re.evicted != 4 {
		t.Errorf("evicted = %d, want 4", re.evicted)
	}
}

func TestEngineEventLogCap(t *testing.T) {
	e := NewEngine(Config{Limits: Limits{MaxRetainedEvents: 3}}, WithEventLog())
	for i := 0; i < 5; i++ {
		e.logEvent(Event{At: time.Duration(i) * time.Second, Type: EvRTPNewFlow, Session: "s"})
	}
	evs := e.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	if evs[0].At != 2*time.Second || evs[2].At != 4*time.Second {
		t.Errorf("retained window = [%v..%v], want the newest three", evs[0].At, evs[2].At)
	}
	if got := e.Stats().EventsEvicted; got != 2 {
		t.Errorf("EventsEvicted = %d, want 2", got)
	}
}

func TestEngineEventLogUncapped(t *testing.T) {
	e := NewEngine(Config{}, WithEventLog())
	for i := 0; i < 100; i++ {
		e.logEvent(Event{At: time.Duration(i), Type: EvRTPNewFlow, Session: "s"})
	}
	if len(e.Events()) != 100 {
		t.Errorf("uncapped log retained %d events, want all 100", len(e.Events()))
	}
	if got := e.Stats().EventsEvicted; got != 0 {
		t.Errorf("EventsEvicted = %d without a cap, want 0", got)
	}
}
