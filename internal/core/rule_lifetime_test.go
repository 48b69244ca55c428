package core_test

// Rule progress lives only while it can still match. Session-keyed
// partials end with their session's directory entry, windowed partials
// and absent lookbacks end on the clock, and an emptied entry is
// deleted — so the rule engine's state follows what is live, not what
// has happened.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

// byeGenerations builds gens generations of benign BYE-ended calls.
// Generation g starts at g × (SessionTimeout + 1 min), so every session
// of a generation has been idle past the timeout when the next one
// begins. Padding frames (undecodable, they create no state) place every
// generation's first frame on a session-expiry sweep, so each generation
// starts with the previous one's sessions swept.
func byeGenerations(gens, callsPerGen int) []rec {
	const timeout = 10 * time.Minute // Config.SessionTimeout's default
	pad := []byte{0xff}
	g := &chaosGen{}
	for i := 0; i < core.GCEvery-1; i++ {
		g.frames = append(g.frames, rec{frame: pad})
	}
	for gen := 1; gen <= gens; gen++ {
		start := len(g.frames)
		g.now = time.Duration(gen) * (timeout + time.Minute)
		g.frames = append(g.frames, rec{at: g.now, frame: pad})
		for c := 0; c < callsPerGen; c++ {
			caller := netip.AddrFrom4([4]byte{10, 1, byte(gen), byte(c)})
			callee := netip.AddrFrom4([4]byte{10, 2, byte(gen), byte(c)})
			g.byeEndedCall(fmt.Sprintf("gen%d-call%d@test", gen, c), caller, callee, 20000, 30000, 0)
		}
		for len(g.frames)-start < core.GCEvery {
			g.frames = append(g.frames, rec{at: g.now, frame: pad})
		}
	}
	return g.frames
}

// TestRuleProgressEndsWithSession replays k and then 4k generations of
// benign BYE-ended calls. Every BYE opens a bye-attack partial that no
// orphan media completes; it must end with its session, so the live
// partial count stays at most the live session count and does not grow
// with the number of generations replayed.
func TestRuleProgressEndsWithSession(t *testing.T) {
	const k, calls = 2, 16
	frames := byeGenerations(4*k, calls)
	perGen := core.GCEvery

	type counts interface {
		HandleFrame(time.Duration, []byte)
		LivePartials() int
		LiveSessions() int
		CheckPartialsLive() error
	}
	serial := core.NewEngine(core.Config{})
	sharded := core.NewShardedEngine(core.Config{}, 2)
	defer sharded.Close()
	for _, run := range []struct {
		name string
		eng  counts
	}{{"serial", serial}, {"sharded2", sharded}} {
		var atK int
		for gen := 1; gen <= 4*k; gen++ {
			end := perGen - 1 + gen*perGen
			for _, r := range frames[end-perGen : end] {
				run.eng.HandleFrame(r.at, r.frame)
			}
			partials, sessions := run.eng.LivePartials(), run.eng.LiveSessions()
			if partials == 0 {
				t.Fatalf("%s: generation %d left no partial to bound (bye-attack opens one per BYE)", run.name, gen)
			}
			if partials > sessions {
				t.Errorf("%s: after generation %d the rule engine holds %d partials for %d live sessions",
					run.name, gen, partials, sessions)
			}
			if err := run.eng.CheckPartialsLive(); err != nil {
				t.Errorf("%s: after generation %d: %v", run.name, gen, err)
			}
			switch gen {
			case k:
				atK = partials
			case 4 * k:
				if partials != atK {
					t.Errorf("%s: %d live partials after %d generations, %d after %d: rule state grows with history",
						run.name, atK, k, partials, 4*k)
				}
			}
		}
	}
}

// TestWindowedPartialsExpireOnClock floods a bare rule engine running
// the cross-point ruleset (the cooperative aggregator's, which has no
// session directory) with unique AORs and unique calls. No key is ever
// revisited, so only the clock can end a partial: the live count must
// stay at most the partials started within each rule's window.
func TestWindowedPartialsExpireOnClock(t *testing.T) {
	rules := core.CrossPointRuleset()
	re := core.NewRuleEngine(rules)
	const n, step = 20000, 10 * time.Millisecond
	bound := 0
	for _, r := range rules {
		bound += int(r.Window/step) + 1 // one partial per event within [now-Window, now]
	}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		re.Feed(core.Event{At: at, Type: core.EvSIPRegisterOK, Point: core.PointAccessA,
			Session: fmt.Sprintf("reg-%d", i), Detail: fmt.Sprintf("sip:user%d@example.com", i)})
		re.Feed(core.Event{At: at, Type: core.EvSIPBye, Point: core.PointEdge, Session: fmt.Sprintf("call-%d", i)})
		if i%100 == 0 || i == n-1 {
			if live := re.LivePartials(); live > bound {
				t.Fatalf("after %v: %d live partials, want at most the %d started within their windows", at, live, bound)
			}
		}
	}
	if re.LivePartials() == 0 {
		t.Fatal("no live partials at all: the flood did not exercise the windowed rules")
	}
	// The clock alone (no event) ends the rest.
	re.Flush(time.Duration(n)*step + time.Minute)
	if live := re.LivePartials(); live != 0 {
		t.Errorf("%d partials survive a flush past every window", live)
	}
}

// TestAbsentLookbacksExpireOnClock floods an absence rule's cancelling
// side with unique keys: a lookback older than the grace can cancel no
// later completion, so the table holds only the last grace's worth.
func TestAbsentLookbacksExpireOnClock(t *testing.T) {
	const grace, step, n = time.Second, 10 * time.Millisecond, 5000
	re := core.NewRuleEngine([]core.Rule{{
		Name:        "unvouched",
		Severity:    core.SeverityWarning,
		Steps:       []core.Step{{Type: core.EvSIPInstantMessage, Point: "here"}},
		Absent:      []core.Step{{Type: core.EvSIPInstantMessage, Point: "there"}},
		AbsentGrace: grace,
	}})
	bound := int(grace / step)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		re.Feed(core.Event{At: at, Type: core.EvSIPInstantMessage, Point: "there", Session: fmt.Sprintf("im:%d", i)})
		if live := re.LiveLookbacks(); live > bound {
			t.Fatalf("after %v: %d lookbacks, want at most the %d within the grace", at, live, bound)
		}
	}
	// A lookback still inside the grace keeps cancelling.
	last := time.Duration(n-1) * step
	re.Feed(core.Event{At: last + grace/2, Type: core.EvSIPInstantMessage, Point: "here", Session: fmt.Sprintf("im:%d", n-1)})
	if fired := re.Flush(last + 10*grace); len(fired) != 0 {
		t.Errorf("a completion inside the lookback's grace was not cancelled: %v", fired)
	}
	// One past it does not.
	re.Feed(core.Event{At: last + 20*grace, Type: core.EvSIPInstantMessage, Point: "here", Session: "im:0"})
	if fired := re.Flush(last + 30*grace); len(fired) != 1 {
		t.Errorf("a completion far past every lookback raised %d alerts, want 1", len(fired))
	}
}

// TestSessionPartialsNeverOutliveSessions holds the invariant "rule
// progress never outlives its session" after every scenario, on the
// serial engine and on each shard of a 2-shard engine, and across a
// checkpoint: a checkpoint taken mid-run, restored into either engine
// kind and resumed to the end, must satisfy it at both points.
func TestSessionPartialsNeverOutliveSessions(t *testing.T) {
	type checked interface {
		HandleFrame(time.Duration, []byte)
		CheckPartialsLive() error
	}
	feed := func(eng checked, frames []rec) {
		for _, r := range frames {
			eng.HandleFrame(r.at, r.frame)
		}
	}
	for _, name := range experiments.ScenarioNames() {
		if testing.Short() && !shortKillScenarios[name] {
			continue
		}
		frames := scenarioFrames(t, name, 7)
		half := len(frames) / 2

		serial := core.NewEngine(core.Config{})
		feed(serial, frames[:half])
		if err := serial.CheckPartialsLive(); err != nil {
			t.Errorf("%s serial at the checkpoint: %v", name, err)
		}
		snap, err := serial.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		feed(serial, frames[half:])
		if err := serial.CheckPartialsLive(); err != nil {
			t.Errorf("%s serial: %v", name, err)
		}

		sharded := core.NewShardedEngine(core.Config{}, 2)
		feed(sharded, frames)
		if err := sharded.CheckPartialsLive(); err != nil {
			t.Errorf("%s sharded2: %v", name, err)
		}
		sharded.Close()

		resumedSerial := core.NewEngine(core.Config{})
		if err := resumedSerial.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%s: serial restore: %v", name, err)
		}
		resumedSharded := core.NewShardedEngine(core.Config{}, 2)
		if err := resumedSharded.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%s: sharded restore: %v", name, err)
		}
		for _, run := range []struct {
			kind string
			eng  checked
		}{{"serial", resumedSerial}, {"sharded2", resumedSharded}} {
			if err := run.eng.CheckPartialsLive(); err != nil {
				t.Errorf("%s %s restored: %v", name, run.kind, err)
			}
			feed(run.eng, frames[half:])
			if err := run.eng.CheckPartialsLive(); err != nil {
				t.Errorf("%s %s resumed: %v", name, run.kind, err)
			}
		}
		resumedSharded.Close()
	}
}
