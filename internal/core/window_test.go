package core

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// movedBy counts the retained elements an append-with-eviction step
// copied: before is the window ahead of the step and dropped how many
// elements it evicted from the front. The survivors stay in place unless
// the window moved to another array or was compacted.
func movedBy[T any](before, after []T, dropped int) int {
	survivors := len(before) - dropped
	if survivors == 0 || &after[0] == &before[dropped] {
		return 0
	}
	return survivors
}

// TestAlertEvictionSlidesWindow holds the retained alert list under
// MaxRetainedAlerts to the naive front-drop list, element for element,
// while an eviction moves O(1) retained alerts amortized whatever the
// cap, and the backing array never exceeds twice the cap.
func TestAlertEvictionSlidesWindow(t *testing.T) {
	for _, limit := range []int{1, 2, 7, 64, 1000} {
		re := NewRuleEngine(nil)
		re.maxAlerts = limit
		var want []Alert
		moved, raises := 0, 20*limit+5
		for i := 0; i < raises; i++ {
			a := Alert{Rule: "r" + strconv.Itoa(i%3), Session: strconv.Itoa(i), Count: 1}
			before := re.alerts
			dropped := 0
			if len(before) >= limit {
				dropped = 1
			}
			re.raiseAlert(a)
			moved += movedBy(before, re.alerts, dropped)
			if want = append(want, a); len(want) > limit {
				want = want[1:]
			}
			if cap(re.alerts) > 2*limit {
				t.Fatalf("cap %d: the retained window's array holds %d slots", limit, cap(re.alerts))
			}
		}
		if !reflect.DeepEqual(re.alerts, want) {
			t.Fatalf("cap %d: retained alerts differ from the front-drop reference", limit)
		}
		for i, a := range re.alerts {
			if idx := re.dedup[ruleKey{rule: a.Rule, key: a.Session}] - re.dedupBase; idx != i {
				t.Fatalf("cap %d: dedup points alert %d at %d", limit, i, idx)
			}
		}
		if len(re.dedup) != len(re.alerts) || re.evicted != raises-limit {
			t.Fatalf("cap %d: %d dedup entries for %d alerts, %d evicted (want %d)",
				limit, len(re.dedup), len(re.alerts), re.evicted, raises-limit)
		}
		if moved > 2*raises {
			t.Errorf("cap %d: %d raises moved %d retained alerts; want O(1) per raise", limit, raises, moved)
		}
	}
}

// TestEventLogEvictionSlidesWindow is the same check for the engine's
// retained event log under MaxRetainedEvents.
func TestEventLogEvictionSlidesWindow(t *testing.T) {
	for _, limit := range []int{1, 7, 1000} {
		e := NewEngine(Config{Limits: Limits{MaxRetainedEvents: limit}}, WithEventLog())
		var want []Event
		moved, n := 0, 20*limit+5
		for i := 0; i < n; i++ {
			ev := Event{Type: EvSIPInvite, Session: strconv.Itoa(i)}
			before := e.events
			dropped := 0
			if len(before) >= limit {
				dropped = 1
			}
			e.logEvent(ev)
			moved += movedBy(before, e.events, dropped)
			if want = append(want, ev); len(want) > limit {
				want = want[1:]
			}
			if cap(e.events) > 2*limit {
				t.Fatalf("cap %d: the retained log's array holds %d slots", limit, cap(e.events))
			}
		}
		if !reflect.DeepEqual(e.events, want) || e.stats.EventsEvicted != n-limit {
			t.Fatalf("cap %d: retained log differs from the front-drop reference (%d evicted)", limit, e.stats.EventsEvicted)
		}
		if moved > 2*n {
			t.Errorf("cap %d: %d appends moved %d retained events; want O(1) per append", limit, n, moved)
		}
	}
}

// BenchmarkAlertEviction times one raise that evicts the oldest retained
// alert: the cost per eviction must not grow with the cap.
func BenchmarkAlertEviction(b *testing.B) {
	for _, limit := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("cap=%d", limit), func(b *testing.B) {
			re := NewRuleEngine(nil)
			re.maxAlerts = limit
			sessions := make([]string, 2*limit)
			for i := range sessions {
				sessions[i] = strconv.Itoa(i)
			}
			for i := 0; i < limit; i++ {
				re.raiseAlert(Alert{Rule: "r", Session: sessions[i], Count: 1})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Sessions cycle over twice the cap, so each one was evicted
				// before it comes back: every raise is a new alert.
				re.raiseAlert(Alert{Rule: "r", Session: sessions[(limit+i)%len(sessions)], Count: 1})
			}
		})
	}
}
