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

// checkSlidingWindow pushes n values through push into a list capped at
// limit whose live window is window(), and holds it to the naive
// front-drop list element for element, while an eviction moves O(1)
// retained values amortized whatever the cap and the backing array never
// exceeds twice the cap. It returns the front-drop reference.
func checkSlidingWindow[T any](t *testing.T, what string, limit, n int, mk func(i int) T, push func(T), window func() []T) []T {
	t.Helper()
	var want []T
	moved := 0
	for i := 0; i < n; i++ {
		x := mk(i)
		before := window()
		dropped := 0
		if len(before) >= limit {
			dropped = 1
		}
		push(x)
		moved += movedBy(before, window(), dropped)
		if want = append(want, x); len(want) > limit {
			want = want[1:]
		}
		if cap(window()) > 2*limit {
			t.Fatalf("%s cap %d: the window's array holds %d slots", what, limit, cap(window()))
		}
	}
	if !reflect.DeepEqual(window(), want) {
		t.Fatalf("%s cap %d: window differs from the front-drop reference", what, limit)
	}
	if moved > 2*n {
		t.Errorf("%s cap %d: %d appends moved %d retained values; want O(1) per append", what, limit, n, moved)
	}
	return want
}

// TestAlertEvictionSlidesWindow holds the retained alert list under
// MaxRetainedAlerts to the sliding-window contract, with every dedup
// entry still pointing at its alert.
func TestAlertEvictionSlidesWindow(t *testing.T) {
	for _, limit := range []int{1, 2, 7, 64, 1000} {
		re := NewRuleEngine(nil)
		re.maxAlerts = limit
		raises := 20*limit + 5
		checkSlidingWindow(t, "alerts", limit, raises,
			func(i int) Alert { return Alert{Rule: "r" + strconv.Itoa(i%3), Session: strconv.Itoa(i), Count: 1} },
			func(a Alert) { re.raiseAlert(a) },
			func() []Alert { return re.alerts })
		for i, a := range re.alerts {
			if idx := re.dedup[ruleKey{rule: a.Rule, key: a.Session}] - re.dedupBase; idx != i {
				t.Fatalf("cap %d: dedup points alert %d at %d", limit, i, idx)
			}
		}
		if len(re.dedup) != len(re.alerts) || re.evicted != raises-limit {
			t.Fatalf("cap %d: %d dedup entries for %d alerts, %d evicted (want %d)",
				limit, len(re.dedup), len(re.alerts), re.evicted, raises-limit)
		}
	}
}

// TestEventLogEvictionSlidesWindow is the same check for the engine's
// retained event log under MaxRetainedEvents, and for a cooperative
// exporter's pending queue under MaxDigestEvents, whose digest must carry
// exactly the front-drop reference's events and drop count.
func TestEventLogEvictionSlidesWindow(t *testing.T) {
	mk := func(i int) Event { return Event{Type: EvSIPInvite, Session: strconv.Itoa(i)} }
	for _, limit := range []int{1, 7, 1000} {
		e := NewEngine(Config{Limits: Limits{MaxRetainedEvents: limit}}, WithEventLog())
		n := 20*limit + 5
		checkSlidingWindow(t, "event log", limit, n, mk, e.logEvent, func() []Event { return e.events })
		if e.stats.EventsEvicted != n-limit {
			t.Fatalf("cap %d: %d events evicted, want %d", limit, e.stats.EventsEvicted, n-limit)
		}
	}
	for _, limit := range []int{7, 1000} {
		x := NewExporter(Limits{MaxDigestEvents: limit})
		n := 20*limit + 5
		want := checkSlidingWindow(t, "exporter", limit, n, mk, x.Observe, func() []Event { return x.pending })
		if d := x.Flush("edge"); d == nil || !reflect.DeepEqual(d.Events, want) || d.Dropped != uint64(n-limit) {
			t.Fatalf("exporter cap %d: digest differs from the front-drop reference (%d dropped)", limit, x.Dropped())
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
