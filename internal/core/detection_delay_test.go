package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

// detectionDelayBound is how long a sharded alert may take to reach
// OnAlert once its trigger frame has been fed and the feed has stopped.
// The engine's own bound is a few milliseconds (the batch linger and its
// backstop); the rest is slack for the race detector on a loaded host.
const detectionDelayBound = time.Second

// alertTrigger is the frame whose processing first raised an alert on
// the serial engine.
type alertTrigger struct {
	frame int
	key   string // rule|session
}

// serialTriggers replays frames through the serial engine and returns
// each alert's trigger frame, in frame order.
func serialTriggers(frames []rec) []alertTrigger {
	eng := core.NewEngine(core.Config{})
	var out []alertTrigger
	cur := 0
	eng.OnAlert(func(a core.Alert) {
		out = append(out, alertTrigger{frame: cur, key: a.Rule + "|" + a.Session})
	})
	for i, r := range frames {
		cur = i
		eng.HandleFrame(r.at, r.frame)
	}
	return out
}

// alertWatch records the keys a sharded engine's OnAlert has delivered.
type alertWatch struct {
	mu   sync.Mutex
	seen map[string]bool
	note chan struct{}
}

func watchAlerts(eng *core.ShardedEngine) *alertWatch {
	w := &alertWatch{seen: make(map[string]bool), note: make(chan struct{}, 1)}
	eng.OnAlert(func(a core.Alert) {
		w.mu.Lock()
		w.seen[a.Rule+"|"+a.Session] = true
		w.mu.Unlock()
		select {
		case w.note <- struct{}{}:
		default:
		}
	})
	return w
}

func (w *alertWatch) has(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seen[key]
}

// await waits up to d for key, returning how long it took and whether
// it arrived.
func (w *alertWatch) await(key string, d time.Duration) (time.Duration, bool) {
	start := time.Now()
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for !w.has(key) {
		select {
		case <-w.note:
		case <-deadline.C:
			return time.Since(start), w.has(key)
		}
	}
	return time.Since(start), true
}

// TestShardedDetectionDelay holds the sharded engine to the paper's
// detection delay (§4.3) on a tap that stops: for every scenario, at
// shards {1, 2, 8} x IngestRouters {0, 2}, the engine is fed up to each
// alert's trigger frame (found on the serial engine) and no further, and
// the alert must reach OnAlert within detectionDelayBound — with no
// Flush, Alerts or TrailCounts call to push the partial batch out. The
// quiet-tap subtests are the stricter probe: the first bye-attack
// trigger, then 300ms of silence.
func TestShardedDetectionDelay(t *testing.T) {
	t.Run("quiet-tap", testQuietTap)
	for _, name := range experiments.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			triggers := serialTriggers(frames)
			for _, ing := range []int{0, 2} {
				for _, shards := range []int{1, 2, 8} {
					label := fmt.Sprintf("shards=%d ingesters=%d", shards, ing)
					eng := core.NewShardedEngine(core.Config{IngestRouters: ing}, shards)
					w := watchAlerts(eng)
					next := 0
				feed:
					for i, r := range frames {
						eng.HandleFrame(r.at, r.frame)
						for ; next < len(triggers) && triggers[next].frame == i; next++ {
							tr := triggers[next]
							if took, ok := w.await(tr.key, detectionDelayBound); !ok {
								t.Errorf("%s: alert %s (trigger frame %d) not delivered %v after the feed stopped",
									label, tr.key, tr.frame, took)
								break feed
							}
						}
					}
					eng.Close()
				}
			}
		})
	}
}

// testQuietTap feeds the bye scenario up to its first bye-attack trigger
// frame, then stays silent for 300ms. The serial engine raises the alert
// at that frame; the sharded engine must have raised it by the end of
// the silence, without a Flush.
func testQuietTap(t *testing.T) {
	frames := scenarioFrames(t, "bye", 7)
	trigger := -1
	for _, tr := range serialTriggers(frames) {
		if strings.HasPrefix(tr.key, core.RuleByeAttack+"|") {
			trigger = tr.frame
			break
		}
	}
	if trigger < 0 {
		t.Fatal("bye scenario raised no bye-attack alert serially")
	}
	for _, ing := range []int{0, 2} {
		for _, shards := range []int{1, 2, 8} {
			ing, shards := ing, shards
			t.Run(fmt.Sprintf("shards=%d/ingesters=%d", shards, ing), func(t *testing.T) {
				t.Parallel()
				eng := core.NewShardedEngine(core.Config{IngestRouters: ing}, shards)
				defer eng.Close()
				var mu sync.Mutex
				raised := false
				eng.OnAlert(func(a core.Alert) {
					if a.Rule == core.RuleByeAttack {
						mu.Lock()
						raised = true
						mu.Unlock()
					}
				})
				for _, r := range frames[:trigger+1] {
					eng.HandleFrame(r.at, r.frame)
				}
				time.Sleep(300 * time.Millisecond)
				mu.Lock()
				defer mu.Unlock()
				if !raised {
					t.Errorf("bye-attack not raised after 300ms of silence following its trigger frame %d", trigger)
				}
			})
		}
	}
}
