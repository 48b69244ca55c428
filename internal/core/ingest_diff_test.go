package core_test

// Differential harness for the parallel ingest front end: a sharded
// engine with N ingest routers must stay byte-identical to the serial
// engine — same alerts, same events, same stats, in the same order — at
// every (ingesters × shards) point. The decode lanes race each other
// freely; the sequencer's strict rotation is what these tests hold to
// account.

import (
	"fmt"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

var (
	diffIngestCounts       = []int{1, 2, 4}
	diffIngestShardCounts  = []int{1, 2, 8}
	diffIngestRandomCounts = []int{2, 4} // ingesters=1 is the synchronous router, covered by sharded_diff_test.go
)

// diffIngestRunsCfg compares the serial engine against every
// (ingesters × shards) combination on one frame stream.
func diffIngestRunsCfg(t *testing.T, label string, frames []rec, cfg core.Config, ingCounts, shardCounts []int) {
	t.Helper()
	wantAlerts, wantEvents, wantStats, wantDistill := runSerialDistill(frames, cfg)
	for _, ing := range ingCounts {
		for _, shards := range shardCounts {
			icfg := cfg
			icfg.IngestRouters = ing
			gotAlerts, gotEvents, gotStats, gotDistill := runShardedDistill(frames, shards, icfg)
			tag := fmt.Sprintf("%s ingesters=%d shards=%d", label, ing, shards)
			diffClassification(t, tag, gotDistill, wantDistill)
			if len(gotEvents) != len(wantEvents) {
				t.Errorf("%s: %d events, serial has %d", tag, len(gotEvents), len(wantEvents))
			} else {
				for i := range wantEvents {
					if gotEvents[i] != wantEvents[i] {
						t.Errorf("%s: event %d = %+v, want %+v", tag, i, gotEvents[i], wantEvents[i])
						break
					}
				}
			}
			if len(gotAlerts) != len(wantAlerts) {
				t.Errorf("%s: %d alerts, serial has %d\n got: %v\nwant: %v",
					tag, len(gotAlerts), len(wantAlerts), alertKeys(gotAlerts), alertKeys(wantAlerts))
			} else {
				for i := range wantAlerts {
					if alertKey(gotAlerts[i]) != alertKey(wantAlerts[i]) {
						t.Errorf("%s: alert %d = %s, want %s", tag, i, alertKey(gotAlerts[i]), alertKey(wantAlerts[i]))
						break
					}
				}
			}
			if gotStats != wantStats {
				t.Errorf("%s: stats %+v, serial %+v", tag, gotStats, wantStats)
			}
		}
	}
}

// TestIngestDiffScenarios replays every scenario through the parallel
// ingest front end at ingesters {1,2,4} × shards {1,2,8}.
func TestIngestDiffScenarios(t *testing.T) {
	for _, name := range experiments.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffIngestRunsCfg(t, name, scenarioFrames(t, name, 7), core.Config{},
				diffIngestCounts, diffIngestShardCounts)
		})
	}
}

// TestIngestDiffRandomInterleavings drives the parallel front end with
// the seeded random workloads of sharded_diff_test.go: overlapping
// calls, media port reuse, attacks, IP fragmentation (exercising the
// sequencer's full-replay fragment path) and junk.
func TestIngestDiffRandomInterleavings(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	workers := 8
	jobs := make(chan int64, seeds)
	for s := 0; s < seeds; s++ {
		jobs <- int64(s)
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		t.Run(fmt.Sprintf("worker%d", w), func(t *testing.T) {
			t.Parallel()
			for seed := range jobs {
				frames := synthFrames(seed)
				diffIngestRunsCfg(t, fmt.Sprintf("seed %d", seed), frames, core.Config{},
					diffIngestRandomCounts, []int{2, 8})
				if t.Failed() {
					return
				}
			}
		})
	}
}

// TestIngestDiffFragmentFloodWithLimits: the reassembly-exhaustion flood
// under tight state budgets, through the ingest tier. Fragment digests
// replay the full synchronous path, and the clock-advance digests must
// expire the same fragment groups at the same stream positions.
func TestIngestDiffFragmentFloodWithLimits(t *testing.T) {
	frames := scenarioFrames(t, "fragflood", 7)
	cfg := core.Config{Limits: core.Limits{
		MaxSessions:    32,
		MaxFragGroups:  8,
		MaxIMHistories: 4,
		MaxSeqTrackers: 8,
		MaxBindings:    4,
	}}
	diffIngestRunsCfg(t, "fragflood+limits", frames, cfg, diffIngestRandomCounts, []int{2, 8})
}

// TestIngestDiffExpiryInterleaved pins the sequencer's session-expiry
// cadence: the gcEvery sweep must run at exactly the frame positions the
// synchronous router would run it at, even though frames now arrive in
// 64-frame batches.
func TestIngestDiffExpiryInterleaved(t *testing.T) {
	cfg := core.Config{SessionTimeout: 2 * time.Second}
	frames := expiryFrames(3)
	diffIngestRunsCfg(t, "expiry seed 3", frames, cfg, diffIngestRandomCounts, []int{2})
	_, _, stats := runSerialCfg(frames, cfg)
	if stats.SessionsEvicted == 0 {
		t.Fatalf("no sessions expired (frames=%d); the test exercises nothing", len(frames))
	}
}

// TestIngestLedgerReconciles checks the per-ingester ledger: after a
// Flush every frame dealt to a lane has been decoded and sequenced, the
// lane totals sum to the engine's frame count, and the downstream
// per-shard routed == processed + shed ledger still balances.
func TestIngestLedgerReconciles(t *testing.T) {
	frames := scenarioFrames(t, "bye", 7)
	for _, ing := range diffIngestRandomCounts {
		eng := core.NewShardedEngine(core.Config{IngestRouters: ing}, 8, core.WithEventLog())
		for _, r := range frames {
			eng.HandleFrame(r.at, r.frame)
		}
		eng.Flush()
		health := eng.IngestHealth()
		if len(health) != ing {
			t.Fatalf("ingesters=%d: IngestHealth has %d lanes", ing, len(health))
		}
		var fed uint64
		for _, h := range health {
			if h.FramesFed != h.FramesDecoded || h.FramesFed != h.FramesSequenced {
				t.Errorf("ingesters=%d lane %d: ledger fed=%d decoded=%d sequenced=%d does not reconcile",
					ing, h.Ingester, h.FramesFed, h.FramesDecoded, h.FramesSequenced)
			}
			fed += h.FramesFed
		}
		st := eng.Stats()
		if fed != uint64(st.Frames) {
			t.Errorf("ingesters=%d: lanes fed %d frames, engine counted %d", ing, fed, st.Frames)
		}
		for _, sh := range eng.ShardHealth() {
			if sh.FramesRouted != sh.FramesProcessed+sh.FramesShed {
				t.Errorf("ingesters=%d shard %d: routed %d != processed %d + shed %d",
					ing, sh.Shard, sh.FramesRouted, sh.FramesProcessed, sh.FramesShed)
			}
		}
		eng.Close()
		if got := eng.IngestHealth(); len(got) != ing {
			t.Errorf("ingesters=%d: IngestHealth unreadable after Close", ing)
		}
	}
	// The synchronous router reports no ingest lanes.
	eng := core.NewShardedEngine(core.Config{}, 2)
	defer eng.Close()
	if h := eng.IngestHealth(); h != nil {
		t.Errorf("synchronous router reports ingest lanes: %v", h)
	}
}
