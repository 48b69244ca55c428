package core_test

// Rolling shard restart tests. RollingRestart drains one shard at a
// time at a quiescent-point marker, snapshots its engine, restarts it
// warm from that snapshot, and reconciles the routed == processed + shed
// ledger before moving to the next shard. The contract: a restart sweep
// at any frame boundary is invisible in the output (the differential
// below), every restart is counted in ShardsRestarted, and a fault
// injected mid-drain degrades to the ordinary quarantine/restart path
// without losing accounting.

import (
	"fmt"
	"testing"

	"scidive/internal/chaoscore"
	"scidive/internal/core"
)

// TestRollingRestartContinuity restarts every shard mid-scenario at a
// sweep of frame boundaries and geometries; the output must be
// byte-identical to the uninterrupted serial run, with every restart
// counted.
func TestRollingRestartContinuity(t *testing.T) {
	frames := scenarioFrames(t, "bye", 7)
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	points := killPoints(len(frames), shortKillFractions)
	for _, geo := range []struct{ shards, ingest int }{{2, 1}, {4, 1}, {4, 2}} {
		for _, k := range points {
			label := fmt.Sprintf("shards=%d ingest=%d restart@%d", geo.shards, geo.ingest, k)
			eng := core.NewShardedEngine(core.Config{IngestRouters: geo.ingest}, geo.shards, core.WithEventLog())
			for _, r := range frames[:k] {
				eng.HandleFrame(r.at, r.frame)
			}
			if err := eng.RollingRestart(); err != nil {
				eng.Close()
				t.Fatalf("%s: %v", label, err)
			}
			for _, r := range frames[k:] {
				eng.HandleFrame(r.at, r.frame)
			}
			mustMediaIndex(eng.CheckMediaIndex()) // flushes
			got := eng.Stats()
			// The uninterrupted baseline has ShardsRestarted == 0; the sweep
			// must account exactly one warm restart per shard and nothing else
			// may differ.
			if got.ShardsRestarted != geo.shards {
				t.Errorf("%s: ShardsRestarted = %d, want %d", label, got.ShardsRestarted, geo.shards)
			}
			got.ShardsRestarted = wantStats.ShardsRestarted
			compareToBaseline(t, label, eng.Alerts(), eng.Events(), got, wantAlerts, wantEvents, wantStats)
			for _, h := range eng.ShardHealth() {
				if h.FramesRouted != h.FramesProcessed+h.FramesShed {
					t.Errorf("%s: shard %d ledger does not reconcile: routed=%d processed=%d shed=%d",
						label, h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed)
				}
			}
			eng.Close()
			if t.Failed() {
				return
			}
		}
	}
}

// TestRollingRestartRepeated performs a restart sweep after every
// quarter of the trace — shard state crosses multiple warm restarts —
// and the output must still match the uninterrupted run.
func TestRollingRestartRepeated(t *testing.T) {
	frames := scenarioFrames(t, "rtcpbye", 7)
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	const shards = 4
	eng := core.NewShardedEngine(core.Config{}, shards, core.WithEventLog())
	defer eng.Close()
	points := killPoints(len(frames), []float64{1.0 / 4, 1.0 / 2, 3.0 / 4})
	next := 0
	for i, r := range frames {
		if next < len(points) && i == points[next] {
			next++
			if err := eng.RollingRestart(); err != nil {
				t.Fatalf("sweep at frame %d: %v", i, err)
			}
		}
		eng.HandleFrame(r.at, r.frame)
	}
	mustMediaIndex(eng.CheckMediaIndex()) // flushes
	got := eng.Stats()
	if want := len(points) * shards; got.ShardsRestarted != want {
		t.Errorf("ShardsRestarted = %d, want %d (%d sweeps × %d shards)", got.ShardsRestarted, want, len(points), shards)
	}
	got.ShardsRestarted = wantStats.ShardsRestarted
	compareToBaseline(t, "repeated rolling restarts", eng.Alerts(), eng.Events(), got,
		wantAlerts, wantEvents, wantStats)
}

// TestRollingRestartMidDrainKill injects a worker panic that fires while
// RollingRestart is draining the shard's queue (parallel ingest keeps
// frames in flight when the sweep begins). The sweep must degrade to the
// ordinary failure path: the panicked shard is quarantined and counted,
// detection on other shards survives, the sweep itself returns without
// deadlock, and every routed frame stays accounted.
func TestRollingRestartMidDrainKill(t *testing.T) {
	frames, session := byeCallSession(t)
	const shards = 2
	victimShard := core.ShardOf(session, shards)
	panicShard := 1 - victimShard

	// Panic a few frames into the panicked shard's stream; with parallel
	// ingest keeping frames queued, the fault lands either while feeding
	// or inside the sweep's per-shard drain — both must degrade cleanly.
	inj := new(chaoscore.ScriptedInjector).PanicAt(panicShard, 3)
	eng := core.NewShardedEngine(core.Config{IngestRouters: 2}, shards,
		core.WithEventLog(), core.WithFaultInjector(inj))
	defer eng.Close()
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	// No Flush: the sweep's per-shard drain is what forces the queued
	// frames (and the injected fault) through.
	if err := eng.RollingRestart(); err != nil {
		t.Fatalf("rolling restart with mid-drain panic: %v", err)
	}
	eng.Flush()
	health := settleHealth(t, eng)

	alerts := eng.Alerts()
	if _, ok := findAlert(alerts, core.RuleByeAttack); !ok {
		t.Errorf("bye-attack detection on shard %d lost to shard %d's mid-drain panic: %v",
			victimShard, panicShard, alertKeys(alerts))
	}
	if _, ok := findAlert(alerts, core.RuleShardFailure); !ok {
		t.Errorf("no shard-failure alert after mid-drain panic: %v", alertKeys(alerts))
	}
	st := eng.Stats()
	if st.ShardsFailed != 1 {
		t.Errorf("ShardsFailed = %d, want 1", st.ShardsFailed)
	}
	var lost uint64
	for _, h := range health {
		lost += h.FramesRouted - h.FramesProcessed - h.FramesShed
	}
	if lost != 0 {
		t.Errorf("%d frames unaccounted after mid-drain panic", lost)
	}
}

// TestRollingRestartMidDrainKillWithRestart is the same fault under
// Limits.RestartFailedShards: the panicked shard comes back (cold or
// warm) instead of staying quarantined, raising the appropriate
// self-alerts, and the sweep still completes with balanced ledgers.
func TestRollingRestartMidDrainKillWithRestart(t *testing.T) {
	frames, _ := byeCallSession(t)
	const shards = 2
	inj := new(chaoscore.ScriptedInjector).PanicAt(0, 3)
	cfg := core.Config{IngestRouters: 2, Limits: core.Limits{RestartFailedShards: true}}
	eng := core.NewShardedEngine(cfg, shards, core.WithEventLog(), core.WithFaultInjector(inj))
	defer eng.Close()
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	if err := eng.RollingRestart(); err != nil {
		t.Fatalf("rolling restart with mid-drain panic and restart policy: %v", err)
	}
	eng.Flush()
	health := settleHealth(t, eng)
	st := eng.Stats()
	if st.ShardsFailed != 1 {
		t.Errorf("ShardsFailed = %d, want 1", st.ShardsFailed)
	}
	if st.ShardsRestarted == 0 {
		t.Error("restart policy enabled but ShardsRestarted is 0")
	}
	if _, ok := findAlert(eng.Alerts(), core.RuleShardFailure); !ok {
		t.Errorf("no shard-failure alert: %v", alertKeys(eng.Alerts()))
	}
	var lost uint64
	for _, h := range health {
		lost += h.FramesRouted - h.FramesProcessed - h.FramesShed
	}
	if lost != 0 {
		t.Errorf("%d frames unaccounted", lost)
	}
}
