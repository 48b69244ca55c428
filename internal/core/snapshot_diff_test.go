package core_test

// Kill/restore differential harness: a run that is interrupted at an
// arbitrary frame boundary, checkpointed, and resumed in a fresh process
// must produce the exact alert/event/stats stream of an uninterrupted
// run. This is the correctness proof for the checkpoint/restore
// subsystem (snapshot.go, snapshot_sharded.go) across every scenario the
// repo knows, for the serial engine and for 1/2/8-shard sharded engines,
// at a sweep of kill points.

import (
	"fmt"
	"testing"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

// killFractions positions the kill point across the whole trace: early
// (registration/setup in flight), mid-dialog, and late (teardown and
// post-BYE media in flight).
var killFractions = []float64{1.0 / 6, 1.0 / 3, 1.0 / 2, 2.0 / 3, 5.0 / 6}

// shortKillFractions and shortKillScenarios gate the sweep in -short
// mode to the scenarios that exercise the most checkpoint surface:
// stateful cross-protocol dialogs (bye), pending RTCP-BYE state
// (rtcpbye), in-flight IP reassembly (fragflood), and cross-dialog
// correlator state (optionsscan).
var shortKillFractions = []float64{1.0 / 3, 2.0 / 3}

var shortKillScenarios = map[string]bool{
	"bye": true, "rtcpbye": true, "fragflood": true, "optionsscan": true,
}

// killPoints converts the fraction sweep into distinct frame indices in
// [1, n-1] so the resumed engine always has frames on both sides of the
// checkpoint.
func killPoints(n int, fractions []float64) []int {
	seen := make(map[int]bool)
	var pts []int
	for _, f := range fractions {
		k := int(f * float64(n))
		if k < 1 {
			k = 1
		}
		if k > n-1 {
			k = n - 1
		}
		if !seen[k] {
			seen[k] = true
			pts = append(pts, k)
		}
	}
	return pts
}

// runSerialKillRestore feeds frames[:k] into a serial engine, snapshots
// it, restores the snapshot into a brand-new engine (the "restarted
// process"), and feeds the rest there.
func runSerialKillRestore(t *testing.T, frames []rec, k int, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats) {
	t.Helper()
	a := core.NewEngine(cfg, core.WithEventLog())
	for _, r := range frames[:k] {
		a.HandleFrame(r.at, r.frame)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatalf("serial snapshot at frame %d: %v", k, err)
	}
	b := core.NewEngine(cfg, core.WithEventLog())
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatalf("serial restore at frame %d: %v", k, err)
	}
	for _, r := range frames[k:] {
		b.HandleFrame(r.at, r.frame)
	}
	mustMediaIndex(b.CheckMediaIndex())
	return b.Alerts(), b.Events(), b.Stats()
}

// runShardedKillRestore is the sharded analogue: the first engine is
// Closed after the snapshot (the crash), and the resumed engine's
// per-shard ledgers must still reconcile at the end.
func runShardedKillRestore(t *testing.T, frames []rec, shards, k int, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats) {
	t.Helper()
	a := core.NewShardedEngine(cfg, shards, core.WithEventLog())
	for _, r := range frames[:k] {
		a.HandleFrame(r.at, r.frame)
	}
	snap, err := a.Snapshot()
	if err != nil {
		a.Close()
		t.Fatalf("sharded snapshot at frame %d: %v", k, err)
	}
	a.Close()
	b := core.NewShardedEngine(cfg, shards, core.WithEventLog())
	defer b.Close()
	if err := b.RestoreSnapshot(snap); err != nil {
		t.Fatalf("sharded restore at frame %d: %v", k, err)
	}
	for _, r := range frames[k:] {
		b.HandleFrame(r.at, r.frame)
	}
	mustMediaIndex(b.CheckMediaIndex()) // flushes
	for _, h := range b.ShardHealth() {
		if h.FramesRouted != h.FramesProcessed+h.FramesShed {
			t.Errorf("shard %d ledger does not reconcile after restore: routed=%d processed=%d shed=%d",
				h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed)
		}
	}
	return b.Alerts(), b.Events(), b.Stats()
}

// compareToBaseline asserts a kill/restore run is identical to the
// uninterrupted baseline: every event field by field, every alert by its
// key, and the stats.
func compareToBaseline(t *testing.T, label string,
	gotAlerts []core.Alert, gotEvents []core.Event, gotStats core.EngineStats,
	wantAlerts []core.Alert, wantEvents []core.Event, wantStats core.EngineStats) {
	t.Helper()
	if len(gotEvents) != len(wantEvents) {
		t.Errorf("%s: %d events, uninterrupted run has %d", label, len(gotEvents), len(wantEvents))
	} else {
		for i := range wantEvents {
			if gotEvents[i] != wantEvents[i] {
				t.Errorf("%s: event %d = %+v, want %+v", label, i, gotEvents[i], wantEvents[i])
				break
			}
		}
	}
	if len(gotAlerts) != len(wantAlerts) {
		t.Errorf("%s: %d alerts, uninterrupted run has %d\n got: %v\nwant: %v",
			label, len(gotAlerts), len(wantAlerts), alertKeys(gotAlerts), alertKeys(wantAlerts))
	} else {
		for i := range wantAlerts {
			if alertKey(gotAlerts[i]) != alertKey(wantAlerts[i]) {
				t.Errorf("%s: alert %d = %s, want %s", label, i, alertKey(gotAlerts[i]), alertKey(wantAlerts[i]))
				break
			}
		}
	}
	if gotStats != wantStats {
		t.Errorf("%s: stats %+v, uninterrupted %+v", label, gotStats, wantStats)
	}
}

// TestKillRestoreDifferential is the headline proof: every scenario ×
// {serial, 1, 2, 8 shards} × a sweep of kill points, crash → restore →
// resume must equal the uninterrupted run exactly.
func TestKillRestoreDifferential(t *testing.T) {
	fractions := killFractions
	if testing.Short() {
		fractions = shortKillFractions
	}
	for _, name := range experiments.ScenarioNames() {
		if testing.Short() && !shortKillScenarios[name] {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			points := killPoints(len(frames), fractions)

			wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
			for _, k := range points {
				gotAlerts, gotEvents, gotStats := runSerialKillRestore(t, frames, k, core.Config{})
				compareToBaseline(t, fmt.Sprintf("%s serial kill@%d/%d", name, k, len(frames)),
					gotAlerts, gotEvents, gotStats, wantAlerts, wantEvents, wantStats)
			}

			for _, shards := range diffShardCounts {
				wantA, wantE, wantS := runShardedCfg(frames, shards, core.Config{})
				for _, k := range points {
					gotA, gotE, gotS := runShardedKillRestore(t, frames, shards, k, core.Config{})
					compareToBaseline(t, fmt.Sprintf("%s shards=%d kill@%d/%d", name, shards, k, len(frames)),
						gotA, gotE, gotS, wantA, wantE, wantS)
				}
			}
		})
	}
}

// TestKillRestoreMidStream pins the checkpoint between the two TCP
// segments of one SIP message: the tcptrunk-split scenario cuts every
// message mid-header across segments, so after the first segment the
// stream mux holds bytes that are not yet a message. A checkpoint taken
// there must carry the partial framing state (snapshot v4's stream
// section) for the resumed engine to complete the message — this is the
// state a fraction-sweep kill point is not guaranteed to land on, so
// every such index is exercised explicitly, serial and sharded.
func TestKillRestoreMidStream(t *testing.T) {
	frames := scenarioFrames(t, "tcptrunk-split", 7)

	// Locate every frame boundary where a partial message is buffered.
	probe := core.NewEngine(core.Config{})
	var points []int
	for i, r := range frames {
		probe.HandleFrame(r.at, r.frame)
		if i+1 < len(frames) && probe.StreamMuxBuffered() {
			points = append(points, i+1)
		}
	}
	if len(points) == 0 {
		t.Fatal("tcptrunk-split never left a partial message buffered; the scenario no longer splits messages")
	}

	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	for _, k := range points {
		gotAlerts, gotEvents, gotStats := runSerialKillRestore(t, frames, k, core.Config{})
		compareToBaseline(t, fmt.Sprintf("mid-stream serial kill@%d/%d", k, len(frames)),
			gotAlerts, gotEvents, gotStats, wantAlerts, wantEvents, wantStats)
	}
	for _, shards := range diffShardCounts {
		wantA, wantE, wantS := runShardedCfg(frames, shards, core.Config{})
		for _, k := range points {
			gotA, gotE, gotS := runShardedKillRestore(t, frames, shards, k, core.Config{})
			compareToBaseline(t, fmt.Sprintf("mid-stream shards=%d kill@%d/%d", shards, k, len(frames)),
				gotA, gotE, gotS, wantA, wantE, wantS)
		}
	}
}

// TestKillRestoreSynthetic drives the kill/restore sweep over the
// seeded random workload (concurrent calls, port reuse, fragmentation,
// junk) so checkpoint coverage is not limited to the curated scenarios.
func TestKillRestoreSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: scenario sweep covers the format")
	}
	frames := synthFrames(21)
	points := killPoints(len(frames), killFractions)
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	for _, k := range points {
		gotA, gotE, gotS := runSerialKillRestore(t, frames, k, core.Config{})
		compareToBaseline(t, fmt.Sprintf("synth serial kill@%d", k), gotA, gotE, gotS, wantAlerts, wantEvents, wantStats)
	}
	for _, shards := range diffShardCounts {
		wantA, wantE, wantS := runShardedCfg(frames, shards, core.Config{})
		for _, k := range points {
			gotA, gotE, gotS := runShardedKillRestore(t, frames, shards, k, core.Config{})
			compareToBaseline(t, fmt.Sprintf("synth shards=%d kill@%d", shards, k), gotA, gotE, gotS, wantA, wantE, wantS)
		}
	}
}

// TestKillRestoreWithLimits checkpoints an engine whose state budgets
// (session cap, binding cap, IM/RTP tracker caps, frag-group cap) are
// under pressure, so LRU order, eviction counters and trail counts all
// cross the snapshot boundary.
func TestKillRestoreWithLimits(t *testing.T) {
	cfg := core.Config{Limits: core.Limits{
		MaxSessions:    8,
		MaxBindings:    4,
		MaxIMHistories: 4,
		MaxSeqTrackers: 4,
		MaxFragGroups:  2,
	}}
	for _, name := range []string{"flood", "guess", "fragflood", "rtpblast", "inviteflood"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			points := killPoints(len(frames), shortKillFractions)
			wantAlerts, wantEvents, wantStats := runSerialCfg(frames, cfg)
			for _, k := range points {
				gotA, gotE, gotS := runSerialKillRestore(t, frames, k, cfg)
				compareToBaseline(t, fmt.Sprintf("%s limits serial kill@%d", name, k), gotA, gotE, gotS, wantAlerts, wantEvents, wantStats)
			}
			for _, shards := range diffShardCounts {
				wantA, wantE, wantS := runShardedCfg(frames, shards, cfg)
				for _, k := range points {
					gotA, gotE, gotS := runShardedKillRestore(t, frames, shards, k, cfg)
					compareToBaseline(t, fmt.Sprintf("%s limits shards=%d kill@%d", name, shards, k), gotA, gotE, gotS, wantA, wantE, wantS)
				}
			}
		})
	}
}

// TestKillRestoreExpiry crosses the checkpoint boundary with the
// session-expiry sweep active (gc counters, expirer state).
func TestKillRestoreExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	frames := expiryFrames(5)
	cfg := core.Config{SessionTimeout: 2 * 1e9} // 2s virtual
	points := killPoints(len(frames), killFractions)
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, cfg)
	for _, k := range points {
		gotA, gotE, gotS := runSerialKillRestore(t, frames, k, cfg)
		compareToBaseline(t, fmt.Sprintf("expiry serial kill@%d", k), gotA, gotE, gotS, wantAlerts, wantEvents, wantStats)
	}
	for _, shards := range diffShardCounts {
		wantA, wantE, wantS := runShardedCfg(frames, shards, cfg)
		for _, k := range points {
			gotA, gotE, gotS := runShardedKillRestore(t, frames, shards, k, cfg)
			compareToBaseline(t, fmt.Sprintf("expiry shards=%d kill@%d", shards, k), gotA, gotE, gotS, wantA, wantE, wantS)
		}
	}
}

// TestKillRestoreEveryFrame exhaustively kills one compact stateful
// scenario at EVERY frame boundary — the strongest single-scenario
// statement that no frame position leaves unserializable state behind.
func TestKillRestoreEveryFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: fraction sweep covers this")
	}
	frames := scenarioFrames(t, "bye", 7)
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	for k := 1; k < len(frames); k++ {
		gotA, gotE, gotS := runSerialKillRestore(t, frames, k, core.Config{})
		compareToBaseline(t, fmt.Sprintf("bye serial kill@%d", k), gotA, gotE, gotS, wantAlerts, wantEvents, wantStats)
	}
	wantA, wantE, wantS := runShardedCfg(frames, 2, core.Config{})
	for k := 1; k < len(frames); k++ {
		gotA, gotE, gotS := runShardedKillRestore(t, frames, 2, k, core.Config{})
		compareToBaseline(t, fmt.Sprintf("bye shards=2 kill@%d", k), gotA, gotE, gotS, wantA, wantE, wantS)
	}
}

// TestSnapshotDoubleResume checkpoints twice — crash, resume, crash
// again, resume again — proving a restored engine is itself a valid
// checkpoint source.
func TestSnapshotDoubleResume(t *testing.T) {
	frames := scenarioFrames(t, "billing", 7)
	if len(frames) < 6 {
		t.Fatalf("scenario too short: %d frames", len(frames))
	}
	k1, k2 := len(frames)/3, 2*len(frames)/3

	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	a := core.NewEngine(core.Config{}, core.WithEventLog())
	for _, r := range frames[:k1] {
		a.HandleFrame(r.at, r.frame)
	}
	snap1, err := a.Snapshot()
	if err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	b := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := b.RestoreSnapshot(snap1); err != nil {
		t.Fatalf("first restore: %v", err)
	}
	for _, r := range frames[k1:k2] {
		b.HandleFrame(r.at, r.frame)
	}
	snap2, err := b.Snapshot()
	if err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	c := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := c.RestoreSnapshot(snap2); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	for _, r := range frames[k2:] {
		c.HandleFrame(r.at, r.frame)
	}
	compareToBaseline(t, "billing double-resume", c.Alerts(), c.Events(), c.Stats(), wantAlerts, wantEvents, wantStats)

	wantA, wantE, wantS := runShardedCfg(frames, 2, core.Config{})
	sa := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	for _, r := range frames[:k1] {
		sa.HandleFrame(r.at, r.frame)
	}
	ssnap1, err := sa.Snapshot()
	sa.Close()
	if err != nil {
		t.Fatalf("first sharded snapshot: %v", err)
	}
	sb := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	if err := sb.RestoreSnapshot(ssnap1); err != nil {
		sb.Close()
		t.Fatalf("first sharded restore: %v", err)
	}
	for _, r := range frames[k1:k2] {
		sb.HandleFrame(r.at, r.frame)
	}
	ssnap2, err := sb.Snapshot()
	sb.Close()
	if err != nil {
		t.Fatalf("second sharded snapshot: %v", err)
	}
	sc := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sc.Close()
	if err := sc.RestoreSnapshot(ssnap2); err != nil {
		t.Fatalf("second sharded restore: %v", err)
	}
	for _, r := range frames[k2:] {
		sc.HandleFrame(r.at, r.frame)
	}
	sc.Flush()
	compareToBaseline(t, "billing sharded double-resume", sc.Alerts(), sc.Events(), sc.Stats(), wantA, wantE, wantS)
}

// TestSnapshotDeterministic: snapshotting the same engine state twice
// yields identical bytes — the property the format's sorted-key
// serialization exists to provide.
func TestSnapshotDeterministic(t *testing.T) {
	frames := scenarioFrames(t, "hijack", 7)
	k := len(frames) / 2
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	for _, r := range frames[:k] {
		eng.HandleFrame(r.at, r.frame)
	}
	s1, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s2, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if string(s1) != string(s2) {
		t.Fatalf("serial snapshot is not deterministic: %d vs %d bytes", len(s1), len(s2))
	}

	sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh.Close()
	for _, r := range frames[:k] {
		sh.HandleFrame(r.at, r.frame)
	}
	p1, err := sh.Snapshot()
	if err != nil {
		t.Fatalf("sharded snapshot: %v", err)
	}
	p2, err := sh.Snapshot()
	if err != nil {
		t.Fatalf("second sharded snapshot: %v", err)
	}
	if string(p1) != string(p2) {
		t.Fatalf("sharded snapshot is not deterministic: %d vs %d bytes", len(p1), len(p2))
	}
}

// TestPeekSnapshotInfo checks the header peek used by the CLI to decide
// how many frames to skip on -resume.
func TestPeekSnapshotInfo(t *testing.T) {
	frames := scenarioFrames(t, "bye", 7)
	k := len(frames) / 2

	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	for _, r := range frames[:k] {
		eng.HandleFrame(r.at, r.frame)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	info, err := core.PeekSnapshotInfo(snap)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	if info.Sharded || info.Shards != 1 || info.Frames != uint64(k) {
		t.Fatalf("serial peek = %+v, want serial with %d frames", info, k)
	}

	sh := core.NewShardedEngine(core.Config{}, 4, core.WithEventLog())
	for _, r := range frames[:k] {
		sh.HandleFrame(r.at, r.frame)
	}
	ssnap, err := sh.Snapshot()
	sh.Close()
	if err != nil {
		t.Fatalf("sharded snapshot: %v", err)
	}
	sinfo, err := core.PeekSnapshotInfo(ssnap)
	if err != nil {
		t.Fatalf("sharded peek: %v", err)
	}
	if !sinfo.Sharded || sinfo.Shards != 4 || sinfo.Frames != uint64(k) {
		t.Fatalf("sharded peek = %+v, want sharded/4 with %d frames", sinfo, k)
	}
}
