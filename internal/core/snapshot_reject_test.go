package core_test

// Resume-rejection tests: a checkpoint must only restore into an engine
// whose detection configuration matches the one that wrote it. Every
// mismatch class — corrupt bytes, a different correlator registry,
// different Limits, an edited ruleset, another format version —
// must fail loudly with an error that names what differs and says how to
// proceed, and must leave the target engine untouched (still able to run
// from scratch). Geometry is deliberately NOT a mismatch class: portable
// checkpoints are keyed by session, so engine kind, shard count and
// ingest width may all differ between capture and resume — the
// acceptance tests below (and snapshot_geometry_test.go) hold those
// resumes to the uninterrupted run's exact output.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

// byeSnapshot returns a mid-scenario serial checkpoint plus the frames.
func byeSnapshot(t *testing.T, cfg core.Config) ([]byte, []rec) {
	t.Helper()
	frames := scenarioFrames(t, "bye", 7)
	eng := core.NewEngine(cfg, core.WithEventLog())
	for _, r := range frames[:len(frames)/2] {
		eng.HandleFrame(r.at, r.frame)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap, frames
}

// expectRejection asserts the restore fails, the error mentions every
// wanted substring, and the rejecting engine is still pristine.
func expectRejection(t *testing.T, eng interface {
	RestoreSnapshot([]byte) error
}, snap []byte, wants ...string) {
	t.Helper()
	err := eng.RestoreSnapshot(snap)
	if err == nil {
		t.Fatalf("restore succeeded, want rejection mentioning %q", wants)
	}
	for _, w := range wants {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("rejection error %q does not mention %q", err, w)
		}
	}
}

// TestResumeAcrossEngineKinds: portable checkpoints cross the engine-kind
// boundary in both directions — a serial capture resumes sharded and a
// sharded capture resumes serial, each reproducing the uninterrupted
// serial run exactly.
func TestResumeAcrossEngineKinds(t *testing.T) {
	snap, frames := byeSnapshot(t, core.Config{})
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})

	sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh.Close()
	if err := sh.RestoreSnapshot(snap); err != nil {
		t.Fatalf("serial checkpoint did not restore into sharded engine: %v", err)
	}
	for _, r := range frames[len(frames)/2:] {
		sh.HandleFrame(r.at, r.frame)
	}
	sh.Flush()
	compareToBaseline(t, "serial→sharded resume", sh.Alerts(), sh.Events(), sh.Stats(),
		wantAlerts, wantEvents, wantStats)

	shSnap := func() []byte {
		e := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
		defer e.Close()
		for _, r := range frames[:len(frames)/2] {
			e.HandleFrame(r.at, r.frame)
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatalf("sharded snapshot: %v", err)
		}
		return s
	}()
	serial := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := serial.RestoreSnapshot(shSnap); err != nil {
		t.Fatalf("sharded checkpoint did not restore into serial engine: %v", err)
	}
	for _, r := range frames[len(frames)/2:] {
		serial.HandleFrame(r.at, r.frame)
	}
	compareToBaseline(t, "sharded→serial resume", serial.Alerts(), serial.Events(), serial.Stats(),
		wantAlerts, wantEvents, wantStats)
}

// TestResumeAcrossShardCounts: a 2-shard capture resumes at 8 shards —
// the grow-the-fleet operation — with outputs identical to the
// uninterrupted run.
func TestResumeAcrossShardCounts(t *testing.T) {
	e := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	frames := scenarioFrames(t, "bye", 7)
	for _, r := range frames[:len(frames)/2] {
		e.HandleFrame(r.at, r.frame)
	}
	snap, err := e.Snapshot()
	e.Close()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	other := core.NewShardedEngine(core.Config{}, 8, core.WithEventLog())
	defer other.Close()
	if err := other.RestoreSnapshot(snap); err != nil {
		t.Fatalf("2-shard checkpoint did not restore at 8 shards: %v", err)
	}
	for _, r := range frames[len(frames)/2:] {
		other.HandleFrame(r.at, r.frame)
	}
	other.Flush()
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	compareToBaseline(t, "2→8 shard resume", other.Alerts(), other.Events(), other.Stats(),
		wantAlerts, wantEvents, wantStats)
}

// TestResumeAcrossIngestWidths: the ingest width recorded in a portable
// checkpoint is informational — a capture behind 2 ingest routers resumes
// behind 4, behind the synchronous router, and at the same width, all
// matching the uninterrupted run.
func TestResumeAcrossIngestWidths(t *testing.T) {
	e := core.NewShardedEngine(core.Config{IngestRouters: 2}, 2, core.WithEventLog())
	frames := scenarioFrames(t, "bye", 7)
	for _, r := range frames[:len(frames)/2] {
		e.HandleFrame(r.at, r.frame)
	}
	snap, err := e.Snapshot()
	e.Close()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"wider", core.Config{IngestRouters: 4}},
		{"synchronous", core.Config{}},
		{"same", core.Config{IngestRouters: 2}},
	} {
		eng := core.NewShardedEngine(tc.cfg, 2, core.WithEventLog())
		if err := eng.RestoreSnapshot(snap); err != nil {
			eng.Close()
			t.Fatalf("%s-ingest restore failed: %v", tc.name, err)
		}
		for _, r := range frames[len(frames)/2:] {
			eng.HandleFrame(r.at, r.frame)
		}
		eng.Flush()
		compareToBaseline(t, tc.name+"-ingest resume", eng.Alerts(), eng.Events(), eng.Stats(),
			wantAlerts, wantEvents, wantStats)
		eng.Close()
	}
}

func TestResumeRejectsDifferentCorrelators(t *testing.T) {
	snap, _ := byeSnapshot(t, core.Config{})
	// The CLI's -correlators flag builds exactly this kind of subset.
	subset := core.DefaultCorrelators()[:3] // sip, im, rtp
	eng := core.NewEngine(core.Config{Correlators: subset}, core.WithEventLog())
	expectRejection(t, eng, snap, "correlator set", "sip, im, rtp")
}

func TestResumeRejectsDifferentLimits(t *testing.T) {
	snap, _ := byeSnapshot(t, core.Config{})
	eng := core.NewEngine(core.Config{Limits: core.Limits{MaxSessions: 5}}, core.WithEventLog())
	expectRejection(t, eng, snap, "config hash", "Limits")
}

func TestResumeRejectsDifferentGenConfig(t *testing.T) {
	snap, _ := byeSnapshot(t, core.Config{})
	eng := core.NewEngine(core.Config{SessionTimeout: 37 * time.Second}, core.WithEventLog())
	expectRejection(t, eng, snap, "config hash")
}

func TestResumeRejectsEditedRules(t *testing.T) {
	snap, _ := byeSnapshot(t, core.Config{})
	// An operator editing default.rules between runs lands here: same
	// engine, same limits, one rule's threshold/steps changed.
	rules := core.DefaultRuleset()
	rules[0].Steps = rules[0].Steps[:1]
	eng := core.NewEngine(core.Config{Rules: rules}, core.WithEventLog())
	expectRejection(t, eng, snap, "ruleset hash", "rules changed")
}

func TestResumeRejectsUsedEngine(t *testing.T) {
	snap, frames := byeSnapshot(t, core.Config{})
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	eng.HandleFrame(frames[0].at, frames[0].frame)
	expectRejection(t, eng, snap, "fresh engine")

	sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh.Close()
	sh.HandleFrame(frames[0].at, frames[0].frame)
	sh.Flush()
	e2 := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	frames2 := scenarioFrames(t, "bye", 7)
	for _, r := range frames2[:4] {
		e2.HandleFrame(r.at, r.frame)
	}
	shSnap, err := e2.Snapshot()
	e2.Close()
	if err != nil {
		t.Fatalf("sharded snapshot: %v", err)
	}
	expectRejection(t, sh, shSnap, "fresh engine")
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	snap, _ := byeSnapshot(t, core.Config{})

	truncated := snap[:len(snap)/2]
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := eng.RestoreSnapshot(truncated); err == nil {
		t.Error("truncated checkpoint restored without error")
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/3] ^= 0x40
	eng2 := core.NewEngine(core.Config{}, core.WithEventLog())
	expectRejection(t, eng2, flipped, "checksum")

	garbage := []byte("not a checkpoint at all")
	eng3 := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := eng3.RestoreSnapshot(garbage); err == nil {
		t.Error("garbage restored without error")
	}
}

// restampChecksum recomputes the trailing FNV-1a checksum after a test
// mutates checkpoint bytes, so the mutation reaches the body decoder
// instead of being caught by the checksum gate.
func restampChecksum(data []byte) []byte {
	body := data[:len(data)-8]
	h := uint64(14695981039346656037)
	for _, b := range body {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return binary.BigEndian.AppendUint64(append([]byte(nil), body...), h)
}

// TestResumeRejectsV2Checkpoint: a pre-portable (v2) checkpoint — pinned
// under testdata as a stand-in for one on an operator's disk — must be
// refused by both engine kinds with an error naming the format gap and
// the way forward, never mis-decoded.
func TestResumeRejectsV2Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_snapshots", "bye_serial_v2.ckpt"))
	if err != nil {
		t.Fatalf("no preserved v2 golden: %v", err)
	}
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	expectRejection(t, eng, data, "format v2", "only v6", "re-capture")
	sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh.Close()
	expectRejection(t, sh, data, "format v2", "only v6", "re-capture")
}

// TestResumeRejectsV3Checkpoint: a pre-stream-transport (v3) checkpoint —
// pinned under testdata as a stand-in for one on an operator's disk — must
// be refused by both engine kinds with an error naming the format gap and
// the way forward. v3 lacks the TCP stream reassembly/framing section, so
// mis-decoding it would silently resume with stream state dropped.
func TestResumeRejectsV3Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_snapshots", "bye_serial_v3.ckpt"))
	if err != nil {
		t.Fatalf("no preserved v3 golden: %v", err)
	}
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	expectRejection(t, eng, data, "format v3", "only v6", "re-capture")
	sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh.Close()
	expectRejection(t, sh, data, "format v3", "only v6", "re-capture")
}

// TestResumeRejectsOtherFormatVersions: a checkpoint of any format
// version but v6 — an older one left on an operator's disk, or one from a
// later build — must be refused by both engine kinds with an error naming
// its version and the way forward, never mis-decoded, and must leave the
// engine fresh. What happens to such a file depends only on its magic,
// version byte and checksum, so the v6 golden with its version byte
// rewritten and its checksum restamped stands in for every one of them.
func TestResumeRejectsOtherFormatVersions(t *testing.T) {
	golden, err := os.ReadFile(goldenSnapshotPath("serial"))
	if err != nil {
		t.Fatalf("no v6 golden: %v", err)
	}
	for _, v := range []byte{0, 2, 3, 4, 5, 7, 255} {
		data := append([]byte(nil), golden...)
		data[len("SCDV")] = v
		data = restampChecksum(data)
		wants := []string{fmt.Sprintf("format v%d", v), "only v6", "re-capture"}

		eng := core.NewEngine(core.Config{}, core.WithEventLog())
		expectRejection(t, eng, data, wants...)
		if st := eng.Stats(); st != (core.EngineStats{}) || len(eng.Alerts()) != 0 || len(eng.Events()) != 0 {
			t.Errorf("v%d: serial refusal left state behind: %+v", v, st)
		}
		sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
		expectRejection(t, sh, data, wants...)
		if st := sh.Stats(); st != (core.EngineStats{}) || len(sh.Alerts()) != 0 || len(sh.Events()) != 0 {
			t.Errorf("v%d: sharded refusal left state behind: %+v", v, st)
		}
		sh.Close()
	}
}

// TestResumeRejectsCorruptSessionRecords: corruption INSIDE the
// session-keyed body — past the checksum gate — must still be rejected by
// both engine kinds, whether it garbles a record (a hostile length
// prefix) or truncates the stream mid-record, and must leave the target
// engine untouched.
func TestResumeRejectsCorruptSessionRecords(t *testing.T) {
	snap, frames := byeSnapshot(t, core.Config{})

	garbled := append([]byte(nil), snap...)
	// Stomp a length prefix mid-body: the bounded count/take readers must
	// refuse it. The offset targets the session-keyed records (retune it
	// when a format change moves raw frame bytes — the one region where a
	// stomp alters content without breaking structure — under it).
	for i := len(garbled)/2 + 8; i < len(garbled)/2+12; i++ {
		garbled[i] = 0xFF
	}
	garbled = restampChecksum(garbled)
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := eng.RestoreSnapshot(garbled); err == nil {
		t.Error("serial: garbled session record restored without error")
	}
	sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh.Close()
	if err := sh.RestoreSnapshot(garbled); err == nil {
		t.Error("sharded: garbled session record restored without error")
	}

	truncated := restampChecksum(append([]byte(nil), snap[:len(snap)-40]...))
	eng2 := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := eng2.RestoreSnapshot(truncated); err == nil {
		t.Error("serial: truncated session records restored without error")
	}
	sh2 := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
	defer sh2.Close()
	if err := sh2.RestoreSnapshot(truncated); err == nil {
		t.Error("sharded: truncated session records restored without error")
	}

	// Both rejecting engines are still pristine and run from scratch.
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
		sh.HandleFrame(r.at, r.frame)
	}
	sh.Flush()
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	compareToBaseline(t, "serial post-corrupt-rejection run", eng.Alerts(), eng.Events(), eng.Stats(),
		wantAlerts, wantEvents, wantStats)
	compareToBaseline(t, "sharded post-corrupt-rejection run", sh.Alerts(), sh.Events(), sh.Stats(),
		wantAlerts, wantEvents, wantStats)
}

// TestRejectedRestoreLeavesEngineUsable: after any rejection the target
// engine must behave exactly like a never-touched engine.
func TestRejectedRestoreLeavesEngineUsable(t *testing.T) {
	snap, frames := byeSnapshot(t, core.Config{})

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-1] ^= 0xFF // breaks the checksum
	eng := core.NewEngine(core.Config{}, core.WithEventLog())
	if err := eng.RestoreSnapshot(flipped); err == nil {
		t.Fatal("corrupt checkpoint restored")
	}
	if st := eng.Stats(); st.Frames != 0 || st.Events != 0 {
		t.Fatalf("rejected restore left state behind: %+v", st)
	}
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	compareToBaseline(t, "post-rejection run", eng.Alerts(), eng.Events(), eng.Stats(),
		wantAlerts, wantEvents, wantStats)
}

// TestResumeRejectionsAcrossScenarios sweeps the mismatch classes over
// checkpoints from several scenarios, so rejection does not depend on
// which detection state happens to be in the body.
func TestResumeRejectionsAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single-scenario rejection tests cover the classes")
	}
	for _, name := range experiments.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			eng := core.NewEngine(core.Config{}, core.WithEventLog())
			for _, r := range frames[:len(frames)/2] {
				eng.HandleFrame(r.at, r.frame)
			}
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			limited := core.NewEngine(core.Config{Limits: core.Limits{MaxBindings: 3}}, core.WithEventLog())
			expectRejection(t, limited, snap, "config hash")
			rules := core.DefaultRuleset()[:5]
			ruled := core.NewEngine(core.Config{Rules: rules}, core.WithEventLog())
			expectRejection(t, ruled, snap, "ruleset hash")
		})
	}
}
