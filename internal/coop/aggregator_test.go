package coop

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"scidive/internal/core"
)

// mkDigest encodes a synthetic digest frame.
func mkDigest(point string, seq uint64, evs ...core.Event) []byte {
	return core.EncodeDigest(&core.Digest{Point: point, Seq: seq, Events: evs})
}

// probeStreams builds the per-probe digest sequences for a deployment of
// n probes (n ∈ {2,3,5}). The first two vantages stage a BYE-teardown
// split (edge BYE, gateway heartbeats after it), the next two stage a
// registration hijack (the same AOR registering OK from both access
// networks), and the fifth ships unrelated traffic that must not perturb
// the merge.
func probeStreams(n int) map[string][][]byte {
	ev := func(at time.Duration, typ core.EventType, session, detail string) core.Event {
		return core.Event{At: at, Type: typ, Session: session, Detail: detail}
	}
	streams := map[string][][]byte{
		core.PointEdge: {
			mkDigest(core.PointEdge, 1, ev(1*time.Second, core.EvSIPBye, "call-1", "alice hangs up")),
			mkDigest(core.PointEdge, 2, ev(8*time.Second, core.EvSIPBye, "call-2", "bob hangs up")),
		},
		core.PointGateway: {
			mkDigest(core.PointGateway, 1, ev(1500*time.Millisecond, core.EvRTPActivity, "call-1", "media flowing")),
			mkDigest(core.PointGateway, 2, ev(2*time.Second, core.EvRTPActivity, "call-1", "media flowing")),
			mkDigest(core.PointGateway, 3, ev(8500*time.Millisecond, core.EvRTPActivity, "call-2", "media flowing")),
			mkDigest(core.PointGateway, 4, ev(9*time.Second, core.EvRTPActivity, "call-2", "media flowing")),
		},
	}
	if n >= 3 {
		streams[core.PointAccessA] = [][]byte{
			mkDigest(core.PointAccessA, 1, ev(2*time.Second, core.EvSIPRegisterOK, "reg-a", "alice@10.0.0.10")),
		}
	}
	if n >= 5 {
		streams[core.PointAccessB] = [][]byte{
			mkDigest(core.PointAccessB, 1, ev(3*time.Second, core.EvSIPRegisterOK, "reg-b", "alice@10.0.0.10")),
		}
		streams["core"] = [][]byte{
			mkDigest("core", 1, ev(4*time.Second, core.EvSIPInvite, "call-3", "carol -> dave")),
			mkDigest("core", 2, ev(5*time.Second, core.EvSIPInvite, "call-4", "dave -> carol")),
		}
	}
	return streams
}

// flatten lists every frame of every stream in a fixed canonical order.
func flatten(streams map[string][][]byte) [][]byte {
	points := make([]string, 0, len(streams))
	for pt := range streams {
		points = append(points, pt)
	}
	// Deterministic base order before any shuffle.
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if points[j] < points[i] {
				points[i], points[j] = points[j], points[i]
			}
		}
	}
	var frames [][]byte
	for _, pt := range points {
		frames = append(frames, streams[pt]...)
	}
	return frames
}

// alertFingerprint renders an alert stream byte-comparably.
func alertFingerprint(alerts []core.Alert) string {
	var b strings.Builder
	for _, a := range alerts {
		fmt.Fprintf(&b, "%v|%s|%s|%s|%d\n", a.At, a.Rule, a.Session, a.Detail, a.Count)
	}
	return b.String()
}

// runMerge feeds the frames to a fresh ack-less aggregator in the given
// order and finalizes the merge.
func runMerge(frames [][]byte) *Aggregator {
	agg := NewAggregator(AggregatorConfig{})
	var src netip.AddrPort
	for _, frame := range frames {
		agg.HandleDigest(src, frame)
	}
	agg.Finalize(20 * time.Second)
	return agg
}

// TestAggregatorMergeDeterministic pins the cooperative layer's core
// promise: the cross-point alert stream depends on the digests' content,
// never on their arrival interleaving. Every seeded shuffle of the full
// frame set — across 2-, 3- and 5-probe deployments — must finalize to a
// byte-identical alert stream.
func TestAggregatorMergeDeterministic(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("probes=%d", n), func(t *testing.T) {
			frames := flatten(probeStreams(n))
			base := runMerge(frames)
			want := alertFingerprint(base.Alerts())
			if !strings.Contains(want, core.RuleByeTeardownSplit) {
				t.Fatalf("baseline merge raised no %s:\n%s", core.RuleByeTeardownSplit, want)
			}
			if n >= 5 && !strings.Contains(want, core.RuleRegisterHijackSplit) {
				t.Fatalf("five-probe merge raised no %s:\n%s", core.RuleRegisterHijackSplit, want)
			}
			if strings.Contains(want, RuleCoopDigestGap) {
				t.Fatalf("full delivery must not raise digest-gap alerts:\n%s", want)
			}
			for seed := int64(0); seed < 12; seed++ {
				shuffled := append([][]byte(nil), frames...)
				rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				got := alertFingerprint(runMerge(shuffled).Alerts())
				if got != want {
					t.Errorf("seed %d interleaving changed the alert stream:\nwant:\n%s\ngot:\n%s", seed, want, got)
				}
			}
		})
	}
}

// TestAggregatorDuplicatesDropped replays every frame twice (plus one
// triple): retransmissions must be absorbed without double-counting
// evidence or changing the alert stream.
func TestAggregatorDuplicatesDropped(t *testing.T) {
	frames := flatten(probeStreams(2))
	want := alertFingerprint(runMerge(frames).Alerts())

	doubled := append(append([][]byte(nil), frames...), frames...)
	doubled = append(doubled, frames[0])
	agg := runMerge(doubled)
	if got := alertFingerprint(agg.Alerts()); got != want {
		t.Errorf("duplicate delivery changed the alert stream:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if st := agg.Stats(); st.DuplicatesDropped != len(frames)+1 {
		t.Errorf("expected %d duplicates dropped, got %+v", len(frames)+1, st)
	}
}

// TestAggregatorGapSelfAlerts drops one mid-stream digest for good: the
// evidence behind it must still merge (late evidence is still evidence)
// and the hole must surface as a coop-digest-gap self-alert — lost
// evidence is a visible event, never a silent blind spot.
func TestAggregatorGapSelfAlerts(t *testing.T) {
	streams := probeStreams(2)
	gw := streams[core.PointGateway]
	lost := gw[1] // seq 2 never arrives
	streams[core.PointGateway] = [][]byte{gw[0], gw[2], gw[3]}
	agg := runMerge(flatten(streams))

	gaps := agg.AlertsFor(RuleCoopDigestGap)
	if len(gaps) != 1 {
		t.Fatalf("expected one digest-gap alert, got %v", gaps)
	}
	if gaps[0].Session != core.PointGateway || !strings.Contains(gaps[0].Detail, "1 digest(s)") {
		t.Errorf("gap alert does not name the lossy probe/count: %v", gaps[0])
	}
	if st := agg.Stats(); st.DigestsAccepted != 5 || st.DigestsBuffered != 2 {
		t.Errorf("post-hole digests not merged: %+v (lost frame len %d)", st, len(lost))
	}
	// The second call's evidence (all post-hole) still completed its rule.
	found := false
	for _, a := range agg.AlertsFor(core.RuleByeTeardownSplit) {
		if a.Session == "call-2" {
			found = true
		}
	}
	if !found {
		t.Errorf("evidence buffered past the hole did not reach the rules: %v", agg.Alerts())
	}
}

// TestAggregatorBudgetShedAlert pins the other gap source: a probe
// reporting events shed under its export budget raises a self-alert at
// the aggregator naming the shed count.
func TestAggregatorBudgetShedAlert(t *testing.T) {
	agg := NewAggregator(AggregatorConfig{})
	var src netip.AddrPort
	agg.HandleDigest(src, core.EncodeDigest(&core.Digest{
		Point: core.PointEdge, Seq: 1, Dropped: 3,
		Events: []core.Event{{At: time.Second, Type: core.EvSIPBye, Session: "call-1"}},
	}))
	gaps := agg.AlertsFor(RuleCoopDigestGap)
	if len(gaps) != 1 || !strings.Contains(gaps[0].Detail, "shed 3 event(s)") {
		t.Fatalf("expected one budget-shed self-alert, got %v", gaps)
	}
}

// TestAggregatorSnapshotRoundTrip checkpoints an aggregator mid-stream,
// restores it into a fresh one, feeds both the remaining digests, and
// requires byte-identical alert streams — the cooperative layer's state
// survives the same restart discipline as the engines it aggregates.
func TestAggregatorSnapshotRoundTrip(t *testing.T) {
	frames := flatten(probeStreams(5))
	half := len(frames) / 2
	var src netip.AddrPort

	orig := NewAggregator(AggregatorConfig{})
	for _, frame := range frames[:half] {
		orig.HandleDigest(src, frame)
	}
	snap := orig.Snapshot()

	restored := NewAggregator(AggregatorConfig{})
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Error("restore → snapshot is not a byte fixed point")
	}
	for _, frame := range frames[half:] {
		orig.HandleDigest(src, frame)
		restored.HandleDigest(src, frame)
	}
	orig.Finalize(20 * time.Second)
	restored.Finalize(20 * time.Second)
	wantA, gotA := alertFingerprint(orig.Alerts()), alertFingerprint(restored.Alerts())
	if wantA != gotA {
		t.Errorf("restored aggregator diverged:\noriginal:\n%s\nrestored:\n%s", wantA, gotA)
	}
	if wantA == "" {
		t.Error("round-trip exercised no alerts; the comparison is vacuous")
	}
}

// TestAggregatorRestoreRejectsCorruption flips bytes across a snapshot:
// every mutation must be rejected whole, leaving the aggregator able to
// process digests as if the restore was never attempted.
func TestAggregatorRestoreRejectsCorruption(t *testing.T) {
	frames := flatten(probeStreams(2))
	orig := NewAggregator(AggregatorConfig{})
	var src netip.AddrPort
	for _, frame := range frames[:3] {
		orig.HandleDigest(src, frame)
	}
	snap := orig.Snapshot()
	rejected := 0
	for i := 0; i < len(snap); i += 7 {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x20
		agg := NewAggregator(AggregatorConfig{})
		if err := agg.Restore(mut); err != nil {
			rejected++
			// The failed restore must leave it fully functional.
			for _, frame := range frames {
				agg.HandleDigest(src, frame)
			}
			agg.Finalize(20 * time.Second)
			continue
		}
	}
	if rejected == 0 {
		t.Fatal("no corrupted snapshot was rejected; the checksum is not being checked")
	}
	if err := NewAggregator(AggregatorConfig{}).Restore(snap[:len(snap)-2]); err == nil {
		t.Error("truncated snapshot restored without error")
	}
}

// sealed appends a restamped FNV-1a checksum to a checkpoint payload, so
// a hand-built or mutated blob reaches the decoder past the checksum gate.
func sealed(payload []byte) []byte {
	h := uint64(14695981039346656037)
	for _, b := range payload {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h)
}

// hostileCountBlob is a well-sealed 21-byte SCAG checkpoint whose point
// count claims n entries and carries none.
func hostileCountBlob(n uint64) []byte {
	return sealed(binary.BigEndian.AppendUint64([]byte("SCAG\x01"), n))
}

// TestAggregatorRestoreBoundsAllocation: a checkpoint's counts size
// nothing until the bytes behind them are there. A 21-byte blob claiming
// four million points must be refused having allocated next to nothing.
func TestAggregatorRestoreBoundsAllocation(t *testing.T) {
	blob := hostileCountBlob(1 << 22)
	if len(blob) != 21 {
		t.Fatalf("hostile blob is %d bytes, want 21", len(blob))
	}
	agg := NewAggregator(AggregatorConfig{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := agg.Restore(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a blob claiming 1<<22 points and holding none restored")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a 21-byte blob allocated %d bytes", grew)
	}
}

// FuzzAggregatorRestore holds the aggregator checkpoint decoder to the
// engine checkpoint's contract: it never panics, a rejected blob leaves
// the aggregator exactly as it was, and whatever restores snapshots to a
// fixed point — restoring that snapshot and snapshotting again gives the
// same bytes. Each input also runs with its checksum restamped, so
// mutations reach the payload decoder.
func FuzzAggregatorRestore(f *testing.F) {
	frames := flatten(probeStreams(5))
	var src netip.AddrPort
	mid := NewAggregator(AggregatorConfig{})
	for _, frame := range frames[:len(frames)/2] {
		mid.HandleDigest(src, frame)
	}
	valid := mid.Snapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip)
	f.Add(NewAggregator(AggregatorConfig{}).Snapshot())
	f.Add(hostileCountBlob(1 << 22))
	f.Add([]byte("SCAG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAggregatorRestore(t, data, frames)
		if n := len(data) - 8; n >= 0 {
			if restamped := sealed(data[:n]); !bytes.Equal(restamped, data) {
				checkAggregatorRestore(t, restamped, frames)
			}
		}
	})
}

func checkAggregatorRestore(t *testing.T, data []byte, frames [][]byte) {
	var src netip.AddrPort
	agg := NewAggregator(AggregatorConfig{})
	for _, frame := range frames[:3] {
		agg.HandleDigest(src, frame)
	}
	before, stats := agg.Snapshot(), agg.Stats()
	if err := agg.Restore(data); err != nil {
		if !bytes.Equal(agg.Snapshot(), before) || agg.Stats() != stats {
			t.Fatalf("rejected checkpoint (%v) changed the aggregator", err)
		}
		return
	}
	once := agg.Snapshot()
	again := NewAggregator(AggregatorConfig{})
	if err := again.Restore(once); err != nil {
		t.Fatalf("re-snapshot does not restore: %v", err)
	}
	if twice := again.Snapshot(); !bytes.Equal(twice, once) {
		t.Fatalf("snapshot is not a fixed point of restore: %d bytes, then %d different bytes", len(once), len(twice))
	}
}
