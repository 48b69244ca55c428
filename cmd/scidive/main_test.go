package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"scidive/internal/capture"
	"scidive/internal/core"
	"scidive/internal/experiments"
)

// writeScenarioCapture records a scenario to an SCAP file for CLI tests.
func writeScenarioCapture(t *testing.T, name string, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".scap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := capture.NewWriter(f)
	if _, err := experiments.RunScenario(name, seed, func(at time.Duration, frame []byte) {
		_ = w.WriteFrame(at, frame)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeScenarioPcap records a scenario as a classic pcap (big-endian,
// nanosecond magic, Ethernet linktype) for the auto-detection tests.
func writeScenarioPcap(t *testing.T, name string, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b23c4d) // pcap nanosecond magic
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint32(hdr[16:20], capture.MaxFrameLen) // snaplen
	binary.BigEndian.PutUint32(hdr[20:24], 1)                   // LINKTYPE_ETHERNET
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.RunScenario(name, seed, func(at time.Duration, frame []byte) {
		rec := make([]byte, 16+len(frame))
		binary.BigEndian.PutUint32(rec[0:4], uint32(at/time.Second))
		binary.BigEndian.PutUint32(rec[4:8], uint32(at%time.Second))
		binary.BigEndian.PutUint32(rec[8:12], uint32(len(frame)))
		binary.BigEndian.PutUint32(rec[12:16], uint32(len(frame)))
		copy(rec[16:], frame)
		_, _ = f.Write(rec)
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayPcapDetectsAttack proves the README's pcap walkthrough: a
// standard pcap of TCP SIP trunk traffic (plus its UDP media) feeds the
// engine through -in auto-detection and raises the same alert.
func TestReplayPcapDetectsAttack(t *testing.T) {
	path := writeScenarioPcap(t, "tcptrunk-split", 7)
	var buf strings.Builder
	if err := run([]string{"-in", path, "-events"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "bye-attack") {
		t.Errorf("pcap replay missed the attack:\n%s", out)
	}
	if !strings.Contains(out, "rtp-after-bye") {
		t.Errorf("pcap replay missed the orphan-media events:\n%s", out)
	}
}

func TestReplayDetectsAttack(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 5)
	var buf strings.Builder
	if err := run([]string{"-in", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "bye-attack") {
		t.Errorf("replay missed the attack:\n%s", out)
	}
	if !strings.Contains(out, "=== stats ===") {
		t.Error("no stats section")
	}
}

func TestReplayBenignIsQuiet(t *testing.T) {
	path := writeScenarioCapture(t, "benign", 6)
	var buf strings.Builder
	if err := run([]string{"-in", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "(none)") {
		t.Errorf("benign replay raised alerts:\n%s", buf.String())
	}
}

func TestReplayWithEvents(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 7)
	var buf strings.Builder
	if err := run([]string{"-in", path, "-events"}, &buf); err != nil {
		t.Fatalf("run -events: %v", err)
	}
	if !strings.Contains(buf.String(), "=== events ===") ||
		!strings.Contains(buf.String(), "sip-bye") {
		t.Error("event log missing")
	}
}

func TestReplaySharded(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 5)
	var serial, sharded strings.Builder
	if err := run([]string{"-in", path, "-shards", "1", "-events"}, &serial); err != nil {
		t.Fatalf("run serial: %v", err)
	}
	if err := run([]string{"-in", path, "-shards", "4", "-events"}, &sharded); err != nil {
		t.Fatalf("run -shards 4: %v", err)
	}
	// The sharded engine must be output-identical to the serial one.
	if serial.String() != sharded.String() {
		t.Errorf("sharded output diverged from serial:\n--- serial ---\n%s--- sharded ---\n%s",
			serial.String(), sharded.String())
	}
	if !strings.Contains(sharded.String(), "bye-attack") {
		t.Error("sharded replay missed the attack")
	}
}

func TestReplayParallelIngest(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 5)
	var serial, parallel strings.Builder
	if err := run([]string{"-in", path, "-shards", "1", "-events"}, &serial); err != nil {
		t.Fatalf("run serial: %v", err)
	}
	if err := run([]string{"-in", path, "-shards", "4", "-ingest", "4", "-events"}, &parallel); err != nil {
		t.Fatalf("run -shards 4 -ingest 4: %v", err)
	}
	// The partitioned front end must be output-identical to the serial engine.
	if serial.String() != parallel.String() {
		t.Errorf("parallel-ingest output diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	var buf strings.Builder
	if err := run([]string{"-in", path, "-ingest", "0"}, &buf); err == nil {
		t.Error("-ingest 0 accepted")
	}
	if err := run([]string{"-in", path, "-shards", "1", "-ingest", "2"}, &buf); err == nil {
		t.Error("-ingest 2 with the serial engine accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent/file.scap"}, &buf); err == nil {
		t.Error("nonexistent file accepted")
	}
}

func TestReplayWithCustomRulesFile(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 8)
	// A ruleset that only knows the BYE attack.
	rules := "rule custom-bye critical cross stateful {\n" +
		"    seq sip-bye, rtp-after-bye\n" +
		"}\n"
	rulesPath := filepath.Join(t.TempDir(), "custom.rules")
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-in", path, "-rules", rulesPath}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "custom-bye") {
		t.Errorf("custom rule did not fire:\n%s", buf.String())
	}
	// Errors surface for broken rule files.
	badPath := filepath.Join(t.TempDir(), "bad.rules")
	if err := os.WriteFile(badPath, []byte("rule x nope {\nseq sip-bye\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-rules", badPath}, &buf); err == nil {
		t.Error("bad rules file accepted")
	}
	if err := run([]string{"-in", path, "-rules", "/nonexistent.rules"}, &buf); err == nil {
		t.Error("missing rules file accepted")
	}
}

func TestReplayWithShippedDefaultRules(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 9)
	var buf strings.Builder
	if err := run([]string{"-in", path, "-rules", "../../rules/default.rules"}, &buf); err != nil {
		t.Fatalf("run with shipped rules: %v", err)
	}
	if !strings.Contains(buf.String(), "bye-attack") {
		t.Errorf("shipped ruleset missed the attack:\n%s", buf.String())
	}
}

func TestParseLimits(t *testing.T) {
	l, err := parseLimits("sessions=4096, frags=64,streams=48,ims=32,seqs=128,bindings=16,alerts=1000,events=2000")
	if err != nil {
		t.Fatalf("parseLimits: %v", err)
	}
	if l.MaxSessions != 4096 || l.MaxFragGroups != 64 || l.MaxStreams != 48 || l.MaxIMHistories != 32 ||
		l.MaxSeqTrackers != 128 || l.MaxBindings != 16 ||
		l.MaxRetainedAlerts != 1000 || l.MaxRetainedEvents != 2000 {
		t.Errorf("parsed limits = %+v", l)
	}
	if l, err := parseLimits(""); err != nil || l != (core.Limits{}) {
		t.Errorf("empty spec = %+v, %v; want zero limits", l, err)
	}
	for _, bad := range []string{"sessions", "widgets=3", "sessions=x", "sessions=-1", "sessions=4,"} {
		if _, err := parseLimits(bad); err == nil {
			t.Errorf("parseLimits(%q) accepted", bad)
		}
	}
}

func TestParseCorrelators(t *testing.T) {
	var buf strings.Builder
	// Empty spec selects the full default registry (nil = defaults).
	if regs, err := parseCorrelators("", &buf); err != nil || regs != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", regs, err)
	}
	// A subset is honored, but in registry order regardless of input order.
	regs, err := parseCorrelators("rtp,sip", &buf)
	if err != nil {
		t.Fatalf("parseCorrelators: %v", err)
	}
	if len(regs) != 2 || regs[0].Name != "sip" || regs[1].Name != "rtp" {
		names := make([]string, len(regs))
		for i, r := range regs {
			names[i] = r.Name
		}
		t.Errorf("subset = %v, want registry order [sip rtp]", names)
	}
	for _, bad := range []string{"bogus", "sip,,rtp", ",", "sip,widget"} {
		if _, err := parseCorrelators(bad, &buf); err == nil {
			t.Errorf("parseCorrelators(%q) accepted", bad)
		}
	}
	// "help" lists the registry and selects nothing.
	buf.Reset()
	if regs, err := parseCorrelators("help", &buf); err != nil || regs != nil {
		t.Errorf("help = %v, %v; want nil, nil", regs, err)
	}
	if !strings.Contains(buf.String(), "options-scan") {
		t.Errorf("help output missing a registered correlator:\n%s", buf.String())
	}
}

func TestCorrelatorSelectionGatesDetection(t *testing.T) {
	path := writeScenarioCapture(t, "optionsscan", 7)
	// Full registry: the cross-dialog OPTIONS sweep is detected.
	var all strings.Builder
	if err := run([]string{"-in", path}, &all); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(all.String(), "sip-options-scan") {
		t.Errorf("full registry missed the scan:\n%s", all.String())
	}
	// Without the options-scan correlator the same capture is quiet.
	var subset strings.Builder
	if err := run([]string{"-in", path, "-correlators", "sip,im,rtp,rtcp,acct"}, &subset); err != nil {
		t.Fatalf("run -correlators: %v", err)
	}
	if strings.Contains(subset.String(), "sip-options-scan") {
		t.Errorf("disabled correlator still fired:\n%s", subset.String())
	}
	// -correlators help works without -in and prints the registry.
	var help strings.Builder
	if err := run([]string{"-correlators", "help"}, &help); err != nil {
		t.Fatalf("run -correlators help: %v", err)
	}
	if !strings.Contains(help.String(), "dispatch order") {
		t.Errorf("help output = %q", help.String())
	}
}

func TestReplayWithLimitsReportsOverload(t *testing.T) {
	path := writeScenarioCapture(t, "fragflood", 5)
	// Unbounded: no degradation, so no overload line (historic output).
	var plain strings.Builder
	if err := run([]string{"-in", path}, &plain); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(plain.String(), "overload:") {
		t.Errorf("unbounded run printed an overload line:\n%s", plain.String())
	}
	// Capped: the fragment flood overflows the budget, and the evictions
	// must be reported, identically for serial and sharded engines.
	var serial, sharded strings.Builder
	args := []string{"-in", path, "-limits", "frags=8,sessions=64"}
	if err := run(append(args, "-shards", "1"), &serial); err != nil {
		t.Fatalf("run -limits serial: %v", err)
	}
	if err := run(append(args, "-shards", "4"), &sharded); err != nil {
		t.Fatalf("run -limits -shards 4: %v", err)
	}
	if !strings.Contains(serial.String(), "overload:") {
		t.Errorf("capped flood printed no overload line:\n%s", serial.String())
	}
	if serial.String() != sharded.String() {
		t.Errorf("capped sharded output diverged from serial:\n--- serial ---\n%s--- sharded ---\n%s",
			serial.String(), sharded.String())
	}
	// A bad spec is rejected before any engine is built.
	if err := run([]string{"-in", path, "-limits", "bogus"}, &serial); err == nil {
		t.Error("bad -limits spec accepted")
	}
}

func TestLiveScenarioAndJSONOutput(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-scenario", "bye", "-seed", "4", "-json"}, &buf); err != nil {
		t.Fatalf("run -scenario: %v", err)
	}
	out := buf.String()
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "{") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no JSON alert line:\n%s", out)
	}
	var a alertJSON
	if err := json.Unmarshal([]byte(line), &a); err != nil {
		t.Fatalf("bad JSON %q: %v", line, err)
	}
	if a.Rule != "bye-attack" || a.Severity != "critical" || a.AtSeconds <= 0 || a.Count < 1 {
		t.Errorf("alert = %+v", a)
	}
	// Unknown live scenario errors.
	if err := run([]string{"-scenario", "nope"}, &buf); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// writeSplitCaptures records one scenario into a truncated capture (the
// frames before a crash) and a full capture (the whole trace a resumed
// IDS replays from the start).
func writeSplitCaptures(t *testing.T, name string, seed int64) (partial, full string) {
	t.Helper()
	var frames []capture.Record
	if _, err := experiments.RunScenario(name, seed, func(at time.Duration, frame []byte) {
		frames = append(frames, capture.Record{Time: at, Frame: append([]byte(nil), frame...)})
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeRecs := func(path string, recs []capture.Record) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := capture.NewWriter(f)
		for _, r := range recs {
			if err := w.WriteFrame(r.Time, r.Frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	partial = filepath.Join(dir, name+"-partial.scap")
	full = filepath.Join(dir, name+"-full.scap")
	writeRecs(partial, frames[:len(frames)/2])
	writeRecs(full, frames)
	return partial, full
}

// alertSection extracts everything from the alerts header on, so resumed
// runs (which print an extra resume line up front) stay comparable.
func alertSection(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "=== alerts ===")
	if i < 0 {
		t.Fatalf("no alerts section in output:\n%s", out)
	}
	return out[i:]
}

// TestCheckpointResumeCLI runs the crash-recovery walkthrough: process
// half the capture with -checkpoint, die, then -resume over the full
// capture. The resumed run must report exactly what an uninterrupted
// run reports — serial and sharded alike.
func TestCheckpointResumeCLI(t *testing.T) {
	partial, full := writeSplitCaptures(t, "bye", 5)
	for _, shardArgs := range [][]string{{"-shards", "1"}, {"-shards", "2"}} {
		ckpt := filepath.Join(t.TempDir(), "ids.ckpt")
		var first strings.Builder
		args := append([]string{"-in", partial, "-checkpoint", ckpt}, shardArgs...)
		if err := run(args, &first); err != nil {
			t.Fatalf("checkpointing run %v: %v", shardArgs, err)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("no checkpoint written: %v", err)
		}

		var resumed strings.Builder
		args = append([]string{"-in", full, "-resume", ckpt}, shardArgs...)
		if err := run(args, &resumed); err != nil {
			t.Fatalf("resumed run %v: %v", shardArgs, err)
		}
		if !strings.Contains(resumed.String(), "resumed from") {
			t.Errorf("resumed run did not report the resume:\n%s", resumed.String())
		}

		var uninterrupted strings.Builder
		args = append([]string{"-in", full}, shardArgs...)
		if err := run(args, &uninterrupted); err != nil {
			t.Fatalf("uninterrupted run %v: %v", shardArgs, err)
		}
		got := alertSection(t, resumed.String())
		want := alertSection(t, uninterrupted.String())
		if got != want {
			t.Errorf("resumed output %v diverged from uninterrupted:\n--- resumed ---\n%s--- uninterrupted ---\n%s",
				shardArgs, got, want)
		}
		if !strings.Contains(got, "bye-attack") {
			t.Errorf("resumed run missed the attack:\n%s", got)
		}
	}
}

// TestCheckpointEveryCLI checkpoints periodically; the last on-disk
// checkpoint must cover the whole run, so resuming it and replaying the
// same capture delivers zero new frames yet reports identical alerts.
func TestCheckpointEveryCLI(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 5)
	ckpt := filepath.Join(t.TempDir(), "ids.ckpt")
	var first strings.Builder
	if err := run([]string{"-in", path, "-shards", "2", "-checkpoint", ckpt, "-checkpoint-every", "5"}, &first); err != nil {
		t.Fatalf("periodic checkpoint run: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.PeekSnapshotInfo(data)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if !info.Sharded || info.Shards != 2 || info.Frames == 0 {
		t.Fatalf("final checkpoint header = %+v", info)
	}
	var resumed strings.Builder
	if err := run([]string{"-in", path, "-shards", "2", "-resume", ckpt}, &resumed); err != nil {
		t.Fatalf("resume of final checkpoint: %v", err)
	}
	if got, want := alertSection(t, resumed.String()), alertSection(t, first.String()); got != want {
		t.Errorf("resume-at-end output diverged:\n--- resumed ---\n%s--- first ---\n%s", got, want)
	}
}

// TestResumeMismatchCLI: resuming into a process with a different
// detection configuration must fail with an error that names the mismatch
// and says how to proceed — while geometry (shard count, engine kind) is
// NOT a mismatch: portable checkpoints resume at any width.
func TestResumeMismatchCLI(t *testing.T) {
	partial, full := writeSplitCaptures(t, "bye", 5)
	ckpt := filepath.Join(t.TempDir(), "ids.ckpt")
	var buf strings.Builder
	if err := run([]string{"-in", partial, "-shards", "2", "-checkpoint", ckpt}, &buf); err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	expectErr := func(args []string, wants ...string) {
		t.Helper()
		var out strings.Builder
		err := run(args, &out)
		if err == nil {
			t.Errorf("run %v accepted a mismatched checkpoint", args)
			return
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("run %v error %q does not mention %q", args, err, w)
			}
		}
	}
	// Geometry changes are accepted: the checkpoint written at 2 shards
	// resumes serial, wider, and with parallel ingest, each reproducing the
	// uninterrupted run's alerts exactly.
	var uninterrupted strings.Builder
	if err := run([]string{"-in", full, "-shards", "1"}, &uninterrupted); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	for _, geo := range [][]string{
		{"-shards", "1"},
		{"-shards", "4"},
		{"-shards", "8", "-ingest", "4"},
	} {
		args := append([]string{"-in", full, "-resume", ckpt}, geo...)
		var resumed strings.Builder
		if err := run(args, &resumed); err != nil {
			t.Fatalf("cross-geometry resume %v: %v", geo, err)
		}
		if got, want := alertSection(t, resumed.String()), alertSection(t, uninterrupted.String()); got != want {
			t.Errorf("cross-geometry resume %v diverged:\n--- resumed ---\n%s--- uninterrupted ---\n%s", geo, got, want)
		}
	}

	expectErr([]string{"-in", full, "-shards", "2", "-resume", ckpt, "-correlators", "sip,rtp"}, "correlator set", "resume with -correlators")
	expectErr([]string{"-in", full, "-shards", "2", "-resume", ckpt, "-limits", "sessions=9"}, "config hash", "capture-time settings")
	expectErr([]string{"-in", full, "-shards", "2", "-resume", ckpt, "-window", "9s"}, "config hash", "capture-time settings")

	// An edited ruleset is refused by its hash.
	rulesFile := filepath.Join(t.TempDir(), "edited.rules")
	edited := "rule custom-bye critical cross stateful {\n    seq sip-bye, rtp-after-bye\n}\n"
	if err := os.WriteFile(rulesFile, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	expectErr([]string{"-in", full, "-shards", "2", "-resume", ckpt, "-rules", rulesFile}, "ruleset hash", "rules changed", "hot-reload")

	// Flag-combination errors surface before any engine runs.
	expectErr([]string{"-in", full, "-checkpoint-every", "3"}, "-checkpoint-every requires -checkpoint")
	expectErr([]string{"-in", full, "-shards", "2", "-resume", filepath.Join(t.TempDir(), "missing.ckpt")})

	// A corrupt checkpoint file is rejected with the checksum error.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	expectErr([]string{"-in", full, "-shards", "2", "-resume", bad}, "checksum")
}

// TestScenarioCheckpointResume covers the -scenario path: a live
// scenario can checkpoint, and a second process can resume it with the
// same scenario and seed.
func TestScenarioCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ids.ckpt")
	var first strings.Builder
	if err := run([]string{"-scenario", "bye", "-seed", "4", "-shards", "2", "-checkpoint", ckpt}, &first); err != nil {
		t.Fatalf("scenario checkpoint run: %v", err)
	}
	var resumed strings.Builder
	if err := run([]string{"-scenario", "bye", "-seed", "4", "-shards", "2", "-resume", ckpt}, &resumed); err != nil {
		t.Fatalf("scenario resume run: %v", err)
	}
	if got, want := alertSection(t, resumed.String()), alertSection(t, first.String()); got != want {
		t.Errorf("scenario resume diverged:\n--- resumed ---\n%s--- first ---\n%s", got, want)
	}
}

// TestReloadRulesCLI drives the deterministic -reload-rules hook: an
// unchanged ruleset reloaded every few frames must report each reload and
// leave the alert output byte-identical to a static run (the
// reload-vs-static differential at the process boundary), for both engine
// kinds.
func TestReloadRulesCLI(t *testing.T) {
	path := writeScenarioCapture(t, "bye", 5)
	rulesFile := filepath.Join(t.TempDir(), "default.rules")
	if err := os.WriteFile(rulesFile, []byte(core.FormatRules(core.DefaultRuleset())), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "2"} {
		var static strings.Builder
		if err := run([]string{"-in", path, "-shards", shards, "-rules", rulesFile}, &static); err != nil {
			t.Fatalf("static run: %v", err)
		}
		var reloaded strings.Builder
		if err := run([]string{"-in", path, "-shards", shards, "-rules", rulesFile, "-reload-rules", "5"}, &reloaded); err != nil {
			t.Fatalf("reloading run: %v", err)
		}
		if !strings.Contains(reloaded.String(), "rules reloaded from "+rulesFile+": 0 in-flight partial matches dropped") {
			t.Errorf("shards=%s: no reload notice in output:\n%s", shards, reloaded.String())
		}
		if got, want := alertSection(t, reloaded.String()), alertSection(t, static.String()); got != want {
			t.Errorf("shards=%s: reload-vs-static alerts diverged:\n--- reloaded ---\n%s--- static ---\n%s",
				shards, got, want)
		}
	}
}

// TestReloadRulesSIGHUP exercises the live signal path on both engine
// kinds: SIGHUPs hammer the process throughout a replay while the rules
// file is repeatedly rewritten — sometimes the identical valid ruleset,
// sometimes unparseable garbage. Whatever lands, identical-ruleset
// reloads are no-ops and garbage reloads are skipped with the active
// ruleset kept, so the run must complete cleanly with the static run's
// exact alerts. Reloads apply on the delivery goroutine, so under -race
// this also proves no reload touches the engine mid-frame. The test
// registers its own SIGHUP handler first so a signal arriving before run
// installs its own cannot kill the test process.
func TestReloadRulesSIGHUP(t *testing.T) {
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGHUP)
	defer signal.Stop(guard)

	path := writeScenarioCapture(t, "bye", 5)
	valid := []byte(core.FormatRules(core.DefaultRuleset()))
	for _, shards := range []string{"1", "2"} {
		t.Run("shards"+shards, func(t *testing.T) {
			rulesFile := filepath.Join(t.TempDir(), "default.rules")
			if err := os.WriteFile(rulesFile, valid, 0o644); err != nil {
				t.Fatal(err)
			}
			args := []string{"-in", path, "-shards", shards, "-rules", rulesFile}
			var static strings.Builder
			if err := run(args, &static); err != nil {
				t.Fatalf("static run: %v", err)
			}

			// swapIn replaces the rules file atomically (temp + rename) so
			// a concurrent reload never reads a truncated file — a partial
			// write could parse as a valid SUBSET ruleset and legitimately
			// change behavior, which is not the failure mode under test.
			swapIn := func(content []byte) {
				tmp := rulesFile + ".tmp"
				if err := os.WriteFile(tmp, content, 0o644); err == nil {
					os.Rename(tmp, rulesFile)
				}
			}
			stop := make(chan struct{})
			hammerDone := make(chan struct{})
			go func() {
				defer close(hammerDone)
				garbage := []byte("rule broken nope {\n    seq sip-bye\n")
				for i := 0; ; i++ {
					select {
					case <-stop:
						swapIn(valid)
						return
					default:
					}
					if i%2 == 0 {
						swapIn(garbage)
					} else {
						swapIn(valid)
					}
					syscall.Kill(os.Getpid(), syscall.SIGHUP)
					time.Sleep(200 * time.Microsecond)
				}
			}()
			// Startup must parse a valid file; the hammer may already have
			// swapped garbage in, so retry until the startup parse wins.
			var reloaded strings.Builder
			var err error
			for {
				reloaded.Reset()
				if err = run(args, &reloaded); err == nil || !strings.Contains(err.Error(), "rules:") {
					break
				}
			}
			close(stop)
			<-hammerDone
			if err != nil {
				t.Fatalf("run under SIGHUP storm: %v", err)
			}
			if got, want := alertSection(t, reloaded.String()), alertSection(t, static.String()); got != want {
				t.Errorf("SIGHUP-storm alerts diverged:\n--- reloaded ---\n%s--- static ---\n%s", got, want)
			}
		})
	}
}
