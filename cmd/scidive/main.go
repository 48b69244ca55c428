// Command scidive runs the SCIDIVE intrusion detection engine over an
// SCAP capture file (recorded with voipsim) or over a live simulated
// scenario, and reports events, alerts, and engine statistics.
//
// Usage:
//
//	scidive -in bye.scap [-events] [-window 1s] [-rules FILE] [-json] [-shards N] [-ingest N]
//	scidive -scenario bye [-seed 7] [-limits sessions=4096,frags=64] [-shed 5ms] [-stall 2s] [-restart-shards]
//	scidive -scenario bye [-correlators sip,rtp,rtcp]   (subset of protocol correlators; -correlators help lists them)
//	scidive -in bye.scap -checkpoint ids.ckpt [-checkpoint-every 1000]   (crash recovery: checkpoint detection state)
//	scidive -in bye.scap -resume ids.ckpt   (restore state, skip the frames the checkpoint covers, keep replaying)
//	scidive -in edge.scap -probe edge -export sip-bye -digest-out edge.dig   (probe mode: export evidence as a digest stream)
//	scidive -aggregate edge.dig gateway.dig   (merge digest streams through the cross-point ruleset)
//
// Checkpoints are portable across engine geometry: a checkpoint written at
// any -shards/-ingest setting resumes at any other (grow 8 shards to 32 by
// checkpointing, restarting with the new width, and resuming).
//
// A running process hot-reloads its ruleset on SIGHUP: the -rules file is
// re-parsed and swapped in before the next delivered frame, without
// dropping a frame (a parse error keeps the active ruleset; in-flight
// partial matches of removed or edited rules are dropped and surfaced as
// a rule-reload alert). -reload-rules N does the same after every N
// delivered frames, deterministically, for tests and drills.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scidive/internal/capture"
	"scidive/internal/core"
	"scidive/internal/experiments"
)

// idsEngine is the surface shared by the serial Engine and the
// ShardedEngine; the CLI drives either through it.
type idsEngine interface {
	HandleFrame(at time.Duration, frame []byte)
	Snapshot() ([]byte, error)
	RestoreSnapshot(data []byte) error
	ReloadRules(rules []core.Rule) (int, error)
	Alerts() []core.Alert
	Events() []core.Event
	Stats() core.EngineStats
	DistillerStats() core.DistillerStats
	OnEvent(fn func(core.Event))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scidive:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scidive", flag.ContinueOnError)
	inPath := fs.String("in", "", "capture input path: SCAP, pcap, or pcapng, auto-detected (required)")
	showEvents := fs.Bool("events", false, "print every generated event")
	window := fs.Duration("window", time.Second, "orphan-flow monitoring window m")
	rtpActivityEvery := fs.Duration("rtp-activity-every", 0, "emit per-session rtp-activity liveness heartbeats at this cadence (0 = off); media-gateway probes export them for cross-point rules")
	rulesPath := fs.String("rules", "", "ruleset file in the rule description language (default: built-in rules)")
	jsonOut := fs.Bool("json", false, "emit alerts as JSON lines instead of text")
	scenarioName := fs.String("scenario", "", "run a live simulated scenario instead of reading a capture")
	seed := fs.Int64("seed", 1, "seed for -scenario runs")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "detection worker shards; 1 runs the serial engine")
	ingest := fs.Int("ingest", 1, "parallel ingest routers partitioning capture decode (sharded engine only); 1 keeps the single synchronous router")
	correlatorsSpec := fs.String("correlators", "", "comma-separated protocol correlators to enable (default: all); see -correlators help")
	limitsSpec := fs.String("limits", "", "state budget caps as k=v pairs: sessions,frags,streams,ims,seqs,bindings,alerts,events (0 or absent = unbounded)")
	shed := fs.Duration("shed", 0, "shed (never block) frames bound for a shard whose queue stays full this long; 0 blocks")
	stall := fs.Duration("stall", 0, "quarantine a shard making no progress for this long (wall clock); 0 disables the watchdog")
	restartShards := fs.Bool("restart-shards", false, "restart a panicked shard instead of quarantining it: warm from the last checkpoint when one exists, else cold (raises shard-state-loss)")
	checkpointPath := fs.String("checkpoint", "", "write the detection state to this file when the run ends (atomic temp+rename)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "with -checkpoint, also checkpoint after every N processed frames (0 = only at the end)")
	resumePath := fs.String("resume", "", "restore detection state from a checkpoint before replaying; the frames it covers are skipped")
	reloadEvery := fs.Int("reload-rules", 0, "hot-reload the -rules file after every N delivered frames (test hook; SIGHUP does the same on demand)")
	probePoint := fs.String("probe", "", "run as a probe at this observation point: export events as a digest stream (requires -digest-out)")
	exportSpec := fs.String("export", "", "with -probe, comma-separated event types to export (default: every event)")
	digestOut := fs.String("digest-out", "", "with -probe, write the digest stream to this file")
	aggregate := fs.Bool("aggregate", false, "merge digest stream files (the arguments) through the cross-point ruleset instead of reading a capture")
	if err := fs.Parse(args); err != nil {
		return err
	}
	correlators, err := parseCorrelators(*correlatorsSpec, out)
	if err != nil {
		return err
	}
	if *correlatorsSpec == "help" {
		return nil
	}
	var rules []core.Rule
	if *rulesPath != "" {
		text, err := os.ReadFile(*rulesPath)
		if err != nil {
			return err
		}
		rules, err = core.ParseRules(string(text))
		if err != nil {
			return err
		}
	}
	if *aggregate {
		if *inPath != "" || *scenarioName != "" || *probePoint != "" {
			return fmt.Errorf("-aggregate reads digest stream files only; it cannot be combined with -in, -scenario, or -probe")
		}
		return runAggregate(fs.Args(), rules, *jsonOut, out)
	}
	if *inPath == "" && *scenarioName == "" {
		fs.Usage()
		return fmt.Errorf("-in or -scenario is required")
	}
	if *probePoint != "" && *digestOut == "" {
		return fmt.Errorf("-probe requires -digest-out")
	}
	if *probePoint == "" && (*digestOut != "" || *exportSpec != "") {
		return fmt.Errorf("-digest-out and -export require -probe")
	}
	if *probePoint != "" && *shards > 1 {
		return fmt.Errorf("-probe needs the serial engine for a deterministic digest stream; use -shards 1")
	}
	if *ingest < 1 {
		return fmt.Errorf("-ingest must be at least 1")
	}
	if *ingest > 1 && *shards <= 1 {
		return fmt.Errorf("-ingest %d needs the sharded engine; use -shards 2 or more", *ingest)
	}
	if *checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be non-negative")
	}
	if *reloadEvery < 0 {
		return fmt.Errorf("-reload-rules must be non-negative")
	}
	if *checkpointEvery > 0 && *checkpointPath == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint")
	}
	var f *os.File
	if *inPath != "" {
		var err error
		f, err = os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
	}

	opts := []core.EngineOption{}
	if *showEvents {
		opts = append(opts, core.WithEventLog())
	}
	limits, err := parseLimits(*limitsSpec)
	if err != nil {
		return err
	}
	limits.ShedAfter = *shed
	limits.StallTimeout = *stall
	limits.RestartFailedShards = *restartShards
	cfg := core.Config{
		Gen:           core.GenConfig{MonitorWindow: *window, RTPActivityEvery: *rtpActivityEvery},
		Rules:         rules,
		Limits:        limits,
		Correlators:   correlators,
		IngestRouters: *ingest,
	}
	var eng idsEngine
	var sessionCount func() (sessions, trails int)
	if *shards > 1 {
		sharded := core.NewShardedEngine(cfg, *shards, opts...)
		defer sharded.Close()
		sessionCount = sharded.TrailCounts
		eng = sharded
	} else {
		serial := core.NewEngine(cfg, opts...)
		sessionCount = func() (int, int) { return serial.Trails().Sessions(), serial.Trails().Trails() }
		eng = serial
	}
	var probe *probeExporter
	if *probePoint != "" {
		probe, err = newProbeExporter(*probePoint, *exportSpec, limits, eng)
		if err != nil {
			return err
		}
	}
	var resumeSkip uint64
	if *resumePath != "" {
		data, err := os.ReadFile(*resumePath)
		if err != nil {
			return err
		}
		info, err := core.PeekSnapshotInfo(data)
		if err != nil {
			return fmt.Errorf("resume %s: %w", *resumePath, err)
		}
		if err := eng.RestoreSnapshot(data); err != nil {
			return fmt.Errorf("resume %s: %w", *resumePath, err)
		}
		resumeSkip = info.Frames
		fmt.Fprintf(out, "resumed from %s: skipping %d frames the checkpoint covers\n", *resumePath, resumeSkip)
	}
	// reloadRules hot-swaps the ruleset: the -rules file is re-read and
	// re-parsed through the DSL, then swapped in at a frame boundary
	// (unchanged rules keep their in-flight partial matches; removed or
	// edited rules drop theirs and raise a rule-reload alert). A read or
	// parse failure keeps the active ruleset: a bad edit must never take
	// the detector down.
	reloadRules := func() {
		var rules []core.Rule
		source := "built-in ruleset"
		if *rulesPath != "" {
			source = *rulesPath
			text, err := os.ReadFile(*rulesPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scidive: rule reload skipped: %v (keeping the active ruleset)\n", err)
				return
			}
			rules, err = core.ParseRules(string(text))
			if err != nil {
				fmt.Fprintf(os.Stderr, "scidive: rule reload skipped: %v (keeping the active ruleset)\n", err)
				return
			}
		}
		dropped, err := eng.ReloadRules(rules)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scidive: rule reload failed: %v\n", err)
			return
		}
		fmt.Fprintf(out, "rules reloaded from %s: %d in-flight partial matches dropped\n", source, dropped)
	}
	// SIGHUP requests a live reload. ReloadRules must not run concurrently
	// with HandleFrame, so deliver applies a pending request before the
	// next frame, on the delivery goroutine.
	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	defer signal.Stop(sighup)
	writeCkpt := func() error {
		snap, err := eng.Snapshot()
		if err != nil {
			return err
		}
		return core.WriteCheckpoint(*checkpointPath, snap)
	}
	// deliver skips the frames a resumed checkpoint already covers, applies
	// reloads and cuts periodic checkpoints at exact frame boundaries.
	// capture.Replay reuses its frame buffer, which parallel ingest lanes
	// read after HandleFrame returns, so that path copies each frame.
	var deliverErr error
	skip, processed := resumeSkip, uint64(0)
	deliver := func(at time.Duration, frame []byte) {
		if deliverErr != nil {
			return
		}
		if skip > 0 {
			skip--
			return
		}
		select {
		case <-sighup:
			reloadRules()
		default:
		}
		if *ingest > 1 {
			frame = append([]byte(nil), frame...)
		}
		eng.HandleFrame(at, frame)
		processed++
		if *checkpointPath != "" && *checkpointEvery > 0 && processed%uint64(*checkpointEvery) == 0 {
			deliverErr = writeCkpt()
		}
		if *reloadEvery > 0 && processed%uint64(*reloadEvery) == 0 {
			reloadRules()
		}
	}
	if *scenarioName != "" {
		outcome, err := experiments.RunScenario(*scenarioName, *seed, deliver)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "scenario %s: %s\n", *scenarioName, outcome.Impact)
	} else if err := capture.Replay(capture.NewReader(f), deliver); err != nil {
		return err
	}
	if deliverErr != nil {
		return deliverErr
	}
	if *checkpointPath != "" {
		if err := writeCkpt(); err != nil {
			return err
		}
	}
	if probe != nil {
		if err := probe.WriteFile(*digestOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "digest stream written to %s (%d digest frames)\n", *digestOut, len(probe.frames))
	}

	if *showEvents {
		fmt.Fprintln(out, "=== events ===")
		for _, ev := range eng.Events() {
			fmt.Fprintln(out, ev)
		}
	}
	alerts := eng.Alerts()
	if *jsonOut {
		if err := writeAlertsJSON(out, alerts); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, "=== alerts ===")
		if len(alerts) == 0 {
			fmt.Fprintln(out, "(none)")
		}
		for _, a := range alerts {
			fmt.Fprintln(out, a)
		}
	}
	st := eng.Stats()
	sessions, trails := sessionCount()
	fmt.Fprintf(out, "=== stats ===\nframes=%d footprints=%d events=%d alerts=%d sessions=%d trails=%d\n",
		st.Frames, st.Footprints, st.Events, st.Alerts, sessions, trails)
	// Classification ledger: how the distiller filed what it saw. On the
	// sharded engine these cover the frames shipped to shards (the router
	// pre-drops unclaimed traffic, so ignored stays 0 there); mismatched
	// counts content-confirmed reclassifications — nonzero means something
	// on the wire contradicted its port's claimed protocol.
	ds := eng.DistillerStats()
	fmt.Fprintf(out, "classified: sip=%d rtp=%d rtcp=%d acct=%d raw=%d ignored=%d mismatched=%d\n",
		ds.SIP, ds.RTP, ds.RTCP, ds.Acct, ds.Raw, ds.Ignored, ds.Mismatched)
	// The overload line appears only when degradation actually happened,
	// so unstressed runs keep their historic byte-identical output.
	if overloaded(st) {
		fmt.Fprintf(out, "overload: shed=%d/%db evicted sessions=%d frags=%d ims=%d seqs=%d bindings=%d alerts=%d events=%d shards failed=%d restarted=%d\n",
			st.FramesShed, st.BatchesShed,
			st.SessionsCapEvicted, st.FragGroupsEvicted, st.IMHistoriesEvicted,
			st.SeqTrackersEvicted, st.BindingsEvicted, st.AlertsEvicted, st.EventsEvicted,
			st.ShardsFailed, st.ShardsRestarted)
	}
	return nil
}

// overloaded reports whether any degradation counter is nonzero.
func overloaded(st core.EngineStats) bool {
	return st.FramesShed != 0 || st.BatchesShed != 0 ||
		st.SessionsCapEvicted != 0 || st.FragGroupsEvicted != 0 ||
		st.IMHistoriesEvicted != 0 || st.SeqTrackersEvicted != 0 ||
		st.BindingsEvicted != 0 || st.AlertsEvicted != 0 || st.EventsEvicted != 0 ||
		st.ShardsFailed != 0 || st.ShardsRestarted != 0 || st.FramesAfterClose != 0
}

// parseCorrelators parses the -correlators flag: a comma-separated subset
// of the registered correlator names. The selection keeps registry order
// (which fixes event order and port-claim priority) regardless of the
// order names were given in. "" selects everything; "help" lists the
// registry and returns nil correlators.
func parseCorrelators(spec string, out io.Writer) ([]core.Registration, error) {
	if spec == "" {
		return nil, nil
	}
	registry := core.DefaultCorrelators()
	if spec == "help" {
		fmt.Fprintln(out, "registered correlators (in dispatch order):")
		for _, reg := range registry {
			fmt.Fprintf(out, "  %s\n", reg.Name)
		}
		return nil, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-correlators: empty name in %q", spec)
		}
		known := false
		for _, reg := range registry {
			if reg.Name == name {
				known = true
				break
			}
		}
		if !known {
			names := make([]string, len(registry))
			for i, reg := range registry {
				names[i] = reg.Name
			}
			return nil, fmt.Errorf("-correlators: unknown correlator %q (registered: %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	var selected []core.Registration
	for _, reg := range registry {
		if want[reg.Name] {
			selected = append(selected, reg)
		}
	}
	return selected, nil
}

// parseLimits parses the -limits flag: comma-separated k=v pairs with
// keys sessions, frags, streams, ims, seqs, bindings, alerts, events.
func parseLimits(spec string) (core.Limits, error) {
	var l core.Limits
	if spec == "" {
		return l, nil
	}
	fields := map[string]*int{
		"sessions": &l.MaxSessions,
		"frags":    &l.MaxFragGroups,
		"streams":  &l.MaxStreams,
		"ims":      &l.MaxIMHistories,
		"seqs":     &l.MaxSeqTrackers,
		"bindings": &l.MaxBindings,
		"alerts":   &l.MaxRetainedAlerts,
		"events":   &l.MaxRetainedEvents,
	}
	for _, pair := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return l, fmt.Errorf("-limits: %q is not key=value", pair)
		}
		dst, known := fields[k]
		if !known {
			return l, fmt.Errorf("-limits: unknown cap %q (want sessions, frags, streams, ims, seqs, bindings, alerts, or events)", k)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return l, fmt.Errorf("-limits: %s=%q is not a non-negative integer", k, v)
		}
		*dst = n
	}
	return l, nil
}

// writeAlertsJSON emits alerts as JSON lines.
func writeAlertsJSON(out io.Writer, alerts []core.Alert) error {
	encoder := json.NewEncoder(out)
	for _, a := range alerts {
		if err := encoder.Encode(alertJSON{
			AtSeconds: a.At.Seconds(),
			Rule:      a.Rule,
			Severity:  a.Severity.String(),
			Session:   a.Session,
			Detail:    a.Detail,
			Count:     a.Count,
		}); err != nil {
			return err
		}
	}
	return nil
}

// alertJSON is the machine-readable alert export shape.
type alertJSON struct {
	AtSeconds float64 `json:"at_seconds"`
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity"`
	Session   string  `json:"session"`
	Detail    string  `json:"detail"`
	Count     int     `json:"count"`
}
