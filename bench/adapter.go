package main

// This file is the benchmark's only contact with internal/core and
// internal/coop: every engine, pipeline stage, rule engine, snapshot and
// digest call goes through it, so an engine refactor touches one place.

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"scidive/internal/capture"
	"scidive/internal/coop"
	"scidive/internal/core"
)

// Sharded geometry is fixed, not derived from GOMAXPROCS, so numbers
// compare across hosts.
const shardedShards = 2

// coreEngine is the surface core.Engine and core.ShardedEngine share.
type coreEngine interface {
	HandleFrame(at time.Duration, frame []byte)
	ReplayCapture(r *capture.Reader) error
	Alerts() []core.Alert
	Stats() core.EngineStats
	DistillerStats() core.DistillerStats
	OnAlert(fn func(core.Alert))
	OnEvent(fn func(core.Event))
	Snapshot() ([]byte, error)
	RestoreSnapshot(data []byte) error
}

// ids is an engine built exactly as cmd/scidive builds it: default
// config, default ruleset.
type ids struct {
	coreEngine
	sharded *core.ShardedEngine // nil for the serial engine
}

func newSerial() *ids { return &ids{coreEngine: core.NewEngine(core.Config{})} }

// newSharded builds the sharded engine; ingest <= 1 leaves IngestRouters
// unset (the single synchronous router).
func newSharded(ingest, shards int) *ids {
	cfg := core.Config{}
	if ingest > 1 {
		cfg.IngestRouters = ingest
	}
	s := core.NewShardedEngine(cfg, shards)
	return &ids{coreEngine: s, sharded: s}
}

func (e *ids) kind() string {
	if e.sharded != nil {
		return "sharded"
	}
	return "serial"
}

func (e *ids) replay(scap []byte) error {
	return e.ReplayCapture(capture.NewReader(bytes.NewReader(scap)))
}

// close drains and stops the sharded engine's workers; the serial engine
// has nothing to stop.
func (e *ids) close() {
	if e.sharded != nil {
		e.sharded.Close()
	}
}

// flush waits until the sharded engine has processed everything fed so
// far; the serial engine never has anything queued.
func (e *ids) flush() {
	if e.sharded != nil {
		e.sharded.Flush()
	}
}

func keysOf(as []core.Alert) []alertKey {
	out := make([]alertKey, len(as))
	for i, a := range as {
		out[i] = alertKey{a.Rule, a.Session}
	}
	return out
}

func (e *ids) alerts() []alertKey { return keysOf(e.Alerts()) }

func (e *ids) onAlert(fn func(alertKey)) {
	e.OnAlert(func(a core.Alert) { fn(alertKey{a.Rule, a.Session}) })
}

// recordEvents keeps every event the engine generates, in a log
// preallocated so that recording does not reallocate mid-run.
func (e *ids) recordEvents(capacity int) *eventLog {
	log := make(eventLog, 0, capacity)
	e.OnEvent(func(ev core.Event) { log = append(log, ev) })
	return &log
}

// engineCounts are the engine's own counters the per-layer metrics use.
type engineCounts struct {
	footprints, framesShed int
	slowPath, mismatched   int // distiller: frames leaving the fast path
	shardProcessed         []uint64
}

func (e *ids) counts() engineCounts {
	st, d := e.Stats(), e.DistillerStats()
	c := engineCounts{
		footprints: st.Footprints, framesShed: st.FramesShed,
		slowPath: d.Fragments + d.Streamed + d.Mismatched + d.Raw, mismatched: d.Mismatched,
	}
	if e.sharded != nil {
		for _, h := range e.sharded.ShardHealth() {
			c.shardProcessed = append(c.shardProcessed, h.FramesProcessed)
		}
	}
	return c
}

// ledgerBreaches checks the conservation ledgers after a run over frames
// frames; each returned line is one failed operation.
func (e *ids) ledgerBreaches(frames int) []string {
	var out []string
	st := e.Stats()
	if st.Frames != frames {
		out = append(out, fmt.Sprintf("%s: Stats().Frames = %d, capture has %d", e.kind(), st.Frames, frames))
	}
	if st.FramesShed != 0 || st.FramesAfterClose != 0 {
		out = append(out, fmt.Sprintf("%s: %d frames shed, %d after close", e.kind(), st.FramesShed, st.FramesAfterClose))
	}
	d := e.DistillerStats()
	terminal := d.DecodeError + d.Fragments + d.Ignored + d.Streamed + d.SIP + d.RTP + d.RTCP + d.Acct + d.Raw + d.Mismatched
	if d.Frames+d.StreamMsgs != terminal {
		out = append(out, fmt.Sprintf("%s: distiller ledger: Frames %d + StreamMsgs %d != terminal %d", e.kind(), d.Frames, d.StreamMsgs, terminal))
	}
	if e.sharded != nil {
		for _, h := range e.sharded.ShardHealth() {
			if h.FramesRouted != h.FramesProcessed+h.FramesShed || h.FramesShed != 0 {
				out = append(out, fmt.Sprintf("shard %d: routed %d != processed %d + shed %d (shed must be 0)", h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed))
			}
		}
	}
	return out
}

// restoredSerial builds a fresh serial engine from a snapshot.
func restoredSerial(snap []byte) (*ids, error) {
	e := newSerial()
	return e, e.RestoreSnapshot(snap)
}

// pipeline is the serial engine's stage chain composed by hand from the
// stages' public constructors, so the traced run can time each stage
// boundary from outside. Its distiller has no TCP stream arm, so it only
// serves UDP-only workloads.
type pipeline struct {
	dist   *core.Distiller
	gen    *core.EventGenerator
	rules  *core.RuleEngine
	view   core.FrameView
	evs    []core.Event
	frames int
}

// eventLog is a recorded event stream, replayed through rule engines and
// the cooperative layer.
type eventLog []core.Event

func newPipeline() *pipeline {
	return &pipeline{
		dist:  core.NewDistiller(),
		gen:   core.NewEventGenerator(core.GenConfig{}, core.NewTrailStore(4096)),
		rules: core.NewRuleEngine(core.DefaultRuleset()),
	}
}

// sweep runs the session-expiry sweep on the engine's schedule.
func (p *pipeline) sweep(at time.Duration) {
	p.frames++
	if p.frames%sweepEvery == 0 {
		p.gen.ExpireSessions(at, sessionTimeout)
	}
}

func (p *pipeline) distill(at time.Duration, frame []byte) bool {
	return p.dist.DistillView(at, frame, &p.view)
}

// generate runs the event generator on the distilled view and returns
// how many events it completed.
func (p *pipeline) generate() int {
	p.evs = p.evs[:0]
	p.gen.ProcessView(&p.view, core.RouteHints{}, &p.evs)
	return len(p.evs)
}

// feed matches the i-th event of the current frame.
func (p *pipeline) feed(i int) { p.rules.Feed(p.evs[i]) }

// viewClass maps the distilled view's protocol to the generator's
// per-protocol cost buckets.
func (p *pipeline) viewClass() frameClass {
	switch p.view.Proto {
	case core.ProtoRTP:
		return clsRTP
	case core.ProtoRTCP:
		return clsRTCP
	default:
		return clsSIP
	}
}

func (p *pipeline) alerts() []alertKey { return keysOf(p.rules.Alerts()) }

// trailAppendNS distills one frame and appends its view n times to one
// trail, which reaches its cap early on; it returns nanoseconds per
// append, or 0 if the frame yields no view.
func trailAppendNS(at time.Duration, frame []byte, n int) float64 {
	var view core.FrameView
	if !core.NewDistiller().DistillView(at, frame, &view) {
		return 0
	}
	trail := core.NewTrailStore(4096).Get("bench", view.Proto)
	start := time.Now()
	for i := 0; i < n; i++ {
		trail.AppendView(&view)
	}
	return float64(time.Since(start)) / float64(n)
}

// replayRules feeds the log through a fresh rule engine holding the
// default ruleset plus extra generated DSL rules whose first step matches
// a common event and whose second never arrives, so every fed event pays
// for them and none completes. It returns the time spent in Feed and the
// alerts raised.
func (l eventLog) replayRules(extra int) (time.Duration, int, error) {
	rules := core.DefaultRuleset()
	if extra > 0 {
		firsts := []string{"sip-invite", "sip-bye", "sip-register", "sip-auth-challenge", "sip-register-ok", "sip-call-established", "sip-instant-message", "rtp-new-flow"}
		var text strings.Builder
		for i := 0; i < extra; i++ {
			fmt.Fprintf(&text, "rule bench-never-%d info stateful {\n  seq %s, acct-stop\n  window 2s\n}\n", i, firsts[i%len(firsts)])
		}
		more, err := core.ParseRules(text.String())
		if err != nil {
			return 0, 0, fmt.Errorf("generated rules: %w", err)
		}
		rules = append(rules, more...)
	}
	re := core.NewRuleEngine(rules)
	start := time.Now()
	for _, ev := range l {
		re.Feed(ev)
	}
	return time.Since(start), len(re.Alerts()), nil
}

// coopCost is what shipping an event log through the cooperative layer
// costs, stage by stage.
type coopCost struct {
	events                int
	encode, decode, merge time.Duration
	bytes                 int
}

// replayCoop splits the log across two observation points, exports each
// half as digests of up to batch events, and merges them in an
// aggregator: Exporter -> EncodeDigest -> HandleDigest -> Finalize.
// Decode is timed on its own as well; HandleDigest decodes again inside
// merge, as it does in production.
func (l eventLog) replayCoop(batch int) (coopCost, error) {
	var c coopCost
	points := []string{"edge", "gateway"}
	exporters := []*core.Exporter{core.NewExporter(core.Limits{}), core.NewExporter(core.Limits{})}
	var wire [][]byte
	flush := func(i int) {
		d := exporters[i].Flush(points[i])
		if d == nil {
			return
		}
		start := time.Now()
		b := core.EncodeDigest(d)
		c.encode += time.Since(start)
		c.bytes += len(b)
		c.events += len(d.Events)
		wire = append(wire, b)
	}
	for n, ev := range l {
		i := n % 2
		exporters[i].Observe(ev)
		if exporters[i].Pending() >= batch {
			flush(i)
		}
	}
	flush(0)
	flush(1)
	for _, b := range wire {
		start := time.Now()
		_, err := core.DecodeDigest(b)
		c.decode += time.Since(start)
		if err != nil {
			return c, fmt.Errorf("digest round trip: %w", err)
		}
	}
	agg := coop.NewAggregator(coop.AggregatorConfig{})
	var last time.Duration
	if len(l) > 0 {
		last = l[len(l)-1].At
	}
	start := time.Now()
	for _, b := range wire {
		agg.HandleDigest(netip.AddrPort{}, b)
	}
	agg.Finalize(last + time.Second)
	c.merge = time.Since(start)
	if got := agg.Stats().EventsMerged; got != c.events {
		return c, fmt.Errorf("aggregator merged %d of %d events", got, c.events)
	}
	return c, nil
}
