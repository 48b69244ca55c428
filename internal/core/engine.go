package core

import (
	"fmt"
	"time"

	"scidive/internal/capture"
	"scidive/internal/netsim"
	"scidive/internal/packet"
)

// EngineStats counts end-to-end IDS activity. The overload and eviction
// counters make degradation under load observable: every frame shed and
// every entry evicted to respect a Limits cap is accounted here, never
// dropped silently.
type EngineStats struct {
	Frames          int
	Footprints      int
	Events          int
	Alerts          int
	SessionsEvicted int

	// FramesAfterClose counts HandleFrame calls arriving after Close
	// (sharded engine only; the serial engine has no Close).
	FramesAfterClose int
	// FramesShed counts frames the sharded engine dropped: by its
	// load-shedding policy (ShedAfter), or because the owning shard was
	// quarantined. BatchesShed counts ShedAfter timeouts only, one per
	// batch that waited them out; a quarantined shard's losses are frames,
	// whatever batches they arrived in.
	FramesShed  int
	BatchesShed int
	// Per-category Limits evictions (see Limits for each cap's policy).
	SessionsCapEvicted int
	FragGroupsEvicted  int
	StreamsEvicted     int
	IMHistoriesEvicted int
	SeqTrackersEvicted int
	BindingsEvicted    int
	AlertsEvicted      int
	EventsEvicted      int
	// ShardsFailed counts shards quarantined after a panic or a watchdog
	// stall; ShardsRestarted counts fresh-state restarts of failed shards.
	ShardsFailed    int
	ShardsRestarted int
}

// Config configures an Engine.
type Config struct {
	// Gen tunes the Event Generator.
	Gen GenConfig
	// Correlators is the protocol-correlator registry, in dispatch order
	// (nil = DefaultCorrelators). Port classification, routing and event
	// generation all derive from it.
	Correlators []Registration
	// Rules is the ruleset (nil = DefaultRuleset).
	Rules []Rule
	// MaxTrailLen clamps each trail's footprint count (default 4096). A
	// trail is a counter, so the bound costs no memory.
	MaxTrailLen int
	// SessionTimeout evicts per-session state and trails idle this long
	// (default 10 minutes; the paper notes memory is the practical bound
	// on how far apart correlated packets may be).
	SessionTimeout time.Duration
	// Limits is the state budget (zero value = unbounded, the historic
	// behavior).
	Limits Limits
	// IngestRouters is how many parallel ingest routers the sharded
	// engine fans capture decode across (<= 1 keeps the single
	// synchronous router; see ingest.go for the determinism argument).
	// The serial engine ignores it. Checkpoints record the width for
	// inspection only: portable checkpoints restore at any
	// shards x ingesters geometry.
	IngestRouters int
}

// Engine is a deployed SCIDIVE instance: Distiller -> Trails -> Event
// Generator -> Rule Matching Engine -> Alerts.
type Engine struct {
	cfg       Config
	distiller *Distiller
	trails    *TrailStore
	gen       *EventGenerator
	rules     *RuleEngine
	stats     EngineStats
	events    []Event
	keepLog   bool
	onEvent   func(Event)
	faults    FaultInjector

	// view and evScratch are the per-frame scratch of the hot path: the
	// frame is decoded into view in place and completed events accumulate
	// in evScratch, which is truncated (not freed) between frames. Both
	// are engine-owned, so a steady-state frame that completes no event
	// touches the heap zero times.
	view      FrameView
	evScratch []Event
}

// EngineOption customizes engine construction.
type EngineOption func(*Engine)

// WithEventLog makes the engine retain every generated event (for
// experiment reporting; costs memory on long runs).
func WithEventLog() EngineOption {
	return func(e *Engine) { e.keepLog = true }
}

// NewEngine builds an IDS instance.
func NewEngine(cfg Config, opts ...EngineOption) *Engine {
	if cfg.MaxTrailLen == 0 {
		cfg.MaxTrailLen = 4096
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 10 * time.Minute
	}
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRuleset()
	}
	trails := NewTrailStore(cfg.MaxTrailLen)
	// One correlator set serves the whole pipeline: the distiller asks it
	// for port claims, the generator dispatches footprints to it.
	correlators := buildCorrelators(cfg.Correlators, cfg.Gen.withDefaults())
	e := &Engine{
		cfg:       cfg,
		distiller: NewDistillerFor(correlators),
		trails:    trails,
		gen:       newEventGeneratorFrom(cfg.Gen, trails, correlators),
		rules:     NewRuleEngine(rules),
	}
	e.distiller.reasm.SetLimit(cfg.Limits.MaxFragGroups)
	e.gen.SetLimits(cfg.Limits)
	e.gen.rules = e.rules
	e.rules.maxAlerts = cfg.Limits.MaxRetainedAlerts
	// Router-state mirrors: the serial engine tracks the sticky routing
	// keys and in-progress fragment-group frames the sharded router would,
	// so its portable checkpoints restore at any shard count. Shard-local
	// engines (newShardEngine) drop both — the router owns that state.
	e.gen.sticky = make(map[string]string)
	e.distiller.frags = newFragGroups()
	e.distiller.reasm.OnEvict(e.distiller.frags.drop)
	// Stream-transport demux (serial engine only, like sticky/frags above:
	// the sharded router owns the only mux at shard counts > 0). Capacity
	// evictions lose mid-message reassembly state, so each raises an
	// ids-overload self-alert exactly as the sharded router does.
	e.distiller.streams = newStreamMux()
	e.distiller.streams.sniff = e.distiller.dec.ladder.tunnelSniff
	e.distiller.streams.reasm.SetLimit(cfg.Limits.MaxStreams)
	e.distiller.streams.onEvict = func(id packet.StreamID, at time.Duration) {
		e.rules.raiseSynthetic(Alert{
			At: at, Rule: RuleIDSOverload, Severity: SeverityCritical, Session: "streams",
			Detail: "tcp stream reassembly state evicted to respect MaxStreams (possible mid-message loss)",
			Count:  1,
		})
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// ReloadRules swaps the active ruleset at a frame boundary (rules hot
// reload). In-flight partial matches are carried forward for rules whose
// canonical text is unchanged and dropped for removed or edited rules;
// the returned count is how many partials were dropped. nil installs
// DefaultRuleset. The error is always nil for the serial engine (the
// signature matches ShardedEngine.ReloadRules, which can fail after
// Close). Like Snapshot, it must not run concurrently with HandleFrame.
func (e *Engine) ReloadRules(rules []Rule) (int, error) {
	if rules == nil {
		rules = DefaultRuleset()
	}
	dropped := e.rules.reload(rules)
	e.cfg.Rules = rules
	if dropped > 0 {
		e.rules.raiseSynthetic(Alert{
			At: 0, Rule: RuleRuleReload, Severity: SeverityCritical, Session: "rules",
			Detail: fmt.Sprintf("ruleset reloaded: %d in-flight partial matches dropped (rules removed or edited)", dropped),
			Count:  1,
		})
	}
	return dropped, nil
}

// Stats returns a snapshot of the engine counters, folding in the
// eviction counts kept by the pipeline stages.
func (e *Engine) Stats() EngineStats {
	var st EngineStats
	e.statsInto(&st)
	return st
}

// statsInto is Stats writing into a caller-owned struct: a shard worker
// fills its own field once per batch, which allocates nothing (a local
// escapes through the budgeted correlators' interface).
func (e *Engine) statsInto(st *EngineStats) {
	*st = e.stats
	st.SessionsCapEvicted = e.gen.ctx.evictedSessions
	st.BindingsEvicted = e.gen.ctx.evictedBindings
	for _, c := range e.gen.correlators {
		if b, ok := c.(budgeted); ok {
			b.contributeStats(st)
		}
	}
	if e.distiller.reasm != nil { // a shard's distiller reassembles nothing: the router does
		st.FragGroupsEvicted = e.distiller.reasm.CapacityEvicted()
		st.StreamsEvicted = e.distiller.streams.reasm.CapacityEvicted()
	}
	st.AlertsEvicted = e.rules.evicted
}

// DistillerStats returns the distiller's classification counters,
// including the Mismatched count of content-confirmed reclassifications
// (see DistillerStats for the conservation ledger they satisfy).
func (e *Engine) DistillerStats() DistillerStats { return e.distiller.stats }

// Trails exposes the trail store: per-session, per-protocol footprint
// counts, for reports.
func (e *Engine) Trails() *TrailStore { return e.trails }

// Generator exposes the event generator (for binding inspection).
func (e *Engine) Generator() *EventGenerator { return e.gen }

// Alerts returns all alerts raised so far.
func (e *Engine) Alerts() []Alert { return e.rules.Alerts() }

// AlertsFor returns alerts raised by one rule.
func (e *Engine) AlertsFor(rule string) []Alert { return e.rules.AlertsFor(rule) }

// OnAlert registers a callback for new alerts.
func (e *Engine) OnAlert(fn func(Alert)) { e.rules.OnAlert(fn) }

// OnEvent registers a callback invoked for every generated event, in
// emission order, after the event is logged and before rule matching.
// This is the cooperative layer's export surface: a probe attaches an
// Exporter here to select events for its aggregator. The callback runs
// on the frame-processing path — keep it cheap and non-blocking.
func (e *Engine) OnEvent(fn func(Event)) { e.onEvent = fn }

// FlushRules advances the rule engine's clock to now without feeding an
// event, maturing any absence-rule completions whose grace window has
// passed (see RuleEngine.Flush). Returns the alerts raised.
func (e *Engine) FlushRules(now time.Duration) []Alert {
	alerts := e.rules.Flush(now)
	e.stats.Alerts += len(alerts)
	return alerts
}

// Events returns the retained event log (empty unless WithEventLog).
func (e *Engine) Events() []Event { return append([]Event(nil), e.events...) }

// gcEvery is how many frames pass between session-expiry sweeps.
const gcEvery = 4096

// HandleFrame processes one observed frame. It is netsim.Tap compatible.
func (e *Engine) HandleFrame(at time.Duration, frame []byte) {
	e.stats.Frames++
	if e.stats.Frames%gcEvery == 0 {
		e.stats.SessionsEvicted += e.gen.ExpireSessions(at, e.cfg.SessionTimeout)
	}
	if e.distiller.DistillView(at, frame, &e.view) {
		e.processView()
	}
	// Stream-carried messages: a TCP frame produces no view above, but may
	// have completed any number of framed SIP messages; each is a
	// footprint of its own. The loop's guard is a cheap queue check, so
	// the datagram fast path stays allocation-free.
	for e.distiller.NextStreamMessage(&e.view) {
		e.processView()
	}
}

// processView runs the distilled view through the event generator and
// feeds the events it completes to the rule engine.
func (e *Engine) processView() {
	e.stats.Footprints++
	e.evScratch = e.evScratch[:0]
	e.gen.ProcessView(&e.view, RouteHints{}, &e.evScratch)
	for _, ev := range e.evScratch {
		e.stats.Events++
		e.logEvent(ev)
		if e.onEvent != nil {
			e.onEvent(ev)
		}
		alerts := e.rules.Feed(ev)
		e.stats.Alerts += len(alerts)
	}
}

// logEvent appends ev to the retained log (when WithEventLog is on),
// evicting the oldest entry to respect MaxRetainedEvents.
func (e *Engine) logEvent(ev Event) {
	if !e.keepLog {
		return
	}
	limit := e.cfg.Limits.MaxRetainedEvents
	if limit > 0 && len(e.events) >= limit {
		// Slide the window past the oldest entries (amortized O(1), see
		// appendWindow) and clear them so they release their strings.
		drop := len(e.events) - limit + 1
		clear(e.events[:drop])
		e.events = e.events[drop:]
		e.stats.EventsEvicted += drop
	}
	e.events = appendWindow(e.events, ev, limit)
}

// AttachTap subscribes the engine to all hub traffic of a network,
// mirroring the paper's Figure 4 deployment.
func (e *Engine) AttachTap(n *netsim.Network) {
	n.AddTap(e.HandleFrame)
}

// ReplayCapture feeds a recorded SCAP capture through the engine.
func (e *Engine) ReplayCapture(r *capture.Reader) error {
	if err := capture.Replay(r, e.HandleFrame); err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	return nil
}
