package coop

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"scidive/internal/core"
	"scidive/internal/netsim"
)

// Cooperative self-alert rule names.
const (
	// RuleCoopDigestGap fires when evidence from a probe is known lost:
	// a hole in the digest sequence at finalization, or a probe
	// reporting events shed under its export budget. Lost evidence is a
	// visible event, never a silent blind spot.
	RuleCoopDigestGap = "coop-digest-gap"
)

// maxBufferedDigests bounds the out-of-order digests held per probe
// while waiting for a retransmission to fill a sequence hole.
const maxBufferedDigests = 4096

// AggregatorConfig configures an Aggregator.
type AggregatorConfig struct {
	// Host is the control-plane transport acknowledgements are sent
	// from. Nil runs the aggregator ack-less (offline merges, replay
	// tools, determinism tests feeding HandleDigest directly).
	Host *netsim.Host
	// Port is the control port acks are sent from (default DefaultPort).
	// The aggregator does not bind it — see Bind.
	Port uint16
	// Rules is the cross-point ruleset (nil = core.CrossPointRuleset()).
	Rules []core.Rule
	// Immediate feeds accepted events to the rule engine as digests
	// arrive (in per-probe sequence order), instead of buffering for the
	// deterministic merge at Finalize. Endpoint detectors use it: their
	// one cross-point rule is an absence pattern whose symmetric grace
	// window is arrival-order independent. Leave it false when
	// byte-identical alert streams across digest arrival orders matter.
	Immediate bool
}

// AggregatorStats counts an aggregator's control-plane activity.
type AggregatorStats struct {
	DigestsAccepted   int // in-sequence digests folded into the stream
	DigestsBuffered   int // out-of-order digests held for a hole
	DuplicatesDropped int // retransmissions of already-accepted digests
	CorruptDropped    int // frames that failed digest decoding
	EventsMerged      int // events accepted across all probes
}

// mergedEvent is one accepted event with its provenance, the sort key of
// the deterministic merge.
type mergedEvent struct {
	ev    core.Event
	point string
	seq   uint64
	idx   int
}

// Aggregator is the fusion side of the cooperative layer: it receives
// digest streams from many probes, tracks per-probe sequence cursors
// (acking what it has, dropping duplicates, buffering past holes), and
// feeds the merged multi-point event stream to a standard rule engine
// running cross-point rules.
type Aggregator struct {
	cfg   AggregatorConfig
	rules *core.RuleEngine

	// nextSeq is the next expected digest sequence per probe point
	// (missing entry = 1).
	nextSeq map[string]uint64
	// buffered holds out-of-order digests per point awaiting the
	// retransmission that fills the hole.
	buffered map[string]map[uint64]*core.Digest
	// probeDropped is the last budget-shed count each probe reported.
	probeDropped map[string]uint64
	// pending accumulates accepted events until Finalize (merge mode).
	pending   []mergedEvent
	finalized bool

	onDigest func(*core.Digest)
	stats    AggregatorStats
}

// NewAggregator builds an aggregator. It does not bind the control port —
// call Bind (or deliver digests to HandleDigest yourself).
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if cfg.Port == 0 {
		cfg.Port = DefaultPort
	}
	if cfg.Rules == nil {
		cfg.Rules = core.CrossPointRuleset()
	}
	return &Aggregator{
		cfg:          cfg,
		rules:        core.NewRuleEngine(cfg.Rules),
		nextSeq:      make(map[string]uint64),
		buffered:     make(map[string]map[uint64]*core.Digest),
		probeDropped: make(map[string]uint64),
	}
}

// RuleEngine exposes the cross-point matcher (inspection, reload).
func (a *Aggregator) RuleEngine() *core.RuleEngine { return a.rules }

// Stats returns the control-plane counters.
func (a *Aggregator) Stats() AggregatorStats { return a.stats }

// Points lists the probe points the aggregator has accepted digests
// from, in no particular order.
func (a *Aggregator) Points() []string {
	pts := make([]string, 0, len(a.nextSeq))
	for pt := range a.nextSeq {
		pts = append(pts, pt)
	}
	return pts
}

// Alerts returns all cross-point alerts raised so far.
func (a *Aggregator) Alerts() []core.Alert { return a.rules.Alerts() }

// AlertsFor returns cross-point alerts for one rule.
func (a *Aggregator) AlertsFor(rule string) []core.Alert { return a.rules.AlertsFor(rule) }

// OnDigest registers a callback invoked for each accepted digest, after
// its events are merged (detectors use it to mirror peer activity).
func (a *Aggregator) OnDigest(fn func(*core.Digest)) { a.onDigest = fn }

// HandleDigest processes one digest frame from a probe: decode, sequence
// bookkeeping, merge, acknowledge.
func (a *Aggregator) HandleDigest(src netip.AddrPort, payload []byte) {
	d, err := core.DecodeDigest(payload)
	if err != nil {
		a.stats.CorruptDropped++
		return
	}
	next := a.cursor(d.Point)
	switch {
	case d.Seq < next:
		// A retransmission of something already accepted: re-ack so the
		// probe stops resending.
		a.stats.DuplicatesDropped++
		a.ack(src, d.Point)
		return
	case d.Seq > next:
		// Past a hole: hold for the retransmission, re-ack the cursor.
		buf := a.buffered[d.Point]
		if buf == nil {
			buf = make(map[uint64]*core.Digest)
			a.buffered[d.Point] = buf
		}
		if _, held := buf[d.Seq]; !held && len(buf) < maxBufferedDigests {
			buf[d.Seq] = d
			a.stats.DigestsBuffered++
		} else {
			a.stats.DuplicatesDropped++
		}
		a.ack(src, d.Point)
		return
	}
	a.accept(d)
	// The hole may have been the only thing blocking buffered
	// successors.
	for {
		nd, ok := a.buffered[d.Point][a.cursor(d.Point)]
		if !ok {
			break
		}
		delete(a.buffered[d.Point], nd.Seq)
		a.accept(nd)
	}
	a.ack(src, d.Point)
}

// cursor returns the next expected sequence for a point.
func (a *Aggregator) cursor(point string) uint64 {
	if n, ok := a.nextSeq[point]; ok {
		return n
	}
	return 1
}

// accept folds one in-sequence digest into the merged stream.
func (a *Aggregator) accept(d *core.Digest) {
	a.nextSeq[d.Point] = d.Seq + 1
	a.stats.DigestsAccepted++
	if d.Dropped > a.probeDropped[d.Point] {
		shed := d.Dropped - a.probeDropped[d.Point]
		a.probeDropped[d.Point] = d.Dropped
		a.rules.RaiseSynthetic(core.Alert{
			At: a.lastEventAt(d), Rule: RuleCoopDigestGap, Severity: core.SeverityWarning,
			Session: d.Point,
			Detail:  fmt.Sprintf("probe %s shed %d event(s) under its export budget", d.Point, shed),
		})
	}
	for i, ev := range d.Events {
		a.stats.EventsMerged++
		if a.cfg.Immediate {
			a.rules.Feed(ev)
		} else {
			a.pending = append(a.pending, mergedEvent{ev: ev, point: d.Point, seq: d.Seq, idx: i})
		}
	}
	if a.onDigest != nil {
		a.onDigest(d)
	}
}

func (a *Aggregator) lastEventAt(d *core.Digest) time.Duration {
	if len(d.Events) == 0 {
		return 0
	}
	return d.Events[len(d.Events)-1].At
}

// Feed offers one locally observed event (not digest-carried) to the
// cross-point matcher — the endpoint detector's path for its own
// vantage. In merge mode the event is buffered like digest events, under
// its Point with no sequence.
func (a *Aggregator) Feed(ev core.Event) []core.Alert {
	if a.cfg.Immediate {
		return a.rules.Feed(ev)
	}
	a.pending = append(a.pending, mergedEvent{ev: ev, point: ev.Point})
	return nil
}

// Flush advances the rule engine's clock (maturing absence-rule
// pendings) without feeding an event. Immediate-mode owners call it
// after the correlation grace; merge-mode owners get it from Finalize.
func (a *Aggregator) Flush(now time.Duration) []core.Alert { return a.rules.Flush(now) }

// Finalize closes the merge: any sequence holes still open become
// digest-gap self-alerts (the buffered post-hole digests are then
// accepted — late evidence is still evidence), the accepted events are
// sorted into the canonical cross-point order — (time, point, sequence,
// intra-digest index), independent of arrival interleaving — and fed to
// the rule engine, whose clock is finally advanced to now. Calling
// Finalize again is a no-op returning nil.
func (a *Aggregator) Finalize(now time.Duration) []core.Alert {
	if a.finalized {
		return nil
	}
	a.finalized = true
	points := make([]string, 0, len(a.buffered))
	for pt, buf := range a.buffered {
		if len(buf) > 0 {
			points = append(points, pt)
		}
	}
	sort.Strings(points)
	for _, pt := range points {
		buf := a.buffered[pt]
		seqs := make([]uint64, 0, len(buf))
		for s := range buf {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		lost := 0
		cursor := a.cursor(pt)
		for _, s := range seqs {
			lost += int(s - cursor)
			d := buf[s]
			delete(buf, s)
			a.accept(d)
			cursor = s + 1
		}
		a.rules.RaiseSynthetic(core.Alert{
			At: now, Rule: RuleCoopDigestGap, Severity: core.SeverityWarning,
			Session: pt,
			Detail:  fmt.Sprintf("%d digest(s) from probe %s lost (sequence holes at finalization)", lost, pt),
		})
	}
	var fired []core.Alert
	if !a.cfg.Immediate {
		sort.SliceStable(a.pending, func(i, j int) bool {
			x, y := a.pending[i], a.pending[j]
			if x.ev.At != y.ev.At {
				return x.ev.At < y.ev.At
			}
			if x.point != y.point {
				return x.point < y.point
			}
			if x.seq != y.seq {
				return x.seq < y.seq
			}
			return x.idx < y.idx
		})
		for _, me := range a.pending {
			fired = append(fired, a.rules.Feed(me.ev)...)
		}
		a.pending = nil
	}
	fired = append(fired, a.rules.Flush(now)...)
	return fired
}

// ack sends a cumulative acknowledgement for a probe's stream.
func (a *Aggregator) ack(src netip.AddrPort, point string) {
	if a.cfg.Host == nil {
		return
	}
	_ = a.cfg.Host.SendUDP(a.cfg.Port, src, core.EncodeDigestAck(point, a.cursor(point)-1))
}

// --- checkpoint ---

const (
	aggCkptMagic   = "SCAG"
	aggCkptVersion = 1
)

// aggState is the aggregator checkpoint's record: per-probe sequence
// cursors and shed counters in point order, the finalized flag, the
// un-finalized merge buffer, and the rule engine as a SnapshotRuleEngine
// blob.
type aggState struct {
	points    []pointCursor
	finalized bool
	pending   []mergedEvent
	rules     []byte
}

type pointCursor struct {
	point         string
	next, dropped uint64
}

func walkAggState(w *core.WireCodec, s *aggState) {
	core.WireSeq(w, &s.points, func(w *core.WireCodec, p *pointCursor) {
		w.Str(&p.point)
		w.U64(&p.next)
		w.U64(&p.dropped)
	})
	w.Bool(&s.finalized)
	core.WireSeq(w, &s.pending, func(w *core.WireCodec, me *mergedEvent) {
		w.Event(&me.ev)
		w.Str(&me.point)
		w.U64(&me.seq)
		w.Int(&me.idx)
	})
	w.Bytes(&s.rules)
}

// Snapshot serializes the aggregator's accepted state — per-probe
// sequence cursors, shed counters, the un-finalized merge buffer, and
// the rule engine (partials, pending absences, alerts) — through the
// engine checkpoint codec. Out-of-order digests buffered past a hole
// are transport state and deliberately not captured: after a restore
// the probes' retransmission machinery re-delivers anything unacked.
func (a *Aggregator) Snapshot() []byte {
	s := aggState{finalized: a.finalized, pending: a.pending, rules: core.SnapshotRuleEngine(a.rules)}
	for pt, next := range a.nextSeq {
		s.points = append(s.points, pointCursor{point: pt, next: next, dropped: a.probeDropped[pt]})
	}
	sort.Slice(s.points, func(i, j int) bool { return s.points[i].point < s.points[j].point })
	w := core.NewWireCodec(aggCkptMagic, aggCkptVersion)
	walkAggState(w, &s)
	return w.Seal()
}

// Restore installs a Snapshot into an aggregator configured with the
// same ruleset. Decoding is all-or-nothing: any corruption (or a
// ruleset mismatch) leaves the aggregator untouched.
func (a *Aggregator) Restore(data []byte) error {
	w, err := core.OpenWireCodec(data, aggCkptMagic, aggCkptVersion, "aggregator checkpoint")
	if err != nil {
		return err
	}
	var s aggState
	walkAggState(w, &s)
	if err := w.Close("aggregator checkpoint"); err != nil {
		return err
	}
	fresh := core.NewRuleEngine(a.cfg.Rules)
	if err := core.RestoreRuleEngine(fresh, s.rules); err != nil {
		return err
	}
	a.nextSeq = make(map[string]uint64, len(s.points))
	a.probeDropped = make(map[string]uint64, len(s.points))
	for _, p := range s.points {
		a.nextSeq[p.point] = p.next
		a.probeDropped[p.point] = p.dropped
	}
	a.finalized = s.finalized
	a.pending = s.pending
	a.buffered = make(map[string]map[uint64]*core.Digest)
	a.rules = fresh
	return nil
}

// WriteCheckpoint atomically persists a Snapshot to path, through the
// same tmp-and-rename path engine checkpoints use.
func (a *Aggregator) WriteCheckpoint(path string) error {
	return core.WriteCheckpoint(path, a.Snapshot())
}
