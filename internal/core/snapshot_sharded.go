package core

import (
	"fmt"
	"strings"
	"time"
)

// Sharded checkpoint/restore over the portable, session-keyed format. A
// sharded snapshot is a coordinated quiescent-point capture folded into
// the same global layout the serial engine writes: a snapshot marker is
// enqueued to every shard behind all pending work (the consistent cut),
// each worker exports its pipeline body, and the writer folds those
// bodies in memory into one global engine body — one folded stats block, the
// union of the per-shard session tables, trails and partial matches, the
// merged alert/event streams (in merge-tag order, exactly what Alerts()
// and Events() return), the merged or router-owned correlator state, plus
// the router's own routing directory (sticky pins) and buffered fragment
// groups. Because the body is keyed by session, restore re-routes every
// session through the restoring engine's router config: a checkpoint
// captured at one shards × ingest geometry resumes at any other, or on
// the serial engine, with identical outputs.
//
// Like Snapshot/RestoreSnapshot on the serial engine, neither may run
// concurrently with HandleFrame or Close.

// workerRestore is one shard's slice of a portable checkpoint, fully
// decoded against that shard's fresh engine and ready to install. It
// travels to the worker goroutine via an itemRestore marker (the channel
// send orders the install before any subsequent work).
type workerRestore struct {
	engine    *engineSnap
	alertTags []mergeTag
	eventTags []mergeTag
}

// isSelfRule reports whether an alert was raised by the sharded engine's
// self-monitoring (router-side) rather than a shard's rule engine; restore
// routes these back to the router's self-alert list instead of a shard.
func isSelfRule(name string) bool {
	switch name {
	case RuleIDSOverload, RuleShardFailure, RuleShardStateLoss, RuleRuleReload:
		return true
	}
	return false
}

// addDistillerStats sums two distiller stat snapshots field by field.
func addDistillerStats(a, b DistillerStats) DistillerStats {
	a.Frames += b.Frames
	a.Fragments += b.Fragments
	a.DecodeError += b.DecodeError
	a.SIP += b.SIP
	a.RTP += b.RTP
	a.RTCP += b.RTCP
	a.Acct += b.Acct
	a.Raw += b.Raw
	a.Ignored += b.Ignored
	a.Mismatched += b.Mismatched
	a.Streamed += b.Streamed
	a.StreamMsgs += b.StreamMsgs
	return a
}

// snapshotWorker exports the worker's engine body (runs on the worker
// goroutine, after publish, at the marker's consistent cut) and refreshes
// the warm-restart cache from it. The body aliases the live engine; the
// worker stays idle until Snapshot has folded it, because Snapshot never
// runs concurrently with HandleFrame.
func (w *shardWorker) snapshotWorker() *rawEngineBody {
	body := w.eng.exportBody(w.eng.stats)
	w.lastEngineSnap = encodeBody(body)
	return &body
}

// installRestore installs one shard's slice of a portable checkpoint
// (runs on the worker goroutine; the channel send that delivered it
// orders the install before any post-restore work). Decode already
// validated everything, so this cannot fail. The reinstated outputs carry
// position tags (frame 0, global ordinal) so the merged streams reproduce
// the capture-time order ahead of anything the resumed run appends.
func (w *shardWorker) installRestore(p *workerRestore) {
	w.eng.installSnap(p.engine, true)
	w.lastEngineSnap = w.eng.bodyBytes()
	w.alertTags = append(w.alertTags[:0], p.alertTags...)
	w.eventTags = append(w.eventTags[:0], p.eventTags...)
	w.trimmedA, w.trimmedE = 0, 0
	w.faultSeq = 0
	w.base = shardResults{}
	w.resMu.Lock()
	w.pubVer = -1 // force the alert rebuild on the publish below
	w.pubEvict = 0
	w.pub = shardResults{}
	w.resMu.Unlock()
	w.publish()
	w.publishTrails()
}

// header returns the sharded engine's snapshot identity. The geometry
// fields are informational only (see validateSnapHeader); the rules hash
// tracks the live (possibly hot-reloaded) ruleset.
func (s *ShardedEngine) header() snapHeader {
	return snapHeader{
		engineKind:  snapKindSharded,
		shards:      uint32(len(s.workers)),
		ingesters:   uint32(s.ingesters),
		frames:      s.frames.Load(),
		configHash:  configFingerprint(s.cfg, s.keepLog),
		rulesHash:   rulesFingerprint(*s.liveRules.Load()),
		correlators: correlatorNames(s.correlators),
	}
}

// Snapshot captures the whole sharded pipeline at a quiescent point into
// a portable, session-keyed checkpoint. It flushes all queued work, takes
// the merged output views, enqueues a snapshot marker to every shard
// behind anything still pending (the consistent cut) while serializing
// the router's own state under the routing lock, then folds the per-shard
// bodies into one global engine body. Must not run concurrently with
// HandleFrame or Close.
//
// Shards quarantined as panicked or stalled ack the marker through their
// drain path without serializing: their published alerts, events and
// stats survive (they are part of the merged views) but their private
// detection state and distiller counters are not captured — a degraded
// but well-formed checkpoint, mirroring the quarantine's own data loss.
func (s *ShardedEngine) Snapshot() ([]byte, error) {
	// Merged output views first (each flushes). Snapshot never runs
	// concurrently with HandleFrame, so the pipeline cannot advance
	// between these reads and the markers below.
	alerts := s.Alerts()
	events := s.Events()
	folded := s.Stats()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: snapshot: engine is closed")
	}
	marks := s.markAllLocked(itemSnapshot, nil)
	streams := s.reasm.ExportStreams()
	// Router correlator state, position-indexed over the snapshotters.
	// Router-authoritative correlators (their hinter state judges every
	// frame here in global order) keep the router instance's blob;
	// stateSharder correlators are worker-resident, so theirs is replaced
	// below by the merge of the per-shard blobs.
	routerCorrs := exportCorrelators(s.correlators)
	tail := exportRouter(s.sticky, &s.frags, s.streams)
	s.mu.Unlock()
	s.awaitAll(marks)
	body := rawEngineBody{
		stats:           folded,
		dstats:          s.resumedDstats,
		streams:         streams,
		reasmEvicted:    folded.FragGroupsEvicted,
		evictedSessions: folded.SessionsCapEvicted,
		evictedBindings: folded.BindingsEvicted,
	}
	workerCorr := make(map[string][][]byte)
	lastSeen := make(map[string]time.Duration)
	bestClock := -1
	for i := range s.workers {
		wb := marks[i].body
		if wb == nil {
			// Quarantined or stalled shard: degraded capture (see doc).
			continue
		}
		body.dstats = addDistillerStats(body.dstats, wb.dstats)
		body.trails = append(body.trails, wb.trails...)
		body.index.sessions = append(body.index.sessions, wb.index.sessions...)
		body.index.pendingReg = append(body.index.pendingReg, wb.index.pendingReg...)
		body.rules.partials = append(body.rules.partials, wb.rules.partials...)
		body.rules.pendings = append(body.rules.pendings, wb.rules.pendings...)
		for _, l := range wb.rules.lastAbsent {
			if at, seen := lastSeen[l.key]; !seen || l.at > at {
				lastSeen[l.key] = l.at
			}
		}
		// Bindings are replicated to every shard and age identically;
		// take the most advanced replica (highest binding clock).
		if wb.bindingClock > bestClock {
			bestClock = wb.bindingClock
			body.bindings = wb.bindings
			body.bindingClock = wb.bindingClock
		}
		for _, cb := range wb.corrs {
			workerCorr[cb.name] = append(workerCorr[cb.name], cb.blob)
		}
	}
	body.corrs = routerCorrs
	for i, c := range snapshotters(s.correlators) {
		sh, ok := c.(stateSharder)
		if !ok {
			continue
		}
		merged, err := sh.mergeState(workerCorr[c.Name()])
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: correlator %s: %w", c.Name(), err)
		}
		body.corrs[i].blob = merged
	}
	// The global rule-engine section: the merged alert stream (unique per
	// rule|session, counts summed) with a dedup entry per retained alert,
	// offset by the folded eviction count so the pointer validation and
	// O(1) eviction arithmetic hold after a serial restore. The version is
	// a deterministic function of the same counters (every raise bumps it
	// once, suppressed repeats included), so re-snapshotting an idle
	// reinstated engine reproduces it.
	body.rules.alerts = alerts
	body.rules.dedupBase = folded.AlertsEvicted
	body.rules.evicted = folded.AlertsEvicted
	body.rules.eventsSeen = folded.Events
	version := folded.AlertsEvicted
	for gi, a := range alerts {
		body.rules.dedup = append(body.rules.dedup, dedupEntry{key: a.Rule + "|" + a.Session, idx: gi + folded.AlertsEvicted})
		version += a.Count
	}
	body.rules.version = version
	for k, at := range lastSeen {
		body.rules.lastAbsent = append(body.rules.lastAbsent, lastEntry{key: k, at: at})
	}
	body.events = events
	return encodeCheckpoint(s.header(), body, tail), nil
}

// RestoreSnapshot rebuilds the whole sharded pipeline from a portable
// checkpoint written by either engine kind at any geometry. The engine
// must be fresh (no frames routed); correlator set, ruleset and config
// are validated against the header with descriptive errors — engine
// kind, shard count and ingest width are not, because the session-keyed
// body re-routes through this engine's own router: every session's
// trails, directory entries, partial matches, alerts and events are
// split across the current shards by the same sticky-pinned routing keys
// the router will use for the resumed traffic. The entire checkpoint is
// decoded and validated before anything installs, so a corrupt
// checkpoint leaves the engine untouched. Every shard comes back
// healthy.
func (s *ShardedEngine) RestoreSnapshot(data []byte) error {
	if n := s.frames.Load(); n != 0 {
		return fmt.Errorf("core: restore requires a fresh engine (this one already routed %d frames)", n)
	}
	h, body, tail, err := decodeCheckpoint(data, s.header(), *s.liveRules.Load())
	if err != nil {
		return err
	}
	n := len(s.workers)
	sticky := make(map[string]string, len(tail.sticky))
	tail.stickyMap(sticky)
	// shardFor re-routes a session through this engine's geometry: the
	// pinned routing key when the dialog has one, else the session key
	// itself (exactly what the router hashes for non-pinned traffic).
	shardFor := func(session string) int {
		if rk, ok := sticky[session]; ok {
			return shardOf(rk, n)
		}
		return shardOf(session, n)
	}
	shards := make([]rawEngineBody, n)
	for j := range shards {
		// Bindings are replicated in full to every shard, as the router
		// replicates live registrations. Stats and eviction counters stay
		// zero: the folded history lives in resumedStats below, and the
		// shards re-count only what happens after the resume.
		shards[j].bindings = body.bindings
		shards[j].bindingClock = body.bindingClock
	}
	for _, t := range body.trails {
		j := shardFor(t.session)
		shards[j].trails = append(shards[j].trails, t)
	}
	for _, sess := range body.index.sessions {
		j := shardFor(sess.st.callID)
		shards[j].index.sessions = append(shards[j].index.sessions, sess)
	}
	for _, reg := range body.index.pendingReg {
		j := shardFor(reg[0])
		shards[j].index.pendingReg = append(shards[j].index.pendingReg, reg)
	}
	for _, g := range body.rules.partials {
		j := shardFor(g.session)
		shards[j].rules.partials = append(shards[j].rules.partials, g)
	}
	// Absence machinery travels with its correlation key (the part of
	// rule|key after the separator), exactly as partials travel with
	// their session.
	for _, g := range body.rules.pendings {
		_, ck, _ := strings.Cut(g.key, "|")
		j := shardFor(ck)
		shards[j].rules.pendings = append(shards[j].rules.pendings, g)
	}
	for _, l := range body.rules.lastAbsent {
		_, ck, _ := strings.Cut(l.key, "|")
		j := shardFor(ck)
		shards[j].rules.lastAbsent = append(shards[j].rules.lastAbsent, l)
	}
	// Split the merged output streams. Position tags (frame 0, global
	// ordinal) keep the merged order identical to the capture; self-
	// monitoring alerts return to the router's self-alert list.
	var selfAlerts []Alert
	var selfTags []mergeTag
	alertTags := make([][]mergeTag, n)
	for gi, a := range body.rules.alerts {
		if isSelfRule(a.Rule) {
			selfAlerts = append(selfAlerts, a)
			selfTags = append(selfTags, mergeTag{idx: 0, sub: gi})
			continue
		}
		j := shardFor(a.Session)
		shards[j].rules.alerts = append(shards[j].rules.alerts, a)
		alertTags[j] = append(alertTags[j], mergeTag{idx: 0, sub: gi})
	}
	for j := range shards {
		rs := &shards[j].rules
		for i, a := range rs.alerts {
			rs.dedup = append(rs.dedup, dedupEntry{key: a.Rule + "|" + a.Session, idx: i})
		}
		rs.version = len(rs.alerts)
	}
	eventTags := make([][]mergeTag, n)
	for gi, ev := range body.events {
		j := shardFor(ev.Session)
		shards[j].events = append(shards[j].events, ev)
		eventTags[j] = append(eventTags[j], mergeTag{idx: 0, sub: gi})
	}
	// Correlator state. stateSharder blobs are filtered down to each
	// shard's keep set (the same routing keys the router pins); the rest
	// install onto the router's instances, with each shard receiving a
	// freshly serialized empty state — worker instances of router-
	// authoritative correlators never accumulate state (verdicts arrive
	// as RouteHints), so empty is exactly what an uninterrupted run holds.
	snaps := snapshotters(s.correlators)
	if len(body.corrs) != len(snaps) {
		return fmt.Errorf("core: snapshot holds %d correlator states; engine has %d stateful correlators", len(body.corrs), len(snaps))
	}
	var routerInstalls []func()
	var emptySnaps []Correlator
	for ci, c := range snaps {
		cb := body.corrs[ci]
		if cb.name != c.Name() {
			return fmt.Errorf("core: snapshot correlator state %q does not match engine correlator %q", cb.name, c.Name())
		}
		if sh, ok := c.(stateSharder); ok {
			for j := range shards {
				keepShard := j
				filtered, err := sh.filterState(cb.blob, func(rk string) bool { return shardOf(rk, n) == keepShard })
				if err != nil {
					return fmt.Errorf("core: snapshot corrupt (correlator %s: %v)", c.Name(), err)
				}
				shards[j].corrs = append(shards[j].corrs, corrBlob{name: cb.name, blob: filtered})
			}
			continue
		}
		install, err := decodeCorrBlob(c, cb.blob)
		if err != nil {
			return err
		}
		routerInstalls = append(routerInstalls, install)
		if emptySnaps == nil {
			emptySnaps = snapshotters(buildCorrelators(s.cfg.Correlators, s.gen))
		}
		empty := encodeCorrState(emptySnaps[ci])
		for j := range shards {
			shards[j].corrs = append(shards[j].corrs, corrBlob{name: cb.name, blob: empty})
		}
	}
	// Bind every shard's slice to its (fresh, quiescent) engine before
	// anything installs. The caller may touch the worker engines here:
	// restore requires a fresh engine and never runs concurrently with
	// HandleFrame, so the workers are idle.
	restores := make([]*workerRestore, n)
	for j := range shards {
		snap, err := s.workers[j].eng.bindBody(shards[j])
		if err != nil {
			return fmt.Errorf("core: restore: shard %d: %w", j, err)
		}
		restores[j] = &workerRestore{engine: snap, alertTags: alertTags[j], eventTags: eventTags[j]}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("core: restore: engine is closed")
	}
	s.frameIdx = h.frames
	s.frames.Store(h.frames)
	installSessionIndex(s.idx, body.index)
	s.reasm.ImportStreams(body.streams, body.reasmEvicted)
	s.frags.install(tail.frags)
	s.streams.install(tail.streams, tail.streamEvicted)
	for _, install := range routerInstalls {
		install()
	}
	tail.stickyMap(s.sticky)
	s.capSessions.Store(uint64(body.evictedSessions))
	s.capFrags.Store(uint64(body.reasmEvicted))
	s.capStreams.Store(uint64(tail.streamEvicted))
	s.shardsFailed.Store(uint64(body.stats.ShardsFailed))
	s.shardsRestarted.Store(uint64(body.stats.ShardsRestarted))
	s.selfMu.Lock()
	s.selfAlert = selfAlerts
	s.selfTags = selfTags
	s.selfDedup = make(map[string]int, len(selfAlerts))
	for i, a := range selfAlerts {
		s.selfDedup[a.Rule+"|"+a.Session] = i
	}
	s.selfSeq = len(selfAlerts)
	s.selfMu.Unlock()
	// resumedStats carries the folded history for the counters the live
	// pipeline will NOT re-count. Counters that live state re-derives —
	// the frame clock, the router-side cap atomics stored above, the
	// shard-failure atomics, and the correlator-owned eviction counters
	// contributeStats re-adds from the reinstated atomics — are zeroed so
	// each count happens exactly once.
	rst := body.stats
	rst.Frames = 0
	rst.SessionsCapEvicted = 0
	rst.FragGroupsEvicted = 0
	rst.StreamsEvicted = 0
	rst.ShardsFailed = 0
	rst.ShardsRestarted = 0
	rst.IMHistoriesEvicted = 0
	rst.SeqTrackersEvicted = 0
	s.resumedStats = rst
	s.resumedDstats = body.dstats
	marks := s.markAllLocked(itemRestore, func(j int, c *shardCtl) { c.restore = restores[j] })
	s.mu.Unlock()
	s.awaitAll(marks)
	return nil
}
