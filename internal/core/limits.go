package core

import "time"

// Limits is the engine's state budget: hard caps on every structure that
// otherwise grows with traffic, so a flood (or a monitor-targeting attack
// in the style of Grashöfer et al.) exhausts a bounded, accounted pool
// instead of the process. A zero value for any cap means unbounded, which
// preserves the pre-budget behavior.
//
// Eviction is deterministic: every cap evicts the least-recently-used (or
// oldest) entry with an explicit identity tie-break, so the serial engine
// and every sharded configuration evict the same victims in the same
// order. Each eviction increments a per-category counter surfaced in
// EngineStats.
//
// Rule progress has no cap of its own, because it ends when it can no
// longer match: a partial of a multi-step rule keyed by session ends
// with its session's directory entry, a windowed rule's partial once the
// clock passes its window, and an absent lookback after its grace. The
// one case still unbounded is a custom multi-step rule with Window 0
// keyed by detail, or by a session key no directory entry owns (an
// rtp:/rtcp:/raw: fallback, im:, scan:, or an accounting-only Call-ID).
type Limits struct {
	// MaxSessions caps per-session dialog state and its trails. The
	// least-recently-touched session is evicted (ties: smaller Call-ID).
	MaxSessions int
	// MaxFragGroups caps incomplete IP fragment streams buffered for
	// reassembly, in the serial distiller and the sharded router alike.
	// The oldest stream is evicted (ties: stream identity order).
	MaxFragGroups int
	// MaxStreams caps tracked TCP stream directions (reassembly buffers
	// plus SIP framing state), in the serial distiller and the sharded
	// router alike. The oldest stream is evicted (ties: stream identity
	// order) and an ids-overload self-alert records the loss.
	MaxStreams int
	// MaxIMHistories caps instant-message source histories (fake-IM
	// detection state). Least-recently-seen AOR|destination evicted.
	MaxIMHistories int
	// MaxSeqTrackers caps RTP sequence-continuity trackers. The tracker
	// with the oldest last packet is evicted (ties: endpoint order).
	MaxSeqTrackers int
	// MaxBindings caps registration bindings (AOR -> contact address).
	// The least-recently-refreshed binding is evicted (ties: AOR order).
	MaxBindings int
	// MaxRetainedAlerts caps the retained alert list; the oldest alert is
	// dropped (its dedup suppression is forgotten with it). In sharded
	// mode the cap applies per shard, so alert retention under caps is
	// NOT serial-equivalent; leave it 0 for differential runs.
	MaxRetainedAlerts int
	// MaxRetainedEvents caps the retained event log (WithEventLog); the
	// oldest event is dropped. Per shard in sharded mode, like alerts.
	MaxRetainedEvents int
	// MaxDigestEvents caps the cooperative exporter's per-probe backlog:
	// events selected for export but not yet flushed into a digest. The
	// oldest pending event is dropped and counted (Exporter.Dropped), so
	// a probe cut off from its aggregator degrades by forgetting the
	// oldest evidence instead of growing without bound.
	MaxDigestEvents int

	// ShedAfter bounds how long the sharded router waits on a full shard
	// queue before shedding the whole batch (counted per shard, raised as
	// an ids-overload self-alert). 0 preserves the blocking send.
	ShedAfter time.Duration
	// StallTimeout makes the sharded engine's watchdog quarantine a shard
	// that has accepted work but made no progress for this long (wall
	// clock). 0 disables the watchdog.
	StallTimeout time.Duration
	// RestartFailedShards restarts a panicking shard with fresh detection
	// state instead of quarantining it for the rest of the run.
	RestartFailedShards bool
}

// shardLocalLimits returns the limits a per-shard engine should enforce
// locally. Router-owned structures are capped once at the router:
// sessions and fragment groups always (the router owns the session
// directory and reassembly), plus whichever caps the budgeted correlators
// declare router-owned (each zeroes its own). Bindings are replicated to
// every shard in identical order, so the per-shard cap evicts identically
// everywhere; retention caps are inherently per-shard.
func shardLocalLimits(correlators []Correlator, l Limits) Limits {
	l.MaxSessions = 0
	l.MaxFragGroups = 0
	l.MaxStreams = 0
	for _, c := range correlators {
		if b, ok := c.(budgeted); ok {
			b.shardLocalLimits(&l)
		}
	}
	return l
}
