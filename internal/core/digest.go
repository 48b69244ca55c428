package core

import (
	"encoding/binary"
	"fmt"
)

// This file is the cooperative layer's event-export surface: the compact
// versioned wire encoding a probe ships to its aggregator (Digest), the
// per-engine selector that accumulates exportable events under a Limits
// budget (Exporter), and the standalone rule-engine checkpoint codec the
// aggregator persists its cross-point matching state through. Everything
// reuses the snapshot codec's sorted-key big-endian primitives
// (snapshot.go), so digests and aggregator checkpoints inherit the same
// determinism and hostile-input guarantees as engine checkpoints.

// DefaultDigestPort is the UDP port probes send digests to (and
// aggregators ack from) unless Config overrides it. The control
// correlator claims it so monitored links carrying IDS control traffic
// raise nothing (see control_correlator.go).
const DefaultDigestPort = 7100

const (
	// digestMagic / digestAckMagic tag the two control-plane frame kinds
	// sharing the digest port: probe→aggregator digests and
	// aggregator→probe acknowledgements.
	digestMagic    = "SCDG"
	digestAckMagic = "SCGA"
	// digestVersion is the digest wire format version; decoders reject
	// anything else (probes and aggregators upgrade together).
	digestVersion = 1
	// aggSnapMagic tags a standalone rule-engine checkpoint
	// (SnapshotRuleEngine), the aggregator's persistence format.
	aggSnapMagic   = "SCDR"
	aggSnapVersion = 1
)

// Digest is one probe→aggregator shipment: a batch of selected events
// stamped with the probe's observation-point name and a per-probe
// sequence number. Sequence numbers start at 1 and increment per digest;
// the aggregator detects loss (and raises a self-alert) from gaps.
type Digest struct {
	// Point names the observation point that produced the events (e.g.
	// "edge", "gateway"). The decoder stamps it onto every carried event
	// whose Point is empty, so cross-point rules can qualify steps by
	// vantage.
	Point string
	// Seq is the probe's digest sequence number (first digest = 1).
	Seq uint64
	// Dropped is the probe's cumulative count of events discarded under
	// the Limits.MaxDigestEvents budget, so the aggregator can tell a
	// quiet probe from a shedding one.
	Dropped uint64
	// Events are the exported events, in engine emission order.
	Events []Event
}

func walkDigest(c *codec, d *Digest) {
	c.str(&d.Point)
	c.u64(&d.Seq)
	c.u64(&d.Dropped)
	seq(c, &d.Events, walkEvent)
}

// EncodeDigest serializes a digest: magic, version, payload, and a
// trailing FNV-64a checksum over everything before it.
func EncodeDigest(d *Digest) []byte {
	c := encoder(digestMagic, digestVersion)
	walkDigest(c, d)
	return c.sealed()
}

// DecodeDigest parses and validates a digest frame. Decoding is
// all-or-nothing: any truncation, checksum mismatch, version skew or
// hostile length prefix yields an error and no partial digest. Carried
// events with an empty Point are stamped with the digest's Point.
func DecodeDigest(data []byte) (*Digest, error) {
	body, err := openControlFrame(data, digestMagic, digestVersion, "digest")
	if err != nil {
		return nil, err
	}
	c, d := &codec{buf: body}, &Digest{}
	walkDigest(c, d)
	if err := c.close("digest"); err != nil {
		return nil, err
	}
	if d.Seq == 0 {
		return nil, fmt.Errorf("core: digest corrupt (sequence number 0; sequences start at 1)")
	}
	for i := range d.Events {
		if d.Events[i].Point == "" {
			d.Events[i].Point = d.Point
		}
	}
	return d, nil
}

func walkDigestAck(c *codec, point *string, upTo *uint64) {
	c.str(point)
	c.u64(upTo)
}

// EncodeDigestAck serializes an aggregator→probe acknowledgement for
// every digest from point up to and including seq.
func EncodeDigestAck(point string, seq uint64) []byte {
	c := encoder(digestAckMagic, digestVersion)
	walkDigestAck(c, &point, &seq)
	return c.sealed()
}

// DecodeDigestAck parses an acknowledgement frame.
func DecodeDigestAck(data []byte) (point string, seq uint64, err error) {
	body, err := openControlFrame(data, digestAckMagic, digestVersion, "digest ack")
	if err != nil {
		return "", 0, err
	}
	c := &codec{buf: body}
	walkDigestAck(c, &point, &seq)
	if err := c.close("digest ack"); err != nil {
		return "", 0, err
	}
	return point, seq, nil
}

// IsDigest reports whether a payload starts with the digest magic (used
// to mux digests and acks arriving on the shared control port).
func IsDigest(data []byte) bool {
	return len(data) >= len(digestMagic) && string(data[:len(digestMagic)]) == digestMagic
}

// IsDigestAck reports whether a payload starts with the ack magic.
func IsDigestAck(data []byte) bool {
	return len(data) >= len(digestAckMagic) && string(data[:len(digestAckMagic)]) == digestAckMagic
}

// openControlFrame validates a control frame's envelope — magic, version
// byte, trailing checksum — and returns the payload between version and
// checksum.
func openControlFrame(data []byte, magic string, version uint8, what string) ([]byte, error) {
	envelope := len(magic) + 1 + 8
	if len(data) < envelope {
		return nil, fmt.Errorf("core: %s truncated (%d bytes; envelope needs %d)", what, len(data), envelope)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("core: not a %s frame (bad magic)", what)
	}
	sumAt := len(data) - 8
	want := binary.BigEndian.Uint64(data[sumAt:])
	if got := fnv64(data[:sumAt]); got != want {
		return nil, fmt.Errorf("core: %s corrupt (checksum mismatch)", what)
	}
	if v := data[len(magic)]; v != version {
		return nil, fmt.Errorf("core: %s is format v%d; this build reads only v%d", what, v, version)
	}
	return data[len(magic)+1 : sumAt], nil
}

// Exporter selects an engine's events for cooperative export. It attaches
// to an Engine or ShardedEngine through the OnEvent hook (or is fed
// directly via Observe), keeps the selected events in a bounded pending
// queue, and packages them into sequence-numbered digests on Flush. The
// probe layer (internal/coop) owns transport: retry, acknowledgement and
// gap detection happen above this type.
//
// Exporter is not safe for concurrent use; the engine's OnEvent hook
// already serializes delivery (per shard in sharded mode — attach one
// exporter per probe engine, not per shard).
type Exporter struct {
	types   map[EventType]bool
	where   func(Event) bool
	limit   int
	pending []Event
	seq     uint64
	dropped uint64
}

// NewExporter builds an exporter that selects the given event types
// (empty = every type). Limits.MaxDigestEvents bounds the pending queue:
// when full, the oldest pending event is dropped and counted.
func NewExporter(l Limits, types ...EventType) *Exporter {
	e := &Exporter{limit: l.MaxDigestEvents}
	if len(types) > 0 {
		e.types = make(map[EventType]bool, len(types))
		for _, t := range types {
			e.types[t] = true
		}
	}
	return e
}

// SetFilter installs an additional per-event predicate; events failing it
// are not exported. Used by probes to export only locally-originated
// evidence (e.g. transmit-provenance events), so a probe never vouches
// for traffic it merely overheard.
func (e *Exporter) SetFilter(fn func(Event) bool) { e.where = fn }

// Observe offers one event to the exporter (the OnEvent hook signature).
func (e *Exporter) Observe(ev Event) {
	if e.types != nil && !e.types[ev.Type] {
		return
	}
	if e.where != nil && !e.where(ev) {
		return
	}
	if e.limit > 0 && len(e.pending) >= e.limit {
		e.pending[0] = Event{}
		e.pending = e.pending[1:]
		e.dropped++
	}
	e.pending = appendWindow(e.pending, ev, e.limit)
}

// Pending reports how many selected events await the next Flush.
func (e *Exporter) Pending() int { return len(e.pending) }

// Dropped reports how many selected events were discarded under the
// MaxDigestEvents budget since construction.
func (e *Exporter) Dropped() uint64 { return e.dropped }

// Seq reports the sequence number of the most recently flushed digest
// (0 = none yet).
func (e *Exporter) Seq() uint64 { return e.seq }

// Flush drains the pending events into a new digest stamped with the
// probe's point name and the next sequence number. Returns nil when
// nothing is pending (sequence numbers are never spent on empty
// digests).
func (e *Exporter) Flush(point string) *Digest {
	if len(e.pending) == 0 {
		return nil
	}
	e.seq++
	d := &Digest{
		Point:   point,
		Seq:     e.seq,
		Dropped: e.dropped,
		Events:  e.pending,
	}
	e.pending = nil
	return d
}

// --- aggregator checkpoint ---

// SnapshotRuleEngine serializes a standalone RuleEngine — the cooperative
// aggregator's cross-point matcher — through the same deterministic codec
// engine checkpoints use, fingerprinted against its ruleset so a
// checkpoint can only restore into an aggregator running the rules that
// wrote it.
func SnapshotRuleEngine(re *RuleEngine) []byte {
	c := encoder(aggSnapMagic, aggSnapVersion)
	fp := rulesFingerprint(re.rules)
	c.u64(&fp)
	snap := exportRuleEngine(re).canonical()
	walkRuleSnap(c, &snap)
	return c.sealed()
}

// RestoreRuleEngine validates a SnapshotRuleEngine blob against the
// engine's current ruleset and installs the decoded state. Decoding is
// two-phase like engine restore: nothing is installed unless the whole
// blob parses cleanly, so a corrupt checkpoint can never leave the
// aggregator half-reinstated.
func RestoreRuleEngine(re *RuleEngine, data []byte) error {
	body, err := openControlFrame(data, aggSnapMagic, aggSnapVersion, "aggregator checkpoint")
	if err != nil {
		return err
	}
	c := &codec{buf: body}
	var fp uint64
	c.u64(&fp)
	if want := rulesFingerprint(re.rules); c.err == nil && fp != want {
		return fmt.Errorf("core: aggregator checkpoint was written by a different ruleset (fingerprint %016x, want %016x)", fp, want)
	}
	var snap ruleSnap
	if walkRuleSnap(c, &snap); c.err == nil {
		c.err = snap.validate(re.rules)
	}
	if err := c.close("aggregator checkpoint"); err != nil {
		return err
	}
	installRuleEngine(re, snap, true)
	return nil
}

// WireCodec exposes the snapshot codec to the coop package for its own
// control-plane envelopes (the aggregator's full checkpoint wraps
// per-point sequence cursors around a SnapshotRuleEngine blob). Like the
// engine's records, a WireCodec layout is spelled once: the same walk
// encodes with a codec from NewWireCodec and decodes with one from
// OpenWireCodec. List counts (WireSeq) are 8 bytes wide, and decoding
// refuses a count larger than the bytes left, so a hostile count cannot
// drive an allocation.
type WireCodec struct {
	c codec
}

// NewWireCodec starts encoding a blob with the given magic tag and
// version byte; Seal finishes it.
func NewWireCodec(magic string, version uint8) *WireCodec {
	w := &WireCodec{c: *encoder(magic, version)}
	w.c.wide = true
	return w
}

// OpenWireCodec validates a blob's magic, version and checksum and starts
// decoding its payload; Close finishes it.
func OpenWireCodec(data []byte, magic string, version uint8, what string) (*WireCodec, error) {
	body, err := openControlFrame(data, magic, version, what)
	if err != nil {
		return nil, err
	}
	return &WireCodec{c: codec{buf: body, wide: true}}, nil
}

// U64 walks a big-endian uint64.
func (w *WireCodec) U64(v *uint64) { w.c.u64(v) }

// Int walks an int as 8 bytes.
func (w *WireCodec) Int(v *int) { w.c.vint(v) }

// Str walks a length-prefixed string.
func (w *WireCodec) Str(s *string) { w.c.str(s) }

// Bytes walks a length-prefixed byte string.
func (w *WireCodec) Bytes(b *[]byte) { w.c.bytes(b) }

// Bool walks a boolean byte.
func (w *WireCodec) Bool(v *bool) { w.c.bool(v) }

// Event walks an event in the snapshot codec's event layout.
func (w *WireCodec) Event(ev *Event) { walkEvent(&w.c, ev) }

// WireSeq walks a list: an 8-byte count, then walk over each element.
func WireSeq[T any](w *WireCodec, xs *[]T, walk func(*WireCodec, *T)) {
	seq(&w.c, xs, func(_ *codec, x *T) { walk(w, x) })
}

// Seal appends the checksum and returns the encoded blob. The codec must
// not be reused afterwards.
func (w *WireCodec) Seal() []byte { return w.c.sealed() }

// Close verifies a decoded blob was fully consumed without error.
func (w *WireCodec) Close(what string) error { return w.c.close(what) }
