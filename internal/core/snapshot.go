package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scidive/internal/packet"
)

// This file implements deterministic checkpoint/restore for the stateful
// detection pipeline. A snapshot is a versioned, self-describing byte
// stream: a header binding the snapshot to the exact configuration that
// produced it (config hash, ruleset hash, correlator list), a body holding
// every piece of accumulated detection state, and a trailing checksum.
// Encoding is hand-rolled fixed-width big-endian with every map walked in
// sorted key order, so the same engine state always produces the same
// bytes (the snapshot-format golden test pins this; gob was rejected
// because map iteration order leaks into its output).
//
// Format v4 extends v3 with the stream-transport section (TCP reassembly
// buffers plus per-direction SIP framing prefixes) so a checkpoint taken
// mid-message resumes byte-identically; it is otherwise the v3 layout.
//
// Format v3 is portable across engine geometry: the body is keyed by
// session, not by shard. Both engine kinds write the same global layout —
// one folded stats block, one session index, one rule-engine section, one
// merged alert/event stream, plus the routing directory (sticky session →
// route key pins) and buffered in-progress fragment groups — and restore
// re-routes every session through the restoring engine's own router
// config. A checkpoint captured serial or at 8 shards × 2 ingesters
// resumes at any shards × ingest combination, in either engine kind; the
// engine kind, shard count and ingest width recorded in the header are
// informational only.
//
// Restore is strictly decode-validate-install: the entire body is decoded
// into intermediate structures (correlator state included, via the
// snapshotter capability's two-phase decode) and only if every section
// decodes cleanly is any engine state mutated. A corrupt, truncated or
// mismatched checkpoint therefore returns an error and leaves the engine
// exactly as it was — never partially reinstated (FuzzSnapshotDecode holds
// the decoder to this).

// Format v6 extends v5 with the cooperative layer: events carry their
// capture point, and the rule-engine section adds the absence machinery
// (pending graced alerts plus the absent-event lookback table) so an
// aggregator checkpoint taken mid-grace matures or cancels identically
// after restore.

const (
	snapMagic   = "SCDV"
	snapVersion = 6

	snapKindSerial  = 0
	snapKindSharded = 1
)

// --- deterministic writer/reader ---

// snapWriter appends fixed-width big-endian fields to a buffer.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *snapWriter) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *snapWriter) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *snapWriter) vint(v int)   { w.u64(uint64(int64(v))) }
func (w *snapWriter) dur(d time.Duration) {
	w.u64(uint64(int64(d)))
}

func (w *snapWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *snapWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *snapWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *snapWriter) bools(b []bool) {
	w.u32(uint32(len(b)))
	for _, v := range b {
		w.bool(v)
	}
}

func (w *snapWriter) addr(a netip.Addr) {
	b, _ := a.MarshalBinary()
	w.bytes(b)
}

func (w *snapWriter) addrPort(ap netip.AddrPort) {
	b, _ := ap.MarshalBinary()
	w.bytes(b)
}

// snapReader consumes a snapWriter's output with bounds checking. The
// first failure sticks: every subsequent read returns a zero value, so
// decoders can be written straight-line and check err once per section.
type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("core: snapshot truncated (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *snapReader) vint() int          { return int(int64(r.u64())) }
func (r *snapReader) dur() time.Duration { return time.Duration(int64(r.u64())) }
func (r *snapReader) boolv() bool        { return r.u8() != 0 }
func (r *snapReader) remaining() int     { return len(r.buf) - r.off }
func (r *snapReader) done() bool         { return r.err == nil && r.off == len(r.buf) }

// count reads a u32 element count and rejects counts that could not fit in
// the remaining bytes, so a hostile length prefix cannot drive huge
// allocations or long loops.
func (r *snapReader) count() int {
	n := int(r.u32())
	if r.err == nil && n > r.remaining() {
		r.fail("core: snapshot corrupt (count %d exceeds %d remaining bytes)", n, r.remaining())
		return 0
	}
	return n
}

func (r *snapReader) bytesv() []byte {
	n := r.count()
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *snapReader) strv() string {
	n := r.count()
	b := r.take(n)
	return string(b)
}

func (r *snapReader) boolsv() []bool {
	n := r.count()
	if r.err != nil {
		return nil
	}
	out := make([]bool, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.boolv())
	}
	return out
}

func (r *snapReader) addrv() netip.Addr {
	b := r.bytesv()
	if r.err != nil {
		return netip.Addr{}
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(b); err != nil {
		r.fail("core: snapshot corrupt (bad address: %v)", err)
	}
	return a
}

func (r *snapReader) addrPortv() netip.AddrPort {
	b := r.bytesv()
	if r.err != nil {
		return netip.AddrPort{}
	}
	var ap netip.AddrPort
	if err := ap.UnmarshalBinary(b); err != nil {
		r.fail("core: snapshot corrupt (bad address:port: %v)", err)
	}
	return ap
}

// --- hashing ---

// fnv64 is FNV-1a over a byte string.
func fnv64(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func fnv64String(s string) uint64 { return fnv64([]byte(s)) }

// configFingerprint hashes every configuration knob that shapes detection
// state, so a checkpoint can only be reinstated into an engine configured
// exactly like the one that wrote it. The correlator selection and the
// ruleset are bound separately (by name list and by rules hash) so their
// mismatch errors can be specific.
func configFingerprint(cfg Config, keepLog bool) uint64 {
	g := cfg.Gen.withDefaults()
	l := cfg.Limits
	s := fmt.Sprintf(
		"gen=%v/%v/%d/%d/%d/%v/%d/%v trail=%d timeout=%v limits=%d/%d/%d/%d/%d/%d/%d/%d/%d shed=%v stall=%v restart=%v keeplog=%v",
		g.MonitorWindow, g.ReinviteGrace, g.SeqJumpThreshold, g.AuthFloodThreshold, g.GuessThreshold, g.IMPeriod,
		g.DigestPort, g.RTPActivityEvery,
		cfg.MaxTrailLen, cfg.SessionTimeout,
		l.MaxSessions, l.MaxFragGroups, l.MaxStreams, l.MaxIMHistories, l.MaxSeqTrackers, l.MaxBindings,
		l.MaxRetainedAlerts, l.MaxRetainedEvents, l.MaxDigestEvents,
		l.ShedAfter, l.StallTimeout, l.RestartFailedShards, keepLog)
	return fnv64String(s)
}

// rulesFingerprint hashes the canonical textual rendering of a ruleset.
// Editing rules/default.rules (or passing a different -rules file) changes
// this hash, which makes a stale checkpoint fail loudly at resume.
func rulesFingerprint(rules []Rule) uint64 {
	return fnv64String(FormatRules(rules))
}

func correlatorNames(correlators []Correlator) []string {
	names := make([]string, len(correlators))
	for i, c := range correlators {
		names[i] = c.Name()
	}
	return names
}

// --- header ---

// snapHeader binds a snapshot to the producing engine's identity.
type snapHeader struct {
	engineKind  uint8
	shards      int
	ingesters   int
	frames      uint64
	configHash  uint64
	rulesHash   uint64
	correlators []string
}

func writeSnapHeader(w *snapWriter, h snapHeader) {
	w.buf = append(w.buf, snapMagic...)
	w.u8(snapVersion)
	w.u8(h.engineKind)
	w.u32(uint32(h.shards))
	w.u32(uint32(h.ingesters))
	w.u64(h.frames)
	w.u64(h.configHash)
	w.u64(h.rulesHash)
	w.u32(uint32(len(h.correlators)))
	for _, name := range h.correlators {
		w.str(name)
	}
}

func readSnapHeader(r *snapReader) snapHeader {
	var h snapHeader
	magic := r.take(len(snapMagic))
	if r.err != nil {
		return h
	}
	if string(magic) != snapMagic {
		r.fail("core: not a SCIDIVE checkpoint (bad magic %q)", magic)
		return h
	}
	if v := r.u8(); r.err == nil && v != snapVersion {
		if v == 2 {
			r.fail("core: checkpoint is format v2 (fixed-geometry, pre-portable); this build reads only v6 checkpoints — re-capture a checkpoint with this build")
		} else if v == 3 {
			r.fail("core: checkpoint is format v3 (pre-stream-transport); this build reads only v6 checkpoints — re-capture a checkpoint with this build")
		} else if v == 4 {
			r.fail("core: checkpoint is format v4 (pre-classification-ledger); this build reads only v6 checkpoints — re-capture a checkpoint with this build")
		} else if v == 5 {
			r.fail("core: checkpoint is format v5 (pre-cooperative); this build reads only v6 checkpoints — re-capture a checkpoint with this build")
		} else {
			r.fail("core: unsupported checkpoint format version %d (this build reads version %d); re-capture a checkpoint with this build", v, snapVersion)
		}
		return h
	}
	h.engineKind = r.u8()
	h.shards = int(r.u32())
	h.ingesters = int(r.u32())
	h.frames = r.u64()
	h.configHash = r.u64()
	h.rulesHash = r.u64()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		h.correlators = append(h.correlators, r.strv())
	}
	return h
}

// openSnapshot verifies the checksum and header framing of a snapshot and
// returns the parsed header plus a reader positioned at the body.
func openSnapshot(data []byte) (snapHeader, *snapReader, error) {
	if len(data) < len(snapMagic)+8 {
		return snapHeader{}, nil, fmt.Errorf("core: checkpoint truncated (%d bytes)", len(data))
	}
	sum := binary.BigEndian.Uint64(data[len(data)-8:])
	if got := fnv64(data[:len(data)-8]); got != sum {
		return snapHeader{}, nil, fmt.Errorf("core: checkpoint corrupt (checksum %016x, computed %016x)", sum, got)
	}
	r := &snapReader{buf: data[:len(data)-8]}
	h := readSnapHeader(r)
	if r.err != nil {
		return snapHeader{}, nil, r.err
	}
	return h, r, nil
}

// validateSnapHeader checks a decoded header against the restoring
// engine's identity. Engine kind, shard count and ingest width are NOT
// validated: a portable body is keyed by session, so any geometry can
// restore it. Every remaining mismatch is a descriptive error naming both
// sides and saying how to proceed, so a resume against the wrong
// configuration fails loudly and actionably.
func validateSnapHeader(h, want snapHeader) error {
	if len(h.correlators) != len(want.correlators) || strings.Join(h.correlators, ",") != strings.Join(want.correlators, ",") {
		return fmt.Errorf("core: checkpoint correlator set [%s] does not match engine correlator set [%s]; resume with -correlators matching the capture, or re-capture a checkpoint under the new set",
			strings.Join(h.correlators, ", "), strings.Join(want.correlators, ", "))
	}
	if h.rulesHash != want.rulesHash {
		return fmt.Errorf("core: checkpoint ruleset hash %016x does not match engine ruleset hash %016x (rules changed since the checkpoint); resume with the capture-time rules file and hot-reload the new ruleset (SIGHUP or -reload-rules), or re-capture",
			h.rulesHash, want.rulesHash)
	}
	if h.configHash != want.configHash {
		return fmt.Errorf("core: checkpoint config hash %016x does not match engine config hash %016x (GenConfig, Limits, trail or timeout settings differ); resume with the capture-time settings, or re-capture a checkpoint under the new ones",
			h.configHash, want.configHash)
	}
	return nil
}

// SnapshotInfo is the peekable identity of a checkpoint, read without
// decoding (or validating) the body. The writing geometry is recorded for
// operators but does not constrain restore: a portable checkpoint resumes
// at any shards × ingest combination, in either engine kind.
type SnapshotInfo struct {
	// Sharded reports which engine kind wrote the checkpoint
	// (informational only).
	Sharded bool
	// Shards is the writing engine's shard count (1 for serial;
	// informational only).
	Shards int
	// Ingesters is the writing engine's parallel ingest-router count
	// (1 for serial or a synchronous-router sharded engine;
	// informational only).
	Ingesters int
	// Frames is how many frames the engine had processed at the
	// checkpoint; a resuming replay skips this many frames.
	Frames uint64
}

// PeekSnapshotInfo reads a checkpoint's header, verifying framing and
// checksum but not configuration compatibility.
func PeekSnapshotInfo(data []byte) (SnapshotInfo, error) {
	h, _, err := openSnapshot(data)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Sharded: h.engineKind == snapKindSharded, Shards: h.shards, Ingesters: h.ingesters, Frames: h.frames}, nil
}

// WriteCheckpoint atomically writes a snapshot to path: the bytes land in
// a temporary file in the same directory, which is fsynced and renamed
// over the target, so a crash mid-write can never leave a torn
// checkpoint.
func WriteCheckpoint(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// --- shared field codecs ---

func writeEvent(w *snapWriter, ev Event) {
	w.dur(ev.At)
	w.vint(int(ev.Type))
	w.str(ev.Session)
	w.str(ev.Detail)
	w.str(ev.Point)
}

// readEvent decodes an event: every field writeEvent wrote, which is
// every field an Event has.
func readEvent(r *snapReader) Event {
	return Event{At: r.dur(), Type: EventType(r.vint()), Session: r.strv(), Detail: r.strv(), Point: r.strv()}
}

func writeEvents(w *snapWriter, evs []Event) {
	w.u32(uint32(len(evs)))
	for _, ev := range evs {
		writeEvent(w, ev)
	}
}

func readEvents(r *snapReader) []Event {
	n := r.count()
	out := make([]Event, 0, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, readEvent(r))
	}
	return out
}

func writeAlert(w *snapWriter, a Alert) {
	w.dur(a.At)
	w.str(a.Rule)
	w.vint(int(a.Severity))
	w.str(a.Session)
	w.str(a.Detail)
	w.vint(a.Count)
	writeEvents(w, a.Events)
}

func readAlert(r *snapReader) Alert {
	return Alert{
		At:       r.dur(),
		Rule:     r.strv(),
		Severity: Severity(r.vint()),
		Session:  r.strv(),
		Detail:   r.strv(),
		Count:    r.vint(),
		Events:   readEvents(r),
	}
}

func writeAlerts(w *snapWriter, alerts []Alert) {
	w.u32(uint32(len(alerts)))
	for _, a := range alerts {
		writeAlert(w, a)
	}
}

func readAlerts(r *snapReader) []Alert {
	n := r.count()
	out := make([]Alert, 0, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, readAlert(r))
	}
	return out
}

func writeEngineStats(w *snapWriter, st EngineStats) {
	for _, v := range []int{
		st.Frames, st.Footprints, st.Events, st.Alerts, st.SessionsEvicted,
		st.FramesAfterClose, st.FramesShed, st.BatchesShed,
		st.SessionsCapEvicted, st.FragGroupsEvicted, st.StreamsEvicted,
		st.IMHistoriesEvicted,
		st.SeqTrackersEvicted, st.BindingsEvicted, st.AlertsEvicted,
		st.EventsEvicted, st.ShardsFailed, st.ShardsRestarted,
	} {
		w.vint(v)
	}
}

func readEngineStats(r *snapReader) EngineStats {
	var st EngineStats
	for _, p := range []*int{
		&st.Frames, &st.Footprints, &st.Events, &st.Alerts, &st.SessionsEvicted,
		&st.FramesAfterClose, &st.FramesShed, &st.BatchesShed,
		&st.SessionsCapEvicted, &st.FragGroupsEvicted, &st.StreamsEvicted,
		&st.IMHistoriesEvicted,
		&st.SeqTrackersEvicted, &st.BindingsEvicted, &st.AlertsEvicted,
		&st.EventsEvicted, &st.ShardsFailed, &st.ShardsRestarted,
	} {
		*p = r.vint()
	}
	return st
}

func writeDistillerStats(w *snapWriter, st DistillerStats) {
	for _, v := range []int{st.Frames, st.Fragments, st.DecodeError, st.SIP, st.RTP, st.RTCP, st.Acct, st.Raw, st.Ignored, st.Mismatched, st.Streamed, st.StreamMsgs} {
		w.vint(v)
	}
}

func readDistillerStats(r *snapReader) DistillerStats {
	var st DistillerStats
	for _, p := range []*int{&st.Frames, &st.Fragments, &st.DecodeError, &st.SIP, &st.RTP, &st.RTCP, &st.Acct, &st.Raw, &st.Ignored, &st.Mismatched, &st.Streamed, &st.StreamMsgs} {
		*p = r.vint()
	}
	return st
}

// --- session index ---

// sessionSnap is the decoded form of one sessionState.
type sessionSnap struct {
	st             sessionState
	guessResponses []string
}

type indexSnap struct {
	sessions   []sessionSnap
	pendingReg [][2]string
}

// exportSessionIndex captures the index's dialogs and pending
// registrations in decoded form; writeIndexSnap sorts them.
func exportSessionIndex(x *sessionIndex) indexSnap {
	snap := indexSnap{sessions: make([]sessionSnap, 0, len(x.sessions))}
	for _, st := range x.sessions {
		s := sessionSnap{st: *st}
		for g := range st.guessResponses {
			s.guessResponses = append(s.guessResponses, g)
		}
		snap.sessions = append(snap.sessions, s)
	}
	for id, aor := range x.pendingReg {
		snap.pendingReg = append(snap.pendingReg, [2]string{id, aor})
	}
	return snap
}

func readSessionIndex(r *snapReader) indexSnap {
	var snap indexSnap
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		var s sessionSnap
		s.st.callID = r.strv()
		s.st.lastSeen = r.dur()
		s.st.established = r.boolv()
		s.st.callerAOR = r.strv()
		s.st.calleeAOR = r.strv()
		s.st.callerTag = r.strv()
		s.st.calleeTag = r.strv()
		s.st.callerMedia = r.addrPortv()
		s.st.calleeMedia = r.addrPortv()
		s.st.inviteSrcIP = r.addrv()
		s.st.byeSeen = r.boolv()
		s.st.byeAt = r.dur()
		s.st.byeFromMedia = r.addrPortv()
		s.st.lastReinviteSeq = r.u32()
		s.st.reinviteSeen = r.boolv()
		s.st.reinviteAt = r.dur()
		s.st.reinviteOldMedia = r.addrPortv()
		s.st.badFormat = r.boolv()
		s.st.acctStart = r.boolv()
		s.st.unmatchedOnce = r.boolv()
		s.st.rtcpByeAt = r.dur()
		s.st.rtcpByePending = r.boolv()
		s.st.rtcpByeFired = r.boolv()
		s.st.isRegistration = r.boolv()
		s.st.challenges = r.vint()
		s.st.floodFired = r.boolv()
		ng := r.count()
		for j := 0; j < ng && r.err == nil; j++ {
			s.guessResponses = append(s.guessResponses, r.strv())
		}
		s.st.guessFired = r.boolv()
		snap.sessions = append(snap.sessions, s)
	}
	nr := r.count()
	for i := 0; i < nr && r.err == nil; i++ {
		id := r.strv()
		aor := r.strv()
		snap.pendingReg = append(snap.pendingReg, [2]string{id, aor})
	}
	return snap
}

// installSessionIndex replaces the index's contents in place (the maps are
// aliased by the generator) and rebuilds the reverse media index.
func installSessionIndex(x *sessionIndex, snap indexSnap) {
	clear(x.sessions)
	clear(x.pendingReg)
	clear(x.byMedia)
	x.epoch++
	for _, s := range snap.sessions {
		st := new(sessionState)
		*st = s.st
		if len(s.guessResponses) > 0 {
			st.guessResponses = make(map[string]struct{}, len(s.guessResponses))
			for _, g := range s.guessResponses {
				st.guessResponses[g] = struct{}{}
			}
		}
		x.sessions[st.callID] = st
		x.indexMedia(st, st.callerMedia)
		x.indexMedia(st, st.calleeMedia)
	}
	for _, reg := range snap.pendingReg {
		x.pendingReg[reg[0]] = reg[1]
	}
}

// --- reassembler ---

func readReassembly(r *snapReader) ([]packet.FragStream, int) {
	n := r.count()
	var streams []packet.FragStream
	for i := 0; i < n && r.err == nil; i++ {
		streams = append(streams, packet.FragStream{
			ID: packet.FragID{
				Src:   r.addrv(),
				Dst:   r.addrv(),
				Proto: r.u8(),
				ID:    r.u16(),
			},
			Data:     r.bytesv(),
			Have:     r.boolsv(),
			TotalLen: r.vint(),
			First:    r.dur(),
		})
	}
	return streams, r.vint()
}

// --- rule engine ---

type partialSnap struct {
	rule      string
	session   string
	startedAt time.Duration
	events    []Event
	next      int
	matched   []bool
	remaining int
}

type pendingSnap struct {
	key         string // ruleName|corrKey
	completedAt time.Duration
	deadline    time.Duration
	alert       Alert
}

type ruleSnap struct {
	partials   []partialSnap
	alerts     []Alert
	dedupKeys  []string
	dedupIdx   []int
	dedupBase  int
	evicted    int
	version    int
	eventsSeen int
	pendings   []pendingSnap
	lastKeys   []string // absent-lookback keys
	lastAt     []time.Duration
}

// exportRuleEngine captures rule-matching state in decoded form. It
// aliases the engine's alerts and partial-match slices (see exportBody);
// writeRuleSnap sorts what the map walks leave unordered.
func exportRuleEngine(re *RuleEngine) ruleSnap {
	snap := ruleSnap{alerts: re.alerts, dedupBase: re.dedupBase, evicted: re.evicted, version: re.version, eventsSeen: re.EventsSeen}
	for k, parts := range re.partials {
		for _, p := range parts {
			snap.partials = append(snap.partials, partialSnap{rule: k.rule, session: k.key, startedAt: p.startedAt,
				events: p.events, next: p.next, matched: p.matched, remaining: p.remaining})
		}
	}
	for k, idx := range re.dedup {
		snap.dedupKeys = append(snap.dedupKeys, k.flat())
		snap.dedupIdx = append(snap.dedupIdx, idx)
	}
	if c := re.clock; c != nil {
		for k, pend := range c.pendings {
			flat := k.flat()
			for _, p := range pend {
				snap.pendings = append(snap.pendings, pendingSnap{key: flat, completedAt: p.completedAt, deadline: p.deadline, alert: p.alert})
			}
		}
		for k, at := range c.lastAbsent {
			snap.lastKeys = append(snap.lastKeys, k.flat())
			snap.lastAt = append(snap.lastAt, at)
		}
	}
	return snap
}

// readRuleEngine decodes rule-matching state, validating every partial
// match and pending absence alert against the ruleset so a decoded
// snapshot can never index out of a rule's step list.
func readRuleEngine(r *snapReader, rules []Rule) ruleSnap {
	var snap ruleSnap
	nk := r.count()
	for i := 0; i < nk && r.err == nil; i++ {
		rule := r.strv()
		session := r.strv()
		target, known := RuleByName(rules, rule)
		if r.err == nil && !known {
			r.fail("core: snapshot references unknown rule %q (ruleset hash should have caught this)", rule)
			break
		}
		np := r.count()
		for j := 0; j < np && r.err == nil; j++ {
			p := partialSnap{
				rule:      rule,
				session:   session,
				startedAt: r.dur(),
				events:    readEvents(r),
				next:      r.vint(),
				matched:   r.boolsv(),
				remaining: r.vint(),
			}
			if r.err != nil {
				break
			}
			steps := len(target.Steps)
			if target.Unordered {
				if len(p.matched) != steps || p.remaining < 1 || p.remaining > steps {
					r.fail("core: snapshot corrupt (partial for rule %q has %d matched flags, remaining %d; rule has %d steps)",
						rule, len(p.matched), p.remaining, steps)
					break
				}
			} else if p.next < 1 || p.next >= steps {
				r.fail("core: snapshot corrupt (partial for rule %q at step %d of %d)", rule, p.next, steps)
				break
			}
			if len(p.events) > steps {
				r.fail("core: snapshot corrupt (partial for rule %q holds %d events for %d steps)", rule, len(p.events), steps)
				break
			}
			snap.partials = append(snap.partials, p)
		}
	}
	snap.alerts = readAlerts(r)
	nd := r.count()
	for i := 0; i < nd && r.err == nil; i++ {
		snap.dedupKeys = append(snap.dedupKeys, r.strv())
		snap.dedupIdx = append(snap.dedupIdx, r.vint())
	}
	snap.dedupBase = r.vint()
	snap.evicted = r.vint()
	snap.version = r.vint()
	snap.eventsSeen = r.vint()
	np := r.count()
	for i := 0; i < np && r.err == nil; i++ {
		key := r.strv()
		if r.err == nil {
			name, _, _ := strings.Cut(key, "|")
			target, known := RuleByName(rules, name)
			if !known {
				r.fail("core: snapshot references unknown rule %q (ruleset hash should have caught this)", name)
				break
			}
			if len(target.Absent) == 0 {
				r.fail("core: snapshot corrupt (pending absence alert for rule %q, which has no absent clause)", name)
				break
			}
		}
		nn := r.count()
		for j := 0; j < nn && r.err == nil; j++ {
			ps := pendingSnap{key: key, completedAt: r.dur(), deadline: r.dur(), alert: readAlert(r)}
			if r.err == nil && ps.deadline < ps.completedAt {
				r.fail("core: snapshot corrupt (pending absence alert for %q matures before it completed)", key)
				break
			}
			snap.pendings = append(snap.pendings, ps)
		}
	}
	nl := r.count()
	for i := 0; i < nl && r.err == nil; i++ {
		snap.lastKeys = append(snap.lastKeys, r.strv())
		snap.lastAt = append(snap.lastAt, r.dur())
	}
	if r.err == nil {
		for i, k := range snap.dedupKeys {
			idx := snap.dedupIdx[i] - snap.dedupBase
			if idx < 0 || idx >= len(snap.alerts) {
				r.fail("core: snapshot corrupt (dedup entry %q points at alert %d of %d)", k, idx, len(snap.alerts))
				return snap
			}
			a := snap.alerts[idx]
			if a.Rule+"|"+a.Session != k {
				r.fail("core: snapshot corrupt (dedup entry %q points at alert for %q)", k, a.Rule+"|"+a.Session)
				return snap
			}
		}
	}
	return snap
}

// installRuleEngine replaces rule-matching state. With outputs false only
// the in-progress partial matches are reinstated (warm shard restart: the
// failed engine's published alerts were already folded into the worker's
// base, so restoring them here would double-count).
func installRuleEngine(re *RuleEngine, snap ruleSnap, outputs bool) {
	byName := make(map[string]*Rule, len(re.rules))
	for i := range re.rules {
		byName[re.rules[i].Name] = &re.rules[i]
	}
	re.partials = make(map[ruleKey][]*partial)
	re.clock = nil
	for _, ps := range snap.partials {
		k := ruleKey{rule: ps.rule, key: ps.session}
		p := &partial{
			startedAt: ps.startedAt,
			events:    ps.events,
			next:      ps.next,
			matched:   ps.matched,
			remaining: ps.remaining,
		}
		re.partials[k] = append(re.partials[k], p)
		if r := byName[ps.rule]; r != nil && r.Window > 0 {
			re.clocked().timers.push(ruleTimer{at: p.startedAt + r.Window + 1, k: k, p: p})
		}
	}
	// The absence machinery is in-flight state like the partials, so it
	// installs on the warm-restart path too. A lookback whose rule has no
	// absent clause can cancel nothing, so it is not reinstated.
	for _, ps := range snap.pendings {
		c := re.clocked()
		k := splitRuleKey(ps.key)
		c.pendSeq++
		p := &pendingAlert{
			key:         k,
			completedAt: ps.completedAt,
			deadline:    ps.deadline,
			alert:       ps.alert,
			seq:         c.pendSeq,
		}
		c.pendings[k] = append(c.pendings[k], p)
		c.due.push(p)
	}
	for i, flat := range snap.lastKeys {
		k := splitRuleKey(flat)
		if r := byName[k.rule]; r != nil && len(r.Absent) > 0 {
			c := re.clocked()
			c.lastAbsent[k] = snap.lastAt[i]
			c.timers.push(ruleTimer{at: snap.lastAt[i] + r.AbsentGrace, k: k, seen: snap.lastAt[i]})
		}
	}
	if !outputs {
		return
	}
	re.alerts = snap.alerts
	re.dedup = make(map[ruleKey]int, len(snap.dedupKeys))
	for i, flat := range snap.dedupKeys {
		re.dedup[splitRuleKey(flat)] = snap.dedupIdx[i]
	}
	re.dedupBase = snap.dedupBase
	re.evicted = snap.evicted
	re.version = snap.version
	re.EventsSeen = snap.eventsSeen
}

// --- engine body ---

type trailSnap struct {
	session string
	proto   Protocol
	length  int
}

// corrBlob is one correlator's private state in serialized form, not yet
// bound to a correlator instance.
type corrBlob struct {
	name string
	blob []byte
}

// rawEngineBody is the one in-memory form of an engine body, with
// correlator state in blob form: exportBody captures it from a live
// engine, parseEngineBody decodes it, writeEngineBody serializes it and
// bindBody readies it for installSnap. The sharded snapshot folds
// per-shard bodies into one global body through this type, and restore
// splits a global body back into per-shard bodies.
type rawEngineBody struct {
	stats           EngineStats
	dstats          DistillerStats
	streams         []packet.FragStream
	reasmEvicted    int
	trails          []trailSnap
	index           indexSnap
	bindings        []string
	bindingIPs      []netip.Addr
	bindingAges     []int
	bindingClock    int
	evictedSessions int
	evictedBindings int
	corrs           []corrBlob
	rules           ruleSnap
	events          []Event
}

// engineSnap is a rawEngineBody whose correlator blobs have been decoded
// against a concrete engine's correlator instances: ready to install.
type engineSnap struct {
	rawEngineBody
	corrInstalls []func()
}

// snapshotters lists the correlators that carry checkpointable private
// state, in registry order.
func snapshotters(correlators []Correlator) []Correlator {
	var out []Correlator
	for _, c := range correlators {
		if _, ok := c.(snapshotter); ok {
			out = append(out, c)
		}
	}
	return out
}

// exportCorrelators serializes every snapshotter correlator's private
// state as a named blob.
func exportCorrelators(correlators []Correlator) []corrBlob {
	snaps := snapshotters(correlators)
	out := make([]corrBlob, len(snaps))
	for i, c := range snaps {
		var cw snapWriter
		c.(snapshotter).snapshotState(&cw)
		out[i] = corrBlob{name: c.Name(), blob: cw.buf}
	}
	return out
}

// readCorrelatorBlobs reads the named correlator-state blobs without
// binding them to correlator instances.
func readCorrelatorBlobs(r *snapReader) []corrBlob {
	n := r.count()
	out := make([]corrBlob, 0, min(n, 64))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, corrBlob{name: r.strv(), blob: r.bytesv()})
	}
	return out
}

// writeCorrBlobs serializes correlator state blobs.
func writeCorrBlobs(w *snapWriter, blobs []corrBlob) {
	w.u32(uint32(len(blobs)))
	for _, cb := range blobs {
		w.str(cb.name)
		w.bytes(cb.blob)
	}
}

// decodeCorrBlob decodes one correlator blob against one correlator
// instance, returning the two-phase install closure.
func decodeCorrBlob(c Correlator, blob []byte) (func(), error) {
	cr := &snapReader{buf: blob}
	install, err := c.(snapshotter).decodeState(cr)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot corrupt (correlator %s: %v)", c.Name(), err)
	}
	if !cr.done() {
		return nil, fmt.Errorf("core: snapshot corrupt (correlator %s: %d trailing bytes)", c.Name(), cr.remaining())
	}
	return install, nil
}

// exportBody captures the engine's full pipeline state as a body whose
// stats block is st: the portable checkpoint passes the folded Stats()
// view (so the block means the same thing whichever engine kind wrote
// it), warm shard blobs the raw per-shard counters. The body aliases the
// engine's live alert, event and partial-match slices, so it must be
// written or folded before the engine runs again.
func (e *Engine) exportBody(st EngineStats) rawEngineBody {
	ctx := e.gen.ctx
	body := rawEngineBody{
		stats:           st,
		dstats:          e.distiller.stats,
		trails:          make([]trailSnap, 0, len(e.trails.trails)),
		index:           exportSessionIndex(e.gen.idx),
		bindingClock:    ctx.bindingClock,
		evictedSessions: ctx.evictedSessions,
		evictedBindings: ctx.evictedBindings,
		corrs:           exportCorrelators(e.gen.correlators),
		rules:           exportRuleEngine(e.rules),
		events:          e.events,
	}
	if reasm := e.distiller.reasm; reasm != nil { // nil on a shard: the router reassembles
		body.streams, body.reasmEvicted = reasm.ExportStreams(), reasm.CapacityEvicted()
	}
	for k, tr := range e.trails.trails {
		body.trails = append(body.trails, trailSnap{session: k.session, proto: k.proto, length: tr.Len()})
	}
	for aor, ip := range ctx.bindings {
		body.bindings = append(body.bindings, aor)
		body.bindingIPs = append(body.bindingIPs, ip)
		body.bindingAges = append(body.bindingAges, ctx.bindingAge[aor])
	}
	return body
}

// parseEngineBody decodes an engine body without binding it to any
// engine: correlator state stays in blob form, and the rule-engine
// section is shape-validated against rules.
func parseEngineBody(r *snapReader, rules []Rule) rawEngineBody {
	var body rawEngineBody
	body.stats = readEngineStats(r)
	body.dstats = readDistillerStats(r)
	body.streams, body.reasmEvicted = readReassembly(r)
	nt := r.count()
	for i := 0; i < nt && r.err == nil; i++ {
		body.trails = append(body.trails, trailSnap{
			session: r.strv(),
			proto:   Protocol(r.vint()),
			length:  r.vint(),
		})
	}
	body.index = readSessionIndex(r)
	nb := r.count()
	for i := 0; i < nb && r.err == nil; i++ {
		body.bindings = append(body.bindings, r.strv())
		body.bindingIPs = append(body.bindingIPs, r.addrv())
		body.bindingAges = append(body.bindingAges, r.vint())
	}
	body.bindingClock = r.vint()
	body.evictedSessions = r.vint()
	body.evictedBindings = r.vint()
	body.corrs = readCorrelatorBlobs(r)
	body.rules = readRuleEngine(r, rules)
	body.events = readEvents(r)
	return body
}

// bindBody decodes a body's correlator blobs against the engine's
// correlator instances, returning the body ready for installSnap. It
// mutates nothing (two-phase: the install closures run only once every
// section of the snapshot has decoded).
func (e *Engine) bindBody(body rawEngineBody) (*engineSnap, error) {
	snaps := snapshotters(e.gen.correlators)
	if len(body.corrs) != len(snaps) {
		return nil, fmt.Errorf("core: snapshot holds %d correlator states; engine has %d stateful correlators", len(body.corrs), len(snaps))
	}
	snap := &engineSnap{rawEngineBody: body}
	for i, cb := range body.corrs {
		if cb.name != snaps[i].Name() {
			return nil, fmt.Errorf("core: snapshot correlator state %q does not match engine correlator %q", cb.name, snaps[i].Name())
		}
		install, err := decodeCorrBlob(snaps[i], cb.blob)
		if err != nil {
			return nil, err
		}
		snap.corrInstalls = append(snap.corrInstalls, install)
	}
	return snap, nil
}

// decodeSnapBodyBytes decodes a standalone engine-body blob (warm shard
// restarts keep these in memory between checkpoints), requiring every
// byte to be consumed.
func (e *Engine) decodeSnapBodyBytes(blob []byte) (*engineSnap, error) {
	r := &snapReader{buf: blob}
	body := parseEngineBody(r, e.rules.rules)
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, fmt.Errorf("core: snapshot corrupt (%d trailing bytes in engine body)", r.remaining())
	}
	return e.bindBody(body)
}

// bodyBytes serializes the engine's body with its raw stats: the
// warm-restart form a shard worker caches.
func (e *Engine) bodyBytes() []byte {
	body := e.exportBody(e.stats)
	var w snapWriter
	writeEngineBody(&w, &body)
	return w.buf
}

// --- body writer ---

// writeEngineBody serializes a body, exported or decoded. Determinism
// comes from sorting every keyed section here rather than trusting input
// order, so the same logical state always yields the same bytes.
func writeEngineBody(w *snapWriter, body *rawEngineBody) {
	writeEngineStats(w, body.stats)
	writeDistillerStats(w, body.dstats)
	writeFragStreams(w, body.streams, body.reasmEvicted)
	trails := append([]trailSnap(nil), body.trails...)
	sort.Slice(trails, func(i, j int) bool {
		if trails[i].session != trails[j].session {
			return trails[i].session < trails[j].session
		}
		return trails[i].proto < trails[j].proto
	})
	w.u32(uint32(len(trails)))
	for _, t := range trails {
		w.str(t.session)
		w.vint(int(t.proto))
		w.vint(t.length)
	}
	writeIndexSnap(w, body.index)
	type binding struct {
		aor string
		ip  netip.Addr
		age int
	}
	binds := make([]binding, len(body.bindings))
	for i, aor := range body.bindings {
		binds[i] = binding{aor: aor, ip: body.bindingIPs[i], age: body.bindingAges[i]}
	}
	// Media-binding LRU ages are renumbered 1..n in (age, AOR) order, so
	// the checkpoint carries only the LRU ORDER, never the raw clock
	// values: those are geometry-dependent (each shard worker stamps with
	// its own clock), and only the order matters for eviction. The clock
	// is written as n, so post-restore insertions always age past every
	// reinstated binding. This is what keeps checkpoints of the same
	// logical state byte-identical across engine geometries.
	sort.Slice(binds, func(i, j int) bool {
		if binds[i].age != binds[j].age {
			return binds[i].age < binds[j].age
		}
		return binds[i].aor < binds[j].aor
	})
	for i := range binds {
		binds[i].age = i + 1
	}
	sort.Slice(binds, func(i, j int) bool { return binds[i].aor < binds[j].aor })
	w.u32(uint32(len(binds)))
	for _, b := range binds {
		w.str(b.aor)
		w.addr(b.ip)
		w.vint(b.age)
	}
	w.vint(len(binds))
	w.vint(body.evictedSessions)
	w.vint(body.evictedBindings)
	writeCorrBlobs(w, body.corrs)
	writeRuleSnap(w, body.rules)
	writeEvents(w, body.events)
}

// writeFragStreams serializes a fragment reassembler's exported streams.
func writeFragStreams(w *snapWriter, streams []packet.FragStream, evicted int) {
	w.u32(uint32(len(streams)))
	for _, s := range streams {
		w.addr(s.ID.Src)
		w.addr(s.ID.Dst)
		w.u8(s.ID.Proto)
		w.u16(s.ID.ID)
		w.bytes(s.Data)
		w.bools(s.Have)
		w.vint(s.TotalLen)
		w.dur(s.First)
	}
	w.vint(evicted)
}

// writeIndexSnap serializes a session index sorted by Call-ID.
func writeIndexSnap(w *snapWriter, snap indexSnap) {
	sessions := append([]sessionSnap(nil), snap.sessions...)
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].st.callID < sessions[j].st.callID })
	w.u32(uint32(len(sessions)))
	for _, s := range sessions {
		st := &s.st
		w.str(st.callID)
		w.dur(st.lastSeen)
		w.bool(st.established)
		w.str(st.callerAOR)
		w.str(st.calleeAOR)
		w.str(st.callerTag)
		w.str(st.calleeTag)
		w.addrPort(st.callerMedia)
		w.addrPort(st.calleeMedia)
		w.addr(st.inviteSrcIP)
		w.bool(st.byeSeen)
		w.dur(st.byeAt)
		w.addrPort(st.byeFromMedia)
		w.u32(st.lastReinviteSeq)
		w.bool(st.reinviteSeen)
		w.dur(st.reinviteAt)
		w.addrPort(st.reinviteOldMedia)
		w.bool(st.badFormat)
		w.bool(st.acctStart)
		w.bool(st.unmatchedOnce)
		w.dur(st.rtcpByeAt)
		w.bool(st.rtcpByePending)
		w.bool(st.rtcpByeFired)
		w.bool(st.isRegistration)
		w.vint(st.challenges)
		w.bool(st.floodFired)
		guesses := append([]string(nil), s.guessResponses...)
		sort.Strings(guesses)
		w.u32(uint32(len(guesses)))
		for _, g := range guesses {
			w.str(g)
		}
		w.bool(st.guessFired)
	}
	regs := append([][2]string(nil), snap.pendingReg...)
	sort.Slice(regs, func(i, j int) bool { return regs[i][0] < regs[j][0] })
	w.u32(uint32(len(regs)))
	for _, reg := range regs {
		w.str(reg[0])
		w.str(reg[1])
	}
}

// writeRuleSnap serializes rule-engine state: partials grouped by
// rule|session key with keys sorted and within-key insertion order
// preserved.
func writeRuleSnap(w *snapWriter, snap ruleSnap) {
	byKey := make(map[string][]partialSnap)
	keys := make([]string, 0, len(snap.partials))
	for _, ps := range snap.partials {
		k := ps.rule + "|" + ps.session
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], ps)
	}
	sort.Strings(keys)
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		parts := byKey[k]
		w.str(parts[0].rule)
		w.str(parts[0].session)
		w.u32(uint32(len(parts)))
		for _, p := range parts {
			w.dur(p.startedAt)
			writeEvents(w, p.events)
			w.vint(p.next)
			w.bools(p.matched)
			w.vint(p.remaining)
		}
	}
	writeAlerts(w, snap.alerts)
	type dedupEntry struct {
		key string
		idx int
	}
	dd := make([]dedupEntry, len(snap.dedupKeys))
	for i, k := range snap.dedupKeys {
		dd[i] = dedupEntry{key: k, idx: snap.dedupIdx[i]}
	}
	sort.Slice(dd, func(i, j int) bool { return dd[i].key < dd[j].key })
	w.u32(uint32(len(dd)))
	for _, d := range dd {
		w.str(d.key)
		w.vint(d.idx)
	}
	w.vint(snap.dedupBase)
	w.vint(snap.evicted)
	w.vint(snap.version)
	w.vint(snap.eventsSeen)
	// Absence machinery (v6): pending graced alerts grouped by rule|key
	// (keys sorted, within-key order preserved), then the absent-event
	// lookback table.
	type pendGroup struct {
		key  string
		pend []pendingSnap
	}
	pendIdx := make(map[string]int)
	var groups []pendGroup
	for _, ps := range snap.pendings {
		i, seen := pendIdx[ps.key]
		if !seen {
			i = len(groups)
			pendIdx[ps.key] = i
			groups = append(groups, pendGroup{key: ps.key})
		}
		groups[i].pend = append(groups[i].pend, ps)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	w.u32(uint32(len(groups)))
	for _, g := range groups {
		w.str(g.key)
		w.u32(uint32(len(g.pend)))
		for _, p := range g.pend {
			w.dur(p.completedAt)
			w.dur(p.deadline)
			writeAlert(w, p.alert)
		}
	}
	type lastEntry struct {
		key string
		at  time.Duration
	}
	la := make([]lastEntry, len(snap.lastKeys))
	for i, k := range snap.lastKeys {
		la[i] = lastEntry{key: k, at: snap.lastAt[i]}
	}
	sort.Slice(la, func(i, j int) bool { return la[i].key < la[j].key })
	w.u32(uint32(len(la)))
	for _, e := range la {
		w.str(e.key)
		w.dur(e.at)
	}
}

// --- routing directory and fragment-buffer codecs ---

// writeSticky serializes the session → route-key pins that make routing
// reproducible across a restore: any geometry can re-derive every live
// dialog's shard from these.
func writeSticky(w *snapWriter, sticky map[string]string) {
	ids := make([]string, 0, len(sticky))
	for id := range sticky {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.u32(uint32(len(ids)))
	for _, id := range ids {
		w.str(id)
		w.str(sticky[id])
	}
}

func readSticky(r *snapReader) (keys, vals []string) {
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		keys = append(keys, r.strv())
		vals = append(vals, r.strv())
	}
	return keys, vals
}

// writeFragGroups serializes the buffered frames of in-progress IP
// fragment groups, so a restoring router can ship each completed group to
// its shard exactly as an uninterrupted run would have.
func writeFragGroups(w *snapWriter, frags map[fragIdent]*fragGroup) {
	idents := make([]fragIdent, 0, len(frags))
	for id := range frags {
		idents = append(idents, id)
	}
	sort.Slice(idents, func(i, j int) bool {
		a, b := idents[i], idents[j]
		if c := a.src.Compare(b.src); c != 0 {
			return c < 0
		}
		if c := a.dst.Compare(b.dst); c != 0 {
			return c < 0
		}
		if a.proto != b.proto {
			return a.proto < b.proto
		}
		return a.id < b.id
	})
	w.u32(uint32(len(idents)))
	for _, id := range idents {
		grp := frags[id]
		w.addr(id.src)
		w.addr(id.dst)
		w.u8(id.proto)
		w.u16(id.id)
		w.dur(grp.first)
		w.u32(uint32(len(grp.frames)))
		for _, f := range grp.frames {
			w.dur(f.at)
			w.bytes(f.frame)
		}
	}
}

func readFragGroups(r *snapReader) (idents []fragIdent, firsts []time.Duration, frames [][]routedFrame) {
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		idents = append(idents, fragIdent{
			src:   r.addrv(),
			dst:   r.addrv(),
			proto: r.u8(),
			id:    r.u16(),
		})
		firsts = append(firsts, r.dur())
		nf := r.count()
		var fs []routedFrame
		for j := 0; j < nf && r.err == nil; j++ {
			fs = append(fs, routedFrame{at: r.dur(), frame: r.bytesv()})
		}
		frames = append(frames, fs)
	}
	return idents, firsts, frames
}

// writeStreamMux serializes the stream-transport demux (serial distiller
// or sharded router — shards hold no stream state): every tracked TCP
// stream direction's reassembly state (delivery cursor, FIN bookkeeping,
// buffered out-of-order segments), that direction's SIP framing buffer
// (the incomplete message prefix), and the capacity-eviction counter.
// ExportStreams sorts by stream identity, so the encoding is
// deterministic. A nil mux (shard-local engine) writes an empty section.
func writeStreamMux(w *snapWriter, m *streamMux) {
	if m == nil {
		w.u32(0)
		w.vint(0)
		return
	}
	streams := m.reasm.ExportStreams()
	w.u32(uint32(len(streams)))
	for _, st := range streams {
		w.addrPort(st.ID.Src)
		w.addrPort(st.ID.Dst)
		w.u32(st.Next)
		w.bool(st.Fin)
		w.u32(st.FinSeq)
		w.dur(st.First)
		w.dur(st.Last)
		w.u32(uint32(len(st.Segs)))
		for _, sg := range st.Segs {
			w.u32(sg.Seq)
			w.bytes(sg.Data)
		}
		if dir := m.dirs[st.ID]; dir != nil {
			w.bytes(dir.framer.State())
		} else {
			w.bytes(nil)
		}
	}
	w.vint(m.reasm.CapacityEvicted())
}

func readStreamMux(r *snapReader) (streams []packet.TCPStreamState, framerBufs [][]byte, evicted int) {
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		st := packet.TCPStreamState{
			ID: packet.StreamID{Src: r.addrPortv(), Dst: r.addrPortv()},
		}
		st.Next = r.u32()
		st.Fin = r.boolv()
		st.FinSeq = r.u32()
		st.First = r.dur()
		st.Last = r.dur()
		ns := r.count()
		for j := 0; j < ns && r.err == nil; j++ {
			st.Segs = append(st.Segs, packet.TCPStreamSeg{Seq: r.u32(), Data: r.bytesv()})
		}
		streams = append(streams, st)
		framerBufs = append(framerBufs, r.bytesv())
	}
	evicted = r.vint()
	return streams, framerBufs, evicted
}

// install replaces the mux's state with a decoded checkpoint section. The
// pending-message queue is always empty at snapshot time (both engines
// drain extracted messages before the next frame), so only reassembly and
// framing state carry over.
func (m *streamMux) install(streams []packet.TCPStreamState, framerBufs [][]byte, evicted int) {
	m.reasm.ImportStreams(streams, evicted)
	clear(m.dirs)
	for i, st := range streams {
		dir := newStreamDir(st.ID)
		dir.framer.SetState(framerBufs[i])
		m.dirs[st.ID] = dir
	}
	m.queue, m.qhead = m.queue[:0], 0
}

// installSnap installs a fully decoded body. With outputs true everything
// is reinstated (process resume); with outputs false only detection state is
// reinstated — stats, retained alerts/events, dedup suppression and the
// rule-engine version stay fresh, which is what a warm shard restart needs
// because the failed engine's outputs were already folded into the
// worker's base.
func (e *Engine) installSnap(snap *engineSnap, outputs bool) {
	evicted := 0
	if outputs {
		e.stats, e.distiller.stats, evicted = snap.stats, snap.dstats, snap.reasmEvicted
	}
	if e.distiller.reasm != nil { // nil on a shard: the router reassembles
		e.distiller.reasm.ImportStreams(snap.streams, evicted)
	}
	clear(e.trails.trails)
	for _, t := range snap.trails {
		e.trails.trails[trailKey{session: t.session, proto: t.proto}] = &Trail{
			Session:  t.session,
			Protocol: t.proto,
			n:        t.length,
			maxLen:   e.trails.MaxTrailLen,
		}
	}
	installSessionIndex(e.gen.idx, snap.index)
	ctx := e.gen.ctx
	clear(ctx.bindings)
	clear(ctx.bindingAge)
	for i, aor := range snap.bindings {
		ctx.bindings[aor] = snap.bindingIPs[i]
		ctx.bindingAge[aor] = snap.bindingAges[i]
	}
	ctx.bindingClock = snap.bindingClock
	if outputs {
		ctx.evictedSessions = snap.evictedSessions
		ctx.evictedBindings = snap.evictedBindings
	}
	for _, install := range snap.corrInstalls {
		install()
	}
	installRuleEngine(e.rules, snap.rules, outputs)
	if outputs {
		e.events = snap.events
	}
}

// header returns the serial engine's snapshot identity.
func (e *Engine) header() snapHeader {
	return snapHeader{
		engineKind:  snapKindSerial,
		shards:      1,
		ingesters:   1,
		frames:      uint64(e.stats.Frames),
		configHash:  configFingerprint(e.cfg, e.keepLog),
		rulesHash:   rulesFingerprint(e.rules.rules),
		correlators: correlatorNames(e.gen.correlators),
	}
}

// Snapshot serializes the engine's complete detection state into a
// versioned, checksummed, geometry-portable checkpoint: the folded Stats()
// view as the stats block, the session-keyed body, the routing directory
// and the buffered fragment groups, so any shards × ingest geometry (or
// the serial engine) can restore it. It must not run concurrently with
// HandleFrame.
func (e *Engine) Snapshot() ([]byte, error) {
	var w snapWriter
	writeSnapHeader(&w, e.header())
	body := e.exportBody(e.Stats())
	writeEngineBody(&w, &body)
	writeSticky(&w, e.gen.sticky)
	writeFragGroups(&w, e.distiller.frags.groups)
	writeStreamMux(&w, e.distiller.streams)
	w.u64(fnv64(w.buf))
	return w.buf, nil
}

// RestoreSnapshot rebuilds the engine's state from a portable checkpoint
// written by either engine kind at any geometry. The engine must be fresh
// (no frames processed); correlator set, ruleset and config are validated
// against the header, each mismatch yielding a descriptive error that says
// how to proceed. On any error the engine is left untouched.
func (e *Engine) RestoreSnapshot(data []byte) error {
	if e.stats.Frames != 0 {
		return fmt.Errorf("core: restore requires a fresh engine (this one already processed %d frames)", e.stats.Frames)
	}
	h, r, err := openSnapshot(data)
	if err != nil {
		return err
	}
	if err := validateSnapHeader(h, e.header()); err != nil {
		return err
	}
	body := parseEngineBody(r, e.rules.rules)
	if r.err != nil {
		return r.err
	}
	snap, err := e.bindBody(body)
	if err != nil {
		return err
	}
	stickyKeys, stickyVals := readSticky(r)
	fragIdents, fragFirsts, fragFrames := readFragGroups(r)
	tcpStreams, framerBufs, tcpEvicted := readStreamMux(r)
	if r.err != nil {
		return r.err
	}
	if !r.done() {
		return fmt.Errorf("core: snapshot corrupt (%d trailing bytes)", r.remaining())
	}
	e.installSnap(snap, true)
	// The portable stats block is the folded Stats() view, which already
	// contains the correlator-owned eviction counters; contributeStats
	// re-adds those from the reinstated correlator atomics, so zero them in
	// the base block to count each eviction once.
	e.stats.IMHistoriesEvicted = 0
	e.stats.SeqTrackersEvicted = 0
	clear(e.gen.sticky)
	for i, id := range stickyKeys {
		e.gen.sticky[id] = stickyVals[i]
	}
	e.distiller.frags.install(fragIdents, fragFirsts, fragFrames)
	if e.distiller.streams != nil {
		e.distiller.streams.install(tcpStreams, framerBufs, tcpEvicted)
	}
	return nil
}
