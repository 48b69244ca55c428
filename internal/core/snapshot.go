package core

import (
	"encoding"
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
// Every record is spelled once, as a walk over a codec that either
// encodes or decodes: the function that writes a record is the function
// that reads it back, so the two directions cannot disagree about a
// layout. Export builds the record form (rawEngineBody and its parts)
// from a live engine, canonical() puts it in its one deterministic order,
// and the walk encodes it; restore walks the bytes into the same form,
// shape-checks it against the ruleset and only then installs it.
//
// Format v6, in walk order:
//
//	header    "SCDV", version 6, engine kind, shard count, ingest width,
//	          frames processed, config hash, rules hash, correlator names
//	body      engine stats, distiller stats, IP fragment streams and the
//	          reassembler's eviction count, trails, session index
//	          (dialogs, then pending registrations), media bindings with
//	          their LRU clock and the eviction counters, correlator state
//	          blobs, the rule-engine section (partial matches grouped by
//	          rule|key, retained alerts, dedup entries, counters, pending
//	          absence alerts grouped by rule|key, absent-event lookbacks),
//	          the event log
//	tail      sticky route pins, buffered fragment groups, TCP stream
//	          reassembly with each direction's SIP framing prefix and the
//	          stream eviction count
//	checksum  FNV-1a 64 over everything before it
//
// The body is keyed by session, not by shard, so a checkpoint is portable
// across engine geometry: both engine kinds write the same global layout
// and restore re-routes every session through the restoring engine's own
// router config. A checkpoint captured serial or at 8 shards × 2
// ingesters resumes at any shards × ingest combination, in either engine
// kind; the engine kind, shard count and ingest width recorded in the
// header are informational only.
//
// Restore is strictly decode-validate-install: the entire body is decoded
// into intermediate structures (correlator state included, via the
// snapshotter capability's two-phase decode) and only if every section
// decodes cleanly is any engine state mutated. A corrupt, truncated or
// mismatched checkpoint therefore returns an error and leaves the engine
// exactly as it was — never partially reinstated (FuzzSnapshotDecode holds
// the decoder to this).

const (
	snapMagic   = "SCDV"
	snapVersion = 6

	snapKindSerial  = 0
	snapKindSharded = 1
)

// --- codec ---

// codec walks a record in one direction. An encoding codec appends every
// field a walk visits to buf; a decoding codec reads each field from buf
// into the walked value, with bounds checking. The first decode failure
// sticks: every later field leaves its target zero, so walks are written
// straight-line and the caller checks err once.
type codec struct {
	enc bool
	// wide makes list counts 8 bytes instead of 4 (the SCAG layout).
	// String and byte-string lengths are 4 bytes either way.
	wide bool
	buf  []byte
	off  int
	err  error
}

// encoder starts an encoding codec with a magic tag and version byte.
func encoder(magic string, version uint8) *codec {
	return &codec{enc: true, buf: append([]byte(magic), version)}
}

// sealed appends the FNV-1a checksum of everything encoded so far and
// returns the finished bytes.
func (c *codec) sealed() []byte {
	return binary.BigEndian.AppendUint64(c.buf, fnv64(c.buf))
}

// encodeAll runs walk on a fresh encoder with no envelope.
func encodeAll(walk func(*codec)) []byte {
	c := &codec{enc: true}
	walk(c)
	return c.buf
}

// decodeAll walks the whole of blob; what names the blob in the error
// for bytes left over.
func decodeAll(blob []byte, what string, walk func(*codec)) error {
	c := &codec{buf: blob}
	walk(c)
	if c.err == nil && c.remaining() > 0 {
		return fmt.Errorf("core: snapshot corrupt (%d trailing bytes in %s)", c.remaining(), what)
	}
	return c.err
}

// close reports a control-plane decode that failed or left bytes unread,
// naming the frame kind.
func (c *codec) close(what string) error {
	if c.err != nil {
		return fmt.Errorf("core: %s corrupt: %w", what, c.err)
	}
	if n := c.remaining(); n > 0 {
		return fmt.Errorf("core: %s corrupt (%d trailing bytes)", what, n)
	}
	return nil
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *codec) remaining() int { return len(c.buf) - c.off }

func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.buf) {
		c.fail("core: snapshot truncated (need %d bytes at offset %d of %d)", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *codec) u8(v *uint8) {
	if c.enc {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *codec) u16(v *uint16) {
	if c.enc {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.BigEndian.Uint16(b)
	}
}

func (c *codec) u32(v *uint32) {
	if c.enc {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if c.enc {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// vint walks an int as 8 bytes.
func (c *codec) vint(v *int) {
	u := uint64(int64(*v))
	c.u64(&u)
	*v = int(int64(u))
}

func (c *codec) dur(d *time.Duration) {
	u := uint64(int64(*d))
	c.u64(&u)
	*d = time.Duration(int64(u))
}

func (c *codec) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	*v = b != 0
}

// enum walks an int-kinded value (event type, severity, protocol) as a
// vint.
func enum[T ~int](c *codec, v *T) {
	n := int(*v)
	c.vint(&n)
	*v = T(n)
}

// size walks a length or element count, 8 bytes wide or 4. Decoding
// refuses one larger than the bytes left — every element takes at least
// one — so a hostile length prefix cannot drive a huge allocation or a
// long loop.
func (c *codec) size(n *int, wide bool) {
	if wide {
		u := uint64(*n)
		c.u64(&u)
		*n = int(u)
	} else {
		u := uint32(*n)
		c.u32(&u)
		*n = int(u)
	}
	if !c.enc && c.err == nil && (*n < 0 || *n > c.remaining()) {
		c.fail("core: snapshot corrupt (count %d exceeds %d remaining bytes)", *n, c.remaining())
		*n = 0
	}
}

// count walks a list's element count.
func (c *codec) count(n *int) { c.size(n, c.wide) }

func (c *codec) bytes(b *[]byte) {
	n := len(*b)
	c.size(&n, false)
	if c.enc {
		c.buf = append(c.buf, *b...)
	} else if v := c.take(n); v != nil {
		*b = append([]byte(nil), v...)
	}
}

func (c *codec) str(s *string) {
	n := len(*s)
	c.size(&n, false)
	if c.enc {
		c.buf = append(c.buf, *s...)
	} else if v := c.take(n); v != nil {
		*s = string(v)
	}
}

// binary walks a value through its binary marshalling as a byte string.
func (c *codec) binary(v interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}, what string) {
	var b []byte
	if c.enc {
		b, _ = v.MarshalBinary()
	}
	c.bytes(&b)
	if !c.enc && c.err == nil {
		if err := v.UnmarshalBinary(b); err != nil {
			c.fail("core: snapshot corrupt (bad %s: %v)", what, err)
		}
	}
}

func (c *codec) addr(a *netip.Addr)          { c.binary(a, "address") }
func (c *codec) addrPort(ap *netip.AddrPort) { c.binary(ap, "address:port") }

// seq walks a counted list. Decoding sizes the slice by min(n, 4096):
// count has already refused an n beyond the bytes left, and the cap keeps
// a hostile n from reserving more than a few pages up front.
func seq[T any](c *codec, xs *[]T, walk func(*codec, *T)) {
	n := len(*xs)
	c.count(&n)
	if c.enc {
		for i := range *xs {
			walk(c, &(*xs)[i])
		}
		return
	}
	if c.err != nil {
		return
	}
	out := make([]T, 0, min(n, 4096))
	for i := 0; i < n && c.err == nil; i++ {
		var zero T
		out = append(out, zero)
		walk(c, &out[i])
	}
	*xs = out
}

// sorted returns a sorted copy of xs. Canonical order never sorts in
// place: a record may alias a live engine's or another record's slices.
func sorted[T any](xs []T, less func(a, b T) bool) []T {
	out := append([]T(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
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
	shards      uint32
	ingesters   uint32
	frames      uint64
	configHash  uint64
	rulesHash   uint64
	correlators []string
}

func walkSnapHeader(c *codec, h *snapHeader) {
	c.u8(&h.engineKind)
	c.u32(&h.shards)
	c.u32(&h.ingesters)
	c.u64(&h.frames)
	c.u64(&h.configHash)
	c.u64(&h.rulesHash)
	seq(c, &h.correlators, (*codec).str)
}

// openSnapshot verifies the checksum, magic and version of a snapshot and
// returns the decoded header plus a codec positioned at the body.
func openSnapshot(data []byte) (snapHeader, *codec, error) {
	if len(data) < len(snapMagic)+8 {
		return snapHeader{}, nil, fmt.Errorf("core: checkpoint truncated (%d bytes)", len(data))
	}
	sum := binary.BigEndian.Uint64(data[len(data)-8:])
	if got := fnv64(data[:len(data)-8]); got != sum {
		return snapHeader{}, nil, fmt.Errorf("core: checkpoint corrupt (checksum %016x, computed %016x)", sum, got)
	}
	c := &codec{buf: data[:len(data)-8]}
	if magic := c.take(len(snapMagic)); string(magic) != snapMagic {
		return snapHeader{}, nil, fmt.Errorf("core: not a SCIDIVE checkpoint (bad magic %q)", magic)
	}
	var v uint8
	c.u8(&v)
	if v != snapVersion {
		return snapHeader{}, nil, fmt.Errorf("core: checkpoint is format v%d; this build reads only v%d checkpoints — re-capture a checkpoint with this build", v, snapVersion)
	}
	var h snapHeader
	walkSnapHeader(c, &h)
	return h, c, c.err
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
	return SnapshotInfo{Sharded: h.engineKind == snapKindSharded, Shards: int(h.shards), Ingesters: int(h.ingesters), Frames: h.frames}, nil
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

// --- shared records ---

// walkEvent walks every field an Event has.
func walkEvent(c *codec, ev *Event) {
	c.dur(&ev.At)
	enum(c, &ev.Type)
	c.str(&ev.Session)
	c.str(&ev.Detail)
	c.str(&ev.Point)
}

func walkAlert(c *codec, a *Alert) {
	c.dur(&a.At)
	c.str(&a.Rule)
	enum(c, &a.Severity)
	c.str(&a.Session)
	c.str(&a.Detail)
	c.vint(&a.Count)
	seq(c, &a.Events, walkEvent)
}

func walkEngineStats(c *codec, st *EngineStats) {
	for _, p := range []*int{
		&st.Frames, &st.Footprints, &st.Events, &st.Alerts, &st.SessionsEvicted,
		&st.FramesAfterClose, &st.FramesShed, &st.BatchesShed,
		&st.SessionsCapEvicted, &st.FragGroupsEvicted, &st.StreamsEvicted,
		&st.IMHistoriesEvicted,
		&st.SeqTrackersEvicted, &st.BindingsEvicted, &st.AlertsEvicted,
		&st.EventsEvicted, &st.ShardsFailed, &st.ShardsRestarted,
	} {
		c.vint(p)
	}
}

func walkDistillerStats(c *codec, st *DistillerStats) {
	for _, p := range []*int{&st.Frames, &st.Fragments, &st.DecodeError, &st.SIP, &st.RTP, &st.RTCP, &st.Acct, &st.Raw, &st.Ignored, &st.Mismatched, &st.Streamed, &st.StreamMsgs} {
		c.vint(p)
	}
}

// walkPair walks two strings: a pending registration (Call-ID, AOR) or a
// sticky route pin (session, routing key).
func walkPair(c *codec, p *[2]string) {
	c.str(&p[0])
	c.str(&p[1])
}

// --- session index ---

// sessionSnap is the record form of one sessionState.
type sessionSnap struct {
	st             sessionState
	guessResponses []string
}

type indexSnap struct {
	sessions   []sessionSnap
	pendingReg [][2]string
}

func walkSession(c *codec, s *sessionSnap) {
	st := &s.st
	c.str(&st.callID)
	c.dur(&st.lastSeen)
	c.bool(&st.established)
	c.str(&st.callerAOR)
	c.str(&st.calleeAOR)
	c.str(&st.callerTag)
	c.str(&st.calleeTag)
	c.addrPort(&st.callerMedia)
	c.addrPort(&st.calleeMedia)
	c.addr(&st.inviteSrcIP)
	c.bool(&st.byeSeen)
	c.dur(&st.byeAt)
	c.addrPort(&st.byeFromMedia)
	c.u32(&st.lastReinviteSeq)
	c.bool(&st.reinviteSeen)
	c.dur(&st.reinviteAt)
	c.addrPort(&st.reinviteOldMedia)
	c.bool(&st.badFormat)
	c.bool(&st.acctStart)
	c.bool(&st.unmatchedOnce)
	c.dur(&st.rtcpByeAt)
	c.bool(&st.rtcpByePending)
	c.bool(&st.rtcpByeFired)
	c.bool(&st.isRegistration)
	c.vint(&st.challenges)
	c.bool(&st.floodFired)
	seq(c, &s.guessResponses, (*codec).str)
	c.bool(&st.guessFired)
}

func walkIndex(c *codec, x *indexSnap) {
	seq(c, &x.sessions, walkSession)
	seq(c, &x.pendingReg, walkPair)
}

// exportSessionIndex captures the index's dialogs and pending
// registrations in record form.
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

// canonical sorts dialogs by Call-ID (each one's guessed responses too)
// and pending registrations by Call-ID.
func (x indexSnap) canonical() indexSnap {
	x.sessions = sorted(x.sessions, func(a, b sessionSnap) bool { return a.st.callID < b.st.callID })
	for i := range x.sessions {
		x.sessions[i].guessResponses = sorted(x.sessions[i].guessResponses, func(a, b string) bool { return a < b })
	}
	x.pendingReg = sorted(x.pendingReg, func(a, b [2]string) bool { return a[0] < b[0] })
	return x
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

func walkFragStream(c *codec, s *packet.FragStream) {
	c.addr(&s.ID.Src)
	c.addr(&s.ID.Dst)
	c.u8(&s.ID.Proto)
	c.u16(&s.ID.ID)
	c.bytes(&s.Data)
	seq(c, &s.Have, (*codec).bool)
	c.vint(&s.TotalLen)
	c.dur(&s.First)
}

// --- rule engine ---

// partialGroup is the partial matches filed under one rule|key, in
// filing order.
type partialGroup struct {
	rule, session string
	parts         []partial
}

// pendingGroup is the pending absence alerts filed under one rule|key,
// in filing order. Only completedAt, deadline and alert are carried.
type pendingGroup struct {
	key  string // ruleName|corrKey
	pend []pendingAlert
}

type dedupEntry struct {
	key string // ruleName|corrKey
	idx int
}

type lastEntry struct {
	key string // ruleName|corrKey
	at  time.Duration
}

type ruleSnap struct {
	partials   []partialGroup
	alerts     []Alert
	dedup      []dedupEntry
	dedupBase  int
	evicted    int
	version    int
	eventsSeen int
	pendings   []pendingGroup
	lastAbsent []lastEntry // absent-event lookbacks
}

func walkPartialGroup(c *codec, g *partialGroup) {
	c.str(&g.rule)
	c.str(&g.session)
	seq(c, &g.parts, func(c *codec, p *partial) {
		c.dur(&p.startedAt)
		seq(c, &p.events, walkEvent)
		c.vint(&p.next)
		seq(c, &p.matched, (*codec).bool)
		c.vint(&p.remaining)
	})
}

func walkPendingGroup(c *codec, g *pendingGroup) {
	c.str(&g.key)
	seq(c, &g.pend, func(c *codec, p *pendingAlert) {
		c.dur(&p.completedAt)
		c.dur(&p.deadline)
		walkAlert(c, &p.alert)
	})
}

func walkRuleSnap(c *codec, s *ruleSnap) {
	seq(c, &s.partials, walkPartialGroup)
	seq(c, &s.alerts, walkAlert)
	seq(c, &s.dedup, func(c *codec, d *dedupEntry) {
		c.str(&d.key)
		c.vint(&d.idx)
	})
	c.vint(&s.dedupBase)
	c.vint(&s.evicted)
	c.vint(&s.version)
	c.vint(&s.eventsSeen)
	seq(c, &s.pendings, walkPendingGroup)
	seq(c, &s.lastAbsent, func(c *codec, l *lastEntry) {
		c.str(&l.key)
		c.dur(&l.at)
	})
}

// exportRuleEngine captures rule-matching state in record form. It
// aliases the engine's alerts and partial-match slices (see exportBody).
func exportRuleEngine(re *RuleEngine) ruleSnap {
	snap := ruleSnap{alerts: re.alerts, dedupBase: re.dedupBase, evicted: re.evicted, version: re.version, eventsSeen: re.EventsSeen}
	for k, parts := range re.partials {
		if len(parts) == 0 {
			continue
		}
		g := partialGroup{rule: k.rule, session: k.key, parts: make([]partial, len(parts))}
		for i, p := range parts {
			g.parts[i] = *p
		}
		snap.partials = append(snap.partials, g)
	}
	for k, idx := range re.dedup {
		snap.dedup = append(snap.dedup, dedupEntry{key: k.flat(), idx: idx})
	}
	if c := re.clock; c != nil {
		for k, pend := range c.pendings {
			if len(pend) == 0 {
				continue
			}
			g := pendingGroup{key: k.flat(), pend: make([]pendingAlert, len(pend))}
			for i, p := range pend {
				g.pend[i] = *p
			}
			snap.pendings = append(snap.pendings, g)
		}
		for k, at := range c.lastAbsent {
			snap.lastAbsent = append(snap.lastAbsent, lastEntry{key: k.flat(), at: at})
		}
	}
	return snap
}

// canonical merges the partial and pending groups filed under the same
// rule|key (a sharded fold can bring one key from two shards), keeping
// filing order inside a group, and sorts every keyed list by key.
func (s ruleSnap) canonical() ruleSnap {
	s.partials = mergeGroups(s.partials, func(g partialGroup) string { return g.rule + "|" + g.session },
		func(g *partialGroup) *[]partial { return &g.parts })
	s.pendings = mergeGroups(s.pendings, func(g pendingGroup) string { return g.key },
		func(g *pendingGroup) *[]pendingAlert { return &g.pend })
	s.dedup = sorted(s.dedup, func(a, b dedupEntry) bool { return a.key < b.key })
	s.lastAbsent = sorted(s.lastAbsent, func(a, b lastEntry) bool { return a.key < b.key })
	return s
}

// mergeGroups appends each group's items to the first group with the same
// key and returns the merged groups sorted by key, writing to none of
// gs's arrays.
func mergeGroups[G, T any](gs []G, key func(G) string, items func(*G) *[]T) []G {
	type keyed struct {
		key string
		g   G
	}
	at := make(map[string]int, len(gs))
	var out []keyed
	for _, g := range gs {
		k := key(g)
		i, seen := at[k]
		if !seen {
			at[k] = len(out)
			out = append(out, keyed{key: k, g: g})
			continue
		}
		dst := items(&out[i].g)
		*dst = append((*dst)[:len(*dst):len(*dst)], *items(&g)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	merged := make([]G, len(out))
	for i := range out {
		merged[i] = out[i].g
	}
	return merged
}

// validate shape-checks a decoded rule-engine section against the
// ruleset, so an installed snapshot can never index out of a rule's step
// list, file a pending alert under a rule that cannot hold one, or leave
// a dedup entry pointing at the wrong alert.
func (s *ruleSnap) validate(rules []Rule) error {
	for _, g := range s.partials {
		target, known := RuleByName(rules, g.rule)
		if !known {
			return fmt.Errorf("core: snapshot references unknown rule %q (ruleset hash should have caught this)", g.rule)
		}
		steps := len(target.Steps)
		for _, p := range g.parts {
			if target.Unordered {
				if len(p.matched) != steps || p.remaining < 1 || p.remaining > steps {
					return fmt.Errorf("core: snapshot corrupt (partial for rule %q has %d matched flags, remaining %d; rule has %d steps)",
						g.rule, len(p.matched), p.remaining, steps)
				}
			} else if p.next < 1 || p.next >= steps {
				return fmt.Errorf("core: snapshot corrupt (partial for rule %q at step %d of %d)", g.rule, p.next, steps)
			}
			if len(p.events) > steps {
				return fmt.Errorf("core: snapshot corrupt (partial for rule %q holds %d events for %d steps)", g.rule, len(p.events), steps)
			}
		}
	}
	for _, g := range s.pendings {
		name, _, _ := strings.Cut(g.key, "|")
		target, known := RuleByName(rules, name)
		if !known {
			return fmt.Errorf("core: snapshot references unknown rule %q (ruleset hash should have caught this)", name)
		}
		if len(target.Absent) == 0 {
			return fmt.Errorf("core: snapshot corrupt (pending absence alert for rule %q, which has no absent clause)", name)
		}
		for _, p := range g.pend {
			if p.deadline < p.completedAt {
				return fmt.Errorf("core: snapshot corrupt (pending absence alert for %q matures before it completed)", g.key)
			}
		}
	}
	for _, d := range s.dedup {
		idx := d.idx - s.dedupBase
		if idx < 0 || idx >= len(s.alerts) {
			return fmt.Errorf("core: snapshot corrupt (dedup entry %q points at alert %d of %d)", d.key, idx, len(s.alerts))
		}
		if a := s.alerts[idx]; a.Rule+"|"+a.Session != d.key {
			return fmt.Errorf("core: snapshot corrupt (dedup entry %q points at alert for %q)", d.key, a.Rule+"|"+a.Session)
		}
	}
	return nil
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
	for _, g := range snap.partials {
		k := ruleKey{rule: g.rule, key: g.session}
		r := byName[g.rule]
		for i := range g.parts {
			p := new(partial)
			*p = g.parts[i]
			re.partials[k] = append(re.partials[k], p)
			if r != nil && r.Window > 0 {
				re.clocked().timers.push(ruleTimer{at: p.startedAt + r.Window + 1, k: k, p: p})
			}
		}
	}
	// The absence machinery is in-flight state like the partials, so it
	// installs on the warm-restart path too. A lookback whose rule has no
	// absent clause can cancel nothing, so it is not reinstated.
	for _, g := range snap.pendings {
		k := splitRuleKey(g.key)
		for _, ps := range g.pend {
			c := re.clocked()
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
	}
	for _, l := range snap.lastAbsent {
		k := splitRuleKey(l.key)
		if r := byName[k.rule]; r != nil && len(r.Absent) > 0 {
			c := re.clocked()
			c.lastAbsent[k] = l.at
			c.timers.push(ruleTimer{at: l.at + r.AbsentGrace, k: k, seen: l.at})
		}
	}
	if !outputs {
		return
	}
	re.alerts = snap.alerts
	re.dedup = make(map[ruleKey]int, len(snap.dedup))
	for _, d := range snap.dedup {
		re.dedup[splitRuleKey(d.key)] = d.idx
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

type bindingSnap struct {
	aor string
	ip  netip.Addr
	age int
}

// corrBlob is one correlator's private state in serialized form, not yet
// bound to a correlator instance.
type corrBlob struct {
	name string
	blob []byte
}

// rawEngineBody is the record form of an engine body, with correlator
// state in blob form: exportBody captures it from a live engine,
// walkEngineBody encodes or decodes it, and bindBody readies a decoded
// one for installSnap. The sharded snapshot folds per-shard bodies into
// one global body through this type, and restore splits a global body
// back into per-shard bodies.
type rawEngineBody struct {
	stats           EngineStats
	dstats          DistillerStats
	streams         []packet.FragStream
	reasmEvicted    int
	trails          []trailSnap
	index           indexSnap
	bindings        []bindingSnap
	bindingClock    int
	evictedSessions int
	evictedBindings int
	corrs           []corrBlob
	rules           ruleSnap
	events          []Event
}

func walkEngineBody(c *codec, b *rawEngineBody) {
	walkEngineStats(c, &b.stats)
	walkDistillerStats(c, &b.dstats)
	seq(c, &b.streams, walkFragStream)
	c.vint(&b.reasmEvicted)
	seq(c, &b.trails, func(c *codec, t *trailSnap) {
		c.str(&t.session)
		enum(c, &t.proto)
		c.vint(&t.length)
	})
	walkIndex(c, &b.index)
	seq(c, &b.bindings, func(c *codec, bs *bindingSnap) {
		c.str(&bs.aor)
		c.addr(&bs.ip)
		c.vint(&bs.age)
	})
	c.vint(&b.bindingClock)
	c.vint(&b.evictedSessions)
	c.vint(&b.evictedBindings)
	seq(c, &b.corrs, func(c *codec, cb *corrBlob) {
		c.str(&cb.name)
		c.bytes(&cb.blob)
	})
	walkRuleSnap(c, &b.rules)
	seq(c, &b.events, walkEvent)
}

// canonical returns the body in the one order every encoder writes, so
// the same logical state always yields the same bytes: keyed sections
// sorted, rule groups merged per key, and media-binding ages renumbered.
func (b rawEngineBody) canonical() rawEngineBody {
	b.trails = sorted(b.trails, func(x, y trailSnap) bool {
		if x.session != y.session {
			return x.session < y.session
		}
		return x.proto < y.proto
	})
	b.index = b.index.canonical()
	// Media-binding LRU ages are renumbered 1..n in (age, AOR) order, so
	// the checkpoint carries only the LRU ORDER, never the raw clock
	// values: those are geometry-dependent (each shard worker stamps with
	// its own clock), and only the order matters for eviction. The clock
	// becomes n, so post-restore insertions always age past every
	// reinstated binding. This is what keeps checkpoints of the same
	// logical state byte-identical across engine geometries.
	binds := sorted(b.bindings, func(x, y bindingSnap) bool {
		if x.age != y.age {
			return x.age < y.age
		}
		return x.aor < y.aor
	})
	for i := range binds {
		binds[i].age = i + 1
	}
	sort.Slice(binds, func(i, j int) bool { return binds[i].aor < binds[j].aor })
	b.bindings, b.bindingClock = binds, len(binds)
	b.rules = b.rules.canonical()
	return b
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

// encodeCorrState serializes one snapshotter correlator's private state.
func encodeCorrState(c Correlator) []byte {
	return encodeAll(func(cd *codec) { c.(snapshotter).walkState(cd) })
}

// exportCorrelators serializes every snapshotter correlator's private
// state as a named blob.
func exportCorrelators(correlators []Correlator) []corrBlob {
	snaps := snapshotters(correlators)
	out := make([]corrBlob, len(snaps))
	for i, c := range snaps {
		out[i] = corrBlob{name: c.Name(), blob: encodeCorrState(c)}
	}
	return out
}

// decodeCorrBlob decodes one correlator blob against one correlator
// instance, returning the two-phase install closure.
func decodeCorrBlob(c Correlator, blob []byte) (install func(), err error) {
	err = decodeAll(blob, "state", func(cd *codec) { install = c.(snapshotter).walkState(cd) })
	if err != nil {
		return nil, fmt.Errorf("core: snapshot corrupt (correlator %s: %v)", c.Name(), err)
	}
	return install, nil
}

// exportBody captures the engine's full pipeline state as a body whose
// stats block is st: the portable checkpoint passes the folded Stats()
// view (so the block means the same thing whichever engine kind wrote
// it), warm shard blobs the raw per-shard counters. The body aliases the
// engine's live alert, event and partial-match slices, so it must be
// encoded or folded before the engine runs again.
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
		body.bindings = append(body.bindings, bindingSnap{aor: aor, ip: ip, age: ctx.bindingAge[aor]})
	}
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
	var body rawEngineBody
	if err := decodeAll(blob, "engine body", func(c *codec) { walkEngineBody(c, &body) }); err != nil {
		return nil, err
	}
	if err := body.rules.validate(e.rules.rules); err != nil {
		return nil, err
	}
	return e.bindBody(body)
}

// bodyBytes serializes the engine's body with its raw stats: the
// warm-restart form a shard worker caches.
func (e *Engine) bodyBytes() []byte { return encodeBody(e.exportBody(e.stats)) }

// encodeBody serializes a standalone body in canonical order.
func encodeBody(body rawEngineBody) []byte {
	body = body.canonical()
	return encodeAll(func(c *codec) { walkEngineBody(c, &body) })
}

// --- checkpoint tail: routing directory, fragment and stream buffers ---

// routerSnap is what a checkpoint carries past the engine body, all of it
// owned by the serial distiller or the sharded router (shards hold none
// of it): the session → route-key pins that make routing reproducible
// across a restore (any geometry can re-derive every live dialog's shard
// from these), the buffered frames of in-progress IP fragment groups (so
// a restoring router ships each completed group to its shard exactly as
// an uninterrupted run would have), and the stream-transport demux.
type routerSnap struct {
	sticky        [][2]string
	frags         []fragGroupSnap
	streams       []tcpStreamSnap
	streamEvicted int
}

type fragGroupSnap struct {
	id     fragIdent
	first  time.Duration
	frames []routedFrame
}

// tcpStreamSnap is one tracked TCP stream direction: its reassembly state
// (delivery cursor, FIN bookkeeping, buffered out-of-order segments) and
// its SIP framing buffer (the incomplete message prefix).
type tcpStreamSnap struct {
	st     packet.TCPStreamState
	framer []byte
}

func walkRouterSnap(c *codec, t *routerSnap) {
	seq(c, &t.sticky, walkPair)
	seq(c, &t.frags, func(c *codec, g *fragGroupSnap) {
		c.addr(&g.id.src)
		c.addr(&g.id.dst)
		c.u8(&g.id.proto)
		c.u16(&g.id.id)
		c.dur(&g.first)
		seq(c, &g.frames, func(c *codec, f *routedFrame) {
			c.dur(&f.at)
			c.bytes(&f.frame)
		})
	})
	seq(c, &t.streams, func(c *codec, s *tcpStreamSnap) {
		st := &s.st
		c.addrPort(&st.ID.Src)
		c.addrPort(&st.ID.Dst)
		c.u32(&st.Next)
		c.bool(&st.Fin)
		c.u32(&st.FinSeq)
		c.dur(&st.First)
		c.dur(&st.Last)
		seq(c, &st.Segs, func(c *codec, sg *packet.TCPStreamSeg) {
			c.u32(&sg.Seq)
			c.bytes(&sg.Data)
		})
		c.bytes(&s.framer)
	})
	c.vint(&t.streamEvicted)
}

// exportRouter captures the tail in canonical order. streams may be nil
// (a shard-local engine), which exports an empty stream section.
func exportRouter(sticky map[string]string, frags *fragGroups, streams *streamMux) routerSnap {
	var t routerSnap
	for id, rk := range sticky {
		t.sticky = append(t.sticky, [2]string{id, rk})
	}
	sort.Slice(t.sticky, func(i, j int) bool { return t.sticky[i][0] < t.sticky[j][0] })
	for id, grp := range frags.groups {
		t.frags = append(t.frags, fragGroupSnap{id: id, first: grp.first, frames: grp.frames})
	}
	sort.Slice(t.frags, func(i, j int) bool {
		a, b := t.frags[i].id, t.frags[j].id
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
	if streams != nil {
		// ExportStreams sorts by stream identity.
		for _, st := range streams.reasm.ExportStreams() {
			s := tcpStreamSnap{st: st}
			if dir := streams.dirs[st.ID]; dir != nil {
				s.framer = dir.framer.State()
			}
			t.streams = append(t.streams, s)
		}
		t.streamEvicted = streams.reasm.CapacityEvicted()
	}
	return t
}

// stickyMap rebuilds the route pins.
func (t *routerSnap) stickyMap(into map[string]string) {
	clear(into)
	for _, p := range t.sticky {
		into[p[0]] = p[1]
	}
}

// install replaces the mux's state with a decoded checkpoint section. The
// pending-message queue is always empty at snapshot time (both engines
// drain extracted messages before the next frame), so only reassembly and
// framing state carry over.
func (m *streamMux) install(streams []tcpStreamSnap, evicted int) {
	states := make([]packet.TCPStreamState, len(streams))
	for i := range streams {
		states[i] = streams[i].st
	}
	m.reasm.ImportStreams(states, evicted)
	clear(m.dirs)
	for _, s := range streams {
		dir := newStreamDir(s.st.ID)
		dir.framer.SetState(s.framer)
		m.dirs[s.st.ID] = dir
	}
	m.queue, m.qhead = m.queue[:0], 0
}

// --- whole checkpoint ---

// encodeCheckpoint writes a portable checkpoint: header, the body in
// canonical order, the tail, checksum.
func encodeCheckpoint(h snapHeader, body rawEngineBody, tail routerSnap) []byte {
	c := encoder(snapMagic, snapVersion)
	walkSnapHeader(c, &h)
	body = body.canonical()
	walkEngineBody(c, &body)
	walkRouterSnap(c, &tail)
	return c.sealed()
}

// decodeCheckpoint opens a checkpoint, checks its header against want,
// decodes the body and the tail, and shape-checks the rule section
// against rules.
func decodeCheckpoint(data []byte, want snapHeader, rules []Rule) (snapHeader, rawEngineBody, routerSnap, error) {
	var body rawEngineBody
	var tail routerSnap
	h, c, err := openSnapshot(data)
	if err != nil {
		return h, body, tail, err
	}
	if err := validateSnapHeader(h, want); err != nil {
		return h, body, tail, err
	}
	walkEngineBody(c, &body)
	walkRouterSnap(c, &tail)
	if c.err == nil && c.remaining() > 0 {
		return h, body, tail, fmt.Errorf("core: snapshot corrupt (%d trailing bytes)", c.remaining())
	}
	if c.err != nil {
		return h, body, tail, c.err
	}
	return h, body, tail, body.rules.validate(rules)
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
	for _, b := range snap.bindings {
		ctx.bindings[b.aor] = b.ip
		ctx.bindingAge[b.aor] = b.age
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
	tail := exportRouter(e.gen.sticky, &e.distiller.frags, e.distiller.streams)
	return encodeCheckpoint(e.header(), e.exportBody(e.Stats()), tail), nil
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
	_, body, tail, err := decodeCheckpoint(data, e.header(), e.rules.rules)
	if err != nil {
		return err
	}
	snap, err := e.bindBody(body)
	if err != nil {
		return err
	}
	e.installSnap(snap, true)
	// The portable stats block is the folded Stats() view, which already
	// contains the correlator-owned eviction counters; contributeStats
	// re-adds those from the reinstated correlator atomics, so zero them in
	// the base block to count each eviction once.
	e.stats.IMHistoriesEvicted = 0
	e.stats.SeqTrackersEvicted = 0
	tail.stickyMap(e.gen.sticky)
	e.distiller.frags.install(tail.frags)
	if e.distiller.streams != nil {
		e.distiller.streams.install(tail.streams, tail.streamEvicted)
	}
	return nil
}
