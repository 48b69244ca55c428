package core

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"scidive/internal/packet"
	"scidive/internal/sip"
)

// DistillerStats counts distillation activity. Every input — each frame
// plus each stream-extracted message — lands in exactly one terminal
// counter, the never-silently-dropped ledger the hostile-input tests
// check:
//
//	Frames + StreamMsgs == DecodeError + Fragments + Ignored + Streamed
//	                     + SIP + RTP + RTCP + Acct + Raw + Mismatched
type DistillerStats struct {
	Frames      int
	Fragments   int // IP fragments buffered toward reassembly
	DecodeError int // frames undecodable at the IP/UDP layer
	SIP         int
	RTP         int
	RTCP        int
	Acct        int
	Raw         int // VoIP-port traffic that failed protocol decode
	Ignored     int // traffic outside the monitored port set
	Mismatched  int // frames reclassified by content confirmation (classify.go)
	Streamed    int // TCP segments accepted into the stream arm (terminal for the segment)
	StreamMsgs  int // stream-extracted messages distilled (each lands in SIP/RTP/RTCP/Raw/Mismatched)
}

// Distiller translates raw frames into Footprints: Ethernet and IPv4
// decoding, fragment reassembly, UDP demultiplexing, and protocol
// classification (paper Section 3.1). The stateless part of that is the
// shared decode stage (classify.go); the Distiller adds the state —
// reassembly, stream framing, counters — and the one field only trails
// read. A shard's distiller is the counters alone: the sharded router
// decodes and ships the result, and the shard accounts it (account).
type Distiller struct {
	reasm *packet.Reassembler
	stats DistillerStats

	// dec is the decode stage over the correlator set whose port claims
	// drive classification.
	dec decoder

	// frags buffers the raw frames of in-progress fragment groups, as the
	// sharded router's instance does, so a checkpoint reads the same
	// whichever engine wrote it. nil on standalone and shard-local
	// distillers.
	frags fragGroups

	// streams is the stream-transport demux (TCP reassembly + SIP message
	// framing). Datagram transports yield one message per payload;
	// stream transports land zero or more complete messages per frame on
	// the mux queue, drained by NextStreamMessage. nil on shard-local
	// distillers: the sharded router owns the only stream state and ships
	// extracted messages (see sharded.go).
	streams *streamMux
}

// defaultMediaPortFloor is the lowest UDP port treated as media traffic
// by the rtp and rtcp correlators' port claims.
const defaultMediaPortFloor = 10000

// NewDistiller returns a Distiller classifying ports against the default
// correlator registry.
func NewDistiller() *Distiller {
	return NewDistillerFor(buildCorrelators(nil, GenConfig{}.withDefaults()))
}

// NewDistillerFor returns a Distiller whose port classification derives
// from the given correlators' port claims. NewEngine shares one
// correlator set between its distiller and its generator so the two can
// never disagree about a port's protocol.
func NewDistillerFor(correlators []Correlator) *Distiller {
	return &Distiller{reasm: packet.NewReassembler(0), dec: newDecoder(correlators)}
}

// Stats returns a snapshot of the distiller counters.
func (d *Distiller) Stats() DistillerStats { return d.stats }

// fragIdent mirrors the reassembler's fragment-stream identity.
type fragIdent struct {
	src, dst netip.Addr
	proto    uint8
	id       uint16
}

// fragGroup buffers the original frames of one in-progress fragment
// stream: the checkpoint carries them, and the completed datagram
// accounts for that many. first mirrors the reassembler's eviction clock.
type fragGroup struct {
	frames []routedFrame
	first  time.Duration
}

// routedFrame is one raw frame with its capture time.
type routedFrame struct {
	at    time.Duration
	frame []byte
}

// fragGroups keeps the raw frames of in-progress fragment streams on
// exactly the reassembler's buffer lifetimes, so they ride a checkpoint
// as one group and a completed datagram knows how many frames it spans.
// Capacity evictions arrive through the reassembler's OnEvict hook
// (drop). The zero value, with no table, buffers nothing.
type fragGroups struct {
	groups map[fragIdent]*fragGroup
	// floor is a lower bound on every group's first, kept as the
	// reassembler keeps its own: prune ranges over the groups only once
	// some group can have timed out.
	floor time.Duration
}

func newFragGroups() fragGroups {
	return fragGroups{groups: make(map[fragIdent]*fragGroup)}
}

func (g *fragGroups) drop(id packet.FragID) {
	delete(g.groups, fragIdent{src: id.Src, dst: id.Dst, proto: id.Proto, id: id.ID})
}

// prune drops groups on the reassembler's expiry schedule. It runs
// before every Insert/Expire so the two can never disagree about which
// stream a fragment belongs to.
func (g *fragGroups) prune(now time.Duration) {
	if len(g.groups) == 0 || now-g.floor <= packet.DefaultReassemblyTimeout {
		return // the steady state: no map iteration per frame
	}
	floor := now
	for k, grp := range g.groups {
		if now-grp.first > packet.DefaultReassemblyTimeout {
			delete(g.groups, k)
		} else {
			floor = min(floor, grp.first)
		}
	}
	g.floor = floor
}

// install replaces the groups with a checkpoint's.
func (g *fragGroups) install(groups []fragGroupSnap) {
	clear(g.groups)
	for i, s := range groups {
		if i == 0 || s.first < g.floor {
			g.floor = s.first
		}
		g.groups[s.id] = &fragGroup{first: s.first, frames: s.frames}
	}
}

// expire advances both expiry clocks past a frame that carries no
// fragment.
func (g *fragGroups) expire(r *packet.Reassembler, now time.Duration) {
	g.prune(now)
	r.Expire(now)
}

// insert feeds one fragment to the reassembler and mirrors the outcome:
// a buffered fragment's frame joins its group (copied: the frame is only
// borrowed from the feeder), and the fragment completing a datagram
// takes the group out and reports how many frames the datagram spans,
// itself included.
func (g *fragGroups) insert(r *packet.Reassembler, iph packet.IPv4Header, body []byte, at time.Duration, frame []byte) (full packet.IPv4Header, payload []byte, frames int, done bool, err error) {
	g.prune(at)
	full, payload, done, err = r.Insert(iph, body, at)
	if g.groups == nil {
		return
	}
	key := fragIdent{src: iph.Src, dst: iph.Dst, proto: iph.Protocol, id: iph.ID}
	grp := g.groups[key]
	switch {
	case done:
		delete(g.groups, key)
		frames = 1
		if grp != nil {
			frames += len(grp.frames)
		}
		return
	case err != nil:
		// The reassembler creates its buffer before the oversize check
		// but after the alignment check; mirror that so group lifetimes
		// track buffer lifetimes exactly. The frame contributed nothing.
		if alignErr := iph.FragOffset != 0 && len(body)%8 != 0 && iph.MoreFragments(); alignErr {
			return
		}
	}
	if grp == nil {
		if len(g.groups) == 0 || at < g.floor {
			g.floor = at
		}
		grp = &fragGroup{first: at}
		g.groups[key] = grp
	}
	if err == nil {
		grp.frames = append(grp.frames, routedFrame{at: at, frame: append([]byte(nil), frame...)})
	}
	return
}

// reassemble is the stateful middle of the prelude, shared by the serial
// Distiller and the synchronous router: a fragment goes through the
// reassembler — staying preFrag while buffered, becoming a bad preDrop
// when rejected, or re-entering transport as the completed datagram —
// and anything else past IPv4 decode just advances the reassembly
// clocks. It returns how many capture frames the outcome in p spans: the
// whole group for a completed datagram, else the frame alone.
func (dc *decoder) reassemble(r *packet.Reassembler, g *fragGroups, at time.Duration, frame []byte, p *prelude) (frames int) {
	switch p.kind {
	case preDrop:
	case preFrag:
		full, body, n, done, err := g.insert(r, p.ip, p.body, at, frame)
		if err != nil {
			p.kind, p.bad = preDrop, true
		} else if done {
			p.ip, p.body = full, body
			dc.transport(p)
			return n
		}
	default:
		g.expire(r, at)
	}
	return 1
}

// DistillView processes one frame observed at the given virtual time,
// filling the caller-owned view in place; it reports false when the
// frame produced no footprint (a non-final fragment, a TCP segment,
// undecodable below UDP, or outside the monitored ports). Media frames
// (RTP/RTCP) are projected through the rtp package's peek decoders and
// never materialize packet structs; SIP frames allocate one Message,
// which lives only as long as the view points to it.
func (d *Distiller) DistillView(at time.Duration, frame []byte, v *FrameView) bool {
	v.reset()
	d.stats.Frames++
	var p prelude
	d.dec.prelude(frame, &p)
	d.dec.reassemble(d.reasm, &d.frags, at, frame, &p)
	if p.kind == preTCP && d.streams != nil {
		// Stream transport: complete messages land on the mux queue; the
		// frame itself produces no immediate footprint.
		if th, ok := d.dec.segment(&p); ok {
			d.stats.Streamed++
			d.streams.push(at, p.src, p.dst, th, p.payload)
			return false
		}
	}
	switch {
	case p.kind == preDatagram:
		v.At, v.Src, v.Dst = at, p.src, p.dst
		d.dec.decode(p.proto, false, p.payload, v)
		d.account(v)
		return true
	case p.kind == preFrag:
		d.stats.Fragments++
	case p.bad:
		d.stats.DecodeError++
	default:
		d.stats.Ignored++
	}
	return false
}

// account counts a decoded view's terminal and fills the one field the
// decode stage leaves out because only trails and correlators read it:
// the strict SIP format check. It needs nothing but the view, so a shard
// runs it on what the router shipped.
func (d *Distiller) account(v *FrameView) {
	var terminal *int
	switch v.Proto {
	case ProtoSIP:
		terminal, v.Malformed = &d.stats.SIP, CheckSIPFormat(v.Msg)
	case ProtoRTP:
		terminal = &d.stats.RTP
	case ProtoRTCP:
		terminal = &d.stats.RTCP
	case ProtoAccounting:
		terminal = &d.stats.Acct
	default:
		terminal = &d.stats.Raw
	}
	if v.PortProto != 0 {
		terminal = &d.stats.Mismatched
	}
	*terminal++
}

// NextStreamMessage pops the next stream-extracted SIP message into v,
// reporting false when none are pending. The view additionally carries
// the flow's routing key (StreamKey) so the serial engine pins the same
// sticky key the sharded router would.
func (d *Distiller) NextStreamMessage(v *FrameView) bool {
	if d.streams == nil {
		return false
	}
	msg, ok := d.streams.next()
	if !ok {
		return false
	}
	d.stats.StreamMsgs++
	v.reset()
	d.dec.decodeStream(&msg, v)
	d.account(v)
	return true
}

// decodeStream fills v from one stream-extracted message: the serial
// drain above and the sharded router's stream arm. It is the datagram
// decode with SIP as the claim; a tunnel chunk (media content sniffed on
// the SIP-claimed stream) arrives with that claim already contradicted.
// v must arrive reset.
func (dc *decoder) decodeStream(sm *streamMsg, v *FrameView) {
	v.At, v.Src, v.Dst, v.StreamKey = sm.at, sm.src, sm.dst, sm.key
	dc.decode(ProtoSIP, sm.kind == streamKindTunnel, sm.payload, v)
}

// CheckSIPFormat applies the strict well-formedness checks the IDS uses
// beyond baseline parseability. It returns a list of violations; an empty
// list means the message is clean. These catch "carefully crafted"
// messages that lenient implementations (like the simulated proxy)
// process anyway — the Section 3.2 exploit vector.
//
// A clean message costs no allocation: From and To are read through the
// message's summary (and stay read for applySIP); the full parsers run
// only to word a violation.
func CheckSIPFormat(m *sip.Message) []string {
	var violations []string
	for _, hdr := range [...]string{sip.HdrFrom, sip.HdrTo, sip.HdrCallID, sip.HdrCSeq} {
		if n := m.Headers.Count(hdr); n > 1 {
			violations = append(violations, fmt.Sprintf("duplicate %s header (%d occurrences)", hdr, n))
		}
	}
	if m.IsRequest() {
		if mf := m.Headers.Get(sip.HdrMaxForwards); mf != "" {
			if n, err := strconv.Atoi(mf); err != nil || n < 0 || n > 255 {
				violations = append(violations, fmt.Sprintf("invalid Max-Forwards %q", mf))
			}
		}
		if _, ok := m.FromRef(); !ok {
			if _, err := m.From(); err != nil {
				violations = append(violations, "unparseable From: "+err.Error())
			}
		}
		if _, ok := m.ToRef(); !ok {
			if _, err := m.To(); err != nil {
				violations = append(violations, "unparseable To: "+err.Error())
			}
		}
	}
	return violations
}
