package core

import (
	"errors"
	"net/netip"

	"scidive/internal/accounting"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// This file is the stateless decode stage: the one place a frame's
// protocol is decided and its bytes parsed. The serial Distiller, the
// sharded router, the parallel-ingest lanes and the TCP stream arm all
// call decoder.prelude (link/IPv4/UDP/port claim) and decoder.decode
// (claimed decoder, then the content-confirmation ladder, then raw) and
// nothing else; they differ only in what they do with the result.
//
// Port claims pick the candidate protocol (paper Section 3.1); when the
// candidate's decoder rejects the payload, the ladder asks each
// correlator that can recognize its protocol's wire shape (the
// contentConfirmer capability) whether the bytes look like *its*
// traffic, in registry order, skipping the protocol the port claimed.
// The first confirming protocol whose full decoder also accepts the
// payload wins, and the resulting view is flagged with the port's
// expected protocol (FrameView.PortProto) so the evasion correlator can
// raise protocol-mismatch / evasion-suspect self-alerts. If no step
// confirms, the frame falls through to the raw footprint path — the
// ladder never changes the fate of traffic that decodes under its port's
// protocol, which is what keeps the pre-ladder scenario goldens
// byte-identical.

// contentConfirmer correlators can recognize their protocol's wire
// shape from payload bytes alone, independent of ports. confirmContent
// must be cheap, allocation-free, and conservative: a confirmation only
// nominates the protocol for full decoding, so false positives waste a
// decode attempt but false negatives hide evasion.
type contentConfirmer interface {
	// contentProto is the protocol the confirmer recognizes.
	contentProto() Protocol
	// confirmContent reports whether the payload plausibly carries the
	// protocol. Must not retain or mutate the payload.
	confirmContent(payload []byte) bool
}

// ladderStep is one rung of the reclassification ladder.
type ladderStep struct {
	proto   Protocol
	confirm func(payload []byte) bool
}

// classifyLadder is the ordered reclassification ladder: the
// contentConfirmer correlators of a registry, in registry order.
type classifyLadder []ladderStep

// ladderOf builds the ladder for a correlator set. Registry order is
// part of the engine's observable behavior (a payload that confirms as
// both SIP and RTP reclassifies to whichever correlator registers
// first), matching how port claims already resolve ties.
func ladderOf(correlators []Correlator) classifyLadder {
	var ladder classifyLadder
	for _, c := range correlators {
		if cc, ok := c.(contentConfirmer); ok {
			ladder = append(ladder, ladderStep{proto: cc.contentProto(), confirm: cc.confirmContent})
		}
	}
	return ladder
}

// decoder is the decode stage's configuration: one correlator registry's
// port claims and ladder. Its owner is the Distiller, the router or one
// ingest lane — never a shard, which only ever receives decoded results.
// Everything it does is a pure function of the frame bytes (the SIP
// parser keeps no state either), so lanes run it in parallel with the
// router.
type decoder struct {
	claimers []Correlator
	ladder   classifyLadder
}

func newDecoder(correlators []Correlator) decoder {
	return decoder{claimers: correlators, ladder: ladderOf(correlators)}
}

// preludeKind is what the protocol-independent prelude made of a frame,
// which is exactly what a stateful caller must do next.
type preludeKind uint8

const (
	// preDrop: bad link or IPv4 framing. Nothing downstream — not even
	// the reassembly clocks — sees the frame.
	preDrop preludeKind = iota
	// preClock: decoded past IPv4 but no footprint (other IP protocol,
	// bad UDP/TCP framing, or a port no decoder is claimed for). Only
	// the reassembly clocks advance.
	preClock
	// preFrag: an IPv4 fragment; ip/body carry it to the reassembler,
	// whose completed datagram re-enters through transport.
	preFrag
	// preTCP: a whole TCP segment in ip/body, bound for the stream arm
	// (segment validates it and checks the port claim).
	preTCP
	// preDatagram: a UDP datagram on a claimed port: proto is the claim,
	// payload the bytes decode takes.
	preDatagram
)

// prelude is one frame's prelude outcome. bad qualifies preDrop and
// preClock: the frame was undecodable (DistillerStats.DecodeError)
// rather than merely outside the monitored set (Ignored).
type prelude struct {
	kind     preludeKind
	bad      bool
	ip       packet.IPv4Header
	body     []byte
	proto    Protocol
	src, dst netip.AddrPort
	payload  []byte
}

// prelude decodes Ethernet and IPv4 and, for an unfragmented packet, the
// transport header and port claim.
func (dc *decoder) prelude(frame []byte, p *prelude) {
	ef, err := packet.UnmarshalEthernet(frame)
	if err != nil || ef.Type != packet.EtherTypeIPv4 {
		p.kind, p.bad = preDrop, true
		return
	}
	if p.ip, p.body, err = packet.UnmarshalIPv4(ef.Payload); err != nil {
		p.kind, p.bad = preDrop, true
		return
	}
	if p.ip.FragOffset != 0 || p.ip.MoreFragments() {
		p.kind = preFrag
		return
	}
	dc.transport(p)
}

// transport finishes the prelude for the whole IPv4 packet in p.ip/p.body
// (straight from prelude, or out of the reassembler).
func (dc *decoder) transport(p *prelude) {
	p.kind, p.bad = preClock, false
	switch p.ip.Protocol {
	case packet.ProtoTCP:
		p.kind = preTCP
	case packet.ProtoUDP:
		uh, payload, err := packet.PeekUDP(p.ip.Src, p.ip.Dst, p.body)
		if err != nil {
			p.bad = true
			return
		}
		// Protocols below ProtoOther have a decoder (decodeAs); a claim
		// for anything else (the IDS's own control port) is classified
		// and dropped here.
		if proto, claimed := claimPortOf(dc.claimers, uh.SrcPort, uh.DstPort); claimed && proto < ProtoOther {
			p.kind, p.proto, p.payload = preDatagram, proto, payload
			p.src = netip.AddrPortFrom(p.ip.Src, uh.SrcPort)
			p.dst = netip.AddrPortFrom(p.ip.Dst, uh.DstPort)
		}
	}
}

// segment is the stream arm's half of the prelude: it validates the TCP
// segment of a preTCP outcome and checks the port claim (only SIP rides
// streams here), leaving the flow and payload in p. ok=false downgrades
// p to preClock.
func (dc *decoder) segment(p *prelude) (th packet.TCPHeader, ok bool) {
	th, payload, err := packet.PeekTCP(p.ip.Src, p.ip.Dst, p.body)
	if err != nil {
		p.kind, p.bad = preClock, true
		return th, false
	}
	if proto, _ := claimPortOf(dc.claimers, th.SrcPort, th.DstPort); proto != ProtoSIP {
		p.kind = preClock
		return th, false
	}
	p.src = netip.AddrPortFrom(p.ip.Src, th.SrcPort)
	p.dst = netip.AddrPortFrom(p.ip.Dst, th.DstPort)
	p.payload = payload
	return th, true
}

// errUnclassifiable is the raw reason for a sniffed stream chunk no
// decoder accepts. Unreachable while the queueing sniff and decode see
// the same bytes; kept so a divergence degrades to a raw footprint
// instead of a dropped frame.
var errUnclassifiable = errors.New("unclassifiable stream chunk")

// reject is why a decoder refused a payload, kept as a value: the media
// peeks' and the SIP start line's refusals are codes and numbers, and
// only an error from deeper in a SIP message or an accounting record is
// already worded. At most one field is set. Wording costs a fmt call, so
// only decode's raw fall-through does it (text): a payload the ladder
// reclassifies never pays for a reason nobody reads.
type reject struct {
	rtp rtp.Reject
	sip sip.Reject
	err error
}

func (r *reject) ok() bool { return r.rtp.OK() && r.sip.OK() && r.err == nil }

// text words the refusal of payload.
func (r *reject) text(payload []byte) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case !r.rtp.OK():
		return r.rtp.Error()
	}
	return r.sip.Text(payload)
}

// decode turns a claimed protocol plus payload into a decoded view: the
// claimed decoder first, then the ladder in registry order skipping the
// claim (its decoder already said no), then raw. sniffed marks a stream
// chunk whose SIP claim tunnelSniff already contradicted, so the claimed
// decoder is not tried at all. On return v.Proto is the content
// protocol; a reclassified view carries the contradicted claim in
// PortProto; a raw view (ProtoOther) carries it in OnPort with RawLen
// and, in Reason, why the claimed decoder rejected the bytes — the one
// place a rejection is worded.
//
// The view is complete but for Malformed, the one field derived from the
// decoded result alone (Distiller.account fills it beside the trails):
// nothing in it aliases payload — a SIP message is parsed into a fresh
// Message the view owns — so whoever decodes may hand the view to
// another goroutine and forget the bytes. v must arrive reset.
func (dc *decoder) decode(claimed Protocol, sniffed bool, payload []byte, v *FrameView) {
	rej := reject{err: errUnclassifiable}
	if !sniffed {
		if rej = dc.decodeAs(claimed, payload, v); rej.ok() {
			v.Proto = claimed
			return
		}
	}
	for _, step := range dc.ladder {
		if step.proto == claimed || !step.confirm(payload) {
			continue
		}
		if r := dc.decodeAs(step.proto, payload, v); r.ok() {
			v.Proto, v.PortProto = step.proto, claimed
			return
		}
	}
	v.Proto, v.OnPort, v.RawLen, v.Reason = ProtoOther, claimed, len(payload), rej.text(payload)
}

// decodeAs runs one protocol's full decoder over the payload, straight
// into the view's fields for that protocol (the media arms peek in
// place: no packet struct, no copy; an RTP payload is also sniffed for a
// smuggled SIP start line while the bytes are at hand). A rejected
// payload leaves the view as it found it.
func (dc *decoder) decodeAs(proto Protocol, payload []byte, v *FrameView) (r reject) {
	switch proto {
	case ProtoSIP:
		var msg *sip.Message
		if msg, r.sip = sip.Decode(payload); r.sip.OK() {
			v.Msg = msg
		}
	case ProtoAccounting:
		var txn accounting.Txn
		if txn, r.err = accounting.ParseTxn(payload); r.err == nil {
			v.Txn = txn
		}
	case ProtoRTP:
		if r.rtp = rtp.CheckHeader(payload, &v.RTP); !r.rtp.OK() {
			v.RTP = rtp.HeaderView{}
		} else {
			v.EmbeddedSIP = rtpPayloadHasSIP(payload, &v.RTP)
		}
	case ProtoRTCP:
		if r.rtp = rtp.CheckCompound(payload, &v.RTCP); !r.rtp.OK() {
			v.RTCP = rtp.CompoundView{}
		}
	default:
		r.err = errUnclassifiable
	}
	return r
}

// sniffLineMax bounds the start-line scan: a SIP start line longer than
// this is not worth reclassifying toward.
const sniffLineMax = 256

// sniffSIPStart reports whether the buffer begins with a plausible SIP
// start line: either a status line ("SIP/2.0 ...") or a request line
// (token method, a space, and a line ending in " SIP/2.0"). Zero
// allocation; rejects binary payloads on the first non-token byte.
func sniffSIPStart(b []byte) bool {
	if len(b) >= 8 && string(b[:8]) == "SIP/2.0 " {
		return true
	}
	// Request line: Method SP Request-URI SP SIP/2.0 CRLF.
	i := 0
	for i < len(b) && i < sniffLineMax && isSIPTokenByte(b[i]) {
		i++
	}
	if i == 0 || i >= len(b) || b[i] != ' ' {
		return false
	}
	j := i + 1
	for j < len(b) && j < sniffLineMax && b[j] != '\r' && b[j] != '\n' {
		j++
	}
	if j >= len(b) || j >= sniffLineMax {
		return false
	}
	const ver = " SIP/2.0"
	if j < i+1+len(ver) {
		return false
	}
	return string(b[j-len(ver):j]) == ver
}

// isSIPTokenByte reports whether c is an RFC 3261 token character (the
// alphabet of method names).
func isSIPTokenByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	switch c {
	case '-', '.', '!', '%', '*', '_', '+', '`', '\'', '~':
		return true
	}
	return false
}

// RTP payload types 72-76 collide with the RTCP packet-type range
// (200-204 with the marker bit folded in, RFC 3550 Section 5.1); a
// "header" carrying one is an RTCP packet misread as RTP, so content
// confirmation rejects it.
const (
	rtcpConflictPTLo = 72
	rtcpConflictPTHi = 76
)

// confirmRTPContent reports whether the payload plausibly is an RTP
// packet: the peek decoder accepts it, the payload type avoids the RTCP
// conflict range, and the SSRC is nonzero (every real stream in this
// simulation — and almost every real implementation — picks a random
// nonzero SSRC, while zeroed garbage trivially passes the version
// check). Stack-local scratch and a reject value; never allocates.
func confirmRTPContent(payload []byte) bool {
	var hv rtp.HeaderView
	if !rtp.CheckHeader(payload, &hv).OK() {
		return false
	}
	if hv.PayloadType >= rtcpConflictPTLo && hv.PayloadType <= rtcpConflictPTHi {
		return false
	}
	return hv.SSRC != 0
}

// confirmRTCPContent reports whether the payload is a well-formed RTCP
// compound: the peek decoder's validation (version, known packet types,
// lengths tiling the buffer exactly) is already a strong content check.
func confirmRTCPContent(payload []byte) bool {
	var cv rtp.CompoundView
	return rtp.CheckCompound(payload, &cv).OK()
}

// rtpPayloadHasSIP reports whether a successfully decoded RTP packet's
// media payload begins with a SIP start line — the SIP-smuggled-in-RTP
// evasion. hv must be the PeekHeader result for payload. Extension
// headers are not modeled by the decoder, so packets flagged with one
// are not inspected.
func rtpPayloadHasSIP(payload []byte, hv *rtp.HeaderView) bool {
	if hv.Extension || hv.PayloadLen == 0 {
		return false
	}
	off := rtp.HeaderLen + 4*hv.CSRCCount
	if off+hv.PayloadLen > len(payload) {
		return false
	}
	return sniffSIPStart(payload[off : off+hv.PayloadLen])
}

// tunnelSniff gates the stream arm's SIP framer: given a chunk of
// reassembled TCP bytes on a SIP-claimed stream with no partial SIP
// message pending, it reports whether the chunk is a media packet
// tunneled over the trunk (RTP or RTCP content confirmation), to be
// queued whole instead of poisoning the framing buffer. It only
// confirms — the diverted chunk is decoded by decode like everything
// else — and skips the SIP rung: SIP is what the stream is *supposed* to
// carry.
func (l classifyLadder) tunnelSniff(b []byte) (Protocol, bool) {
	for _, step := range l {
		if step.proto != ProtoRTP && step.proto != ProtoRTCP {
			continue
		}
		if step.confirm(b) {
			return step.proto, true
		}
	}
	return ProtoOther, false
}
