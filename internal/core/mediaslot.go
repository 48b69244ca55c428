package core

import (
	"net/netip"
	"time"

	"scidive/internal/rtp"
)

// mediaSlot is what the sharded router (or an ingest lane) ships a shard
// for an RTP or RTCP packet instead of the frame: every field a media
// FrameView carries, packed into 64 bytes, so a shard batch carries a
// fraction of the 304-byte FrameView union per packet. It holds no
// pointers, so the collector never scans a queued batch's media. Every
// decoded packet has valid endpoints; the invalid Addr of a hand-built
// view reads back as "::".
type mediaSlot struct {
	at                    time.Duration
	src, dst              [16]byte // As16 form; slotSrc4/slotDst4 tell 10.0.0.1 from ::ffff:10.0.0.1
	srcPort, dstPort, seq uint16
	pt, csrcs             uint8
	ts                    uint32 // RTP timestamp; for RTCP, the compound's packet count
	ssrc, payloadLen      uint32
	portProto, flags      uint8
}

// mediaSlot.flags bits.
const (
	slotPadding uint8 = 1 << iota
	slotExtension
	slotMarker
	slotEmbeddedSIP
	slotRTCP
	slotHasBye
	slotSrc4
	slotDst4
)

func flagIf(cond bool, bit uint8) uint8 {
	if cond {
		return bit
	}
	return 0
}

// pack overwrites the slot with the media fields of v. It writes every
// field in place (a composite literal would build the 64 bytes on the
// stack and copy them, at twice the cost per packet).
func (s *mediaSlot) pack(v *FrameView) {
	src, dst := v.Src.Addr(), v.Dst.Addr()
	s.at, s.src, s.dst = v.At, src.As16(), dst.As16()
	s.srcPort, s.dstPort, s.portProto = v.Src.Port(), v.Dst.Port(), uint8(v.PortProto)
	s.flags = flagIf(src.Is4(), slotSrc4) | flagIf(dst.Is4(), slotDst4)
	if v.Proto == ProtoRTCP {
		s.seq, s.pt, s.csrcs, s.ssrc, s.payloadLen = 0, 0, 0, 0, 0
		s.ts = uint32(v.RTCP.Packets)
		s.flags |= slotRTCP | flagIf(v.RTCP.HasBye, slotHasBye)
		return
	}
	h := &v.RTP
	s.seq, s.ts, s.ssrc = h.Seq, h.Timestamp, h.SSRC
	s.pt, s.csrcs, s.payloadLen = h.PayloadType, uint8(h.CSRCCount), uint32(h.PayloadLen)
	s.flags |= flagIf(h.Padding, slotPadding) | flagIf(h.Extension, slotExtension) |
		flagIf(h.Marker, slotMarker) | flagIf(v.EmbeddedSIP, slotEmbeddedSIP)
}

// unpack overwrites v with the view the slot was packed from.
func (s *mediaSlot) unpack(v *FrameView) {
	has := func(bit uint8) bool { return s.flags&bit != 0 }
	endpoint := func(a [16]byte, port uint16, is4 bool) netip.AddrPort {
		addr := netip.AddrFrom16(a)
		if is4 {
			addr = addr.Unmap()
		}
		return netip.AddrPortFrom(addr, port)
	}
	*v = FrameView{
		Proto: ProtoRTP, At: s.at, PortProto: Protocol(s.portProto),
		Src: endpoint(s.src, s.srcPort, has(slotSrc4)),
		Dst: endpoint(s.dst, s.dstPort, has(slotDst4)),
	}
	if has(slotRTCP) {
		v.Proto = ProtoRTCP
		v.RTCP = rtp.CompoundView{Packets: int(s.ts), HasBye: has(slotHasBye)}
		return
	}
	v.EmbeddedSIP = has(slotEmbeddedSIP)
	v.RTP = rtp.HeaderView{
		Padding: has(slotPadding), Extension: has(slotExtension), Marker: has(slotMarker),
		PayloadType: s.pt, Seq: s.seq, Timestamp: s.ts, SSRC: s.ssrc,
		CSRCCount: int(s.csrcs), PayloadLen: int(s.payloadLen),
	}
}
