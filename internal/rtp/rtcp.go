package rtp

import (
	"encoding/binary"
	"fmt"
)

// RTCP packet types.
const (
	RTCPSenderReport   = 200
	RTCPReceiverReport = 201
	RTCPSourceDesc     = 202
	RTCPBye            = 203
)

// ReportBlock is one reception report block (RFC 3550 section 6.4.1).
type ReportBlock struct {
	SSRC           uint32
	FractionLost   uint8
	CumulativeLost uint32 // 24 bits on the wire
	HighestSeq     uint32
	Jitter         uint32
	LSR            uint32
	DLSR           uint32
}

const reportBlockLen = 24

func (b *ReportBlock) marshalTo(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:4], b.SSRC)
	binary.BigEndian.PutUint32(buf[4:8], b.CumulativeLost&0x00ffffff)
	buf[4] = b.FractionLost
	binary.BigEndian.PutUint32(buf[8:12], b.HighestSeq)
	binary.BigEndian.PutUint32(buf[12:16], b.Jitter)
	binary.BigEndian.PutUint32(buf[16:20], b.LSR)
	binary.BigEndian.PutUint32(buf[20:24], b.DLSR)
}

func unmarshalReportBlock(buf []byte) ReportBlock {
	return ReportBlock{
		SSRC:           binary.BigEndian.Uint32(buf[0:4]),
		FractionLost:   buf[4],
		CumulativeLost: binary.BigEndian.Uint32(buf[4:8]) & 0x00ffffff,
		HighestSeq:     binary.BigEndian.Uint32(buf[8:12]),
		Jitter:         binary.BigEndian.Uint32(buf[12:16]),
		LSR:            binary.BigEndian.Uint32(buf[16:20]),
		DLSR:           binary.BigEndian.Uint32(buf[20:24]),
	}
}

// RTCPPacket is one packet inside a compound RTCP datagram.
type RTCPPacket interface {
	rtcpPacketType() uint8
}

// SenderReport is an RTCP SR.
type SenderReport struct {
	SSRC        uint32
	NTPSec      uint32
	NTPFrac     uint32
	RTPTime     uint32
	PacketCount uint32
	OctetCount  uint32
	Reports     []ReportBlock
}

func (*SenderReport) rtcpPacketType() uint8 { return RTCPSenderReport }

// ReceiverReport is an RTCP RR.
type ReceiverReport struct {
	SSRC    uint32
	Reports []ReportBlock
}

func (*ReceiverReport) rtcpPacketType() uint8 { return RTCPReceiverReport }

// SourceDescription is an RTCP SDES carrying a single CNAME item.
type SourceDescription struct {
	SSRC  uint32
	CNAME string
}

func (*SourceDescription) rtcpPacketType() uint8 { return RTCPSourceDesc }

// Bye is an RTCP BYE.
type Bye struct {
	SSRCs  []uint32
	Reason string
}

func (*Bye) rtcpPacketType() uint8 { return RTCPBye }

// writeHeader fills the 4-byte RTCP common header. length is the packet
// length in bytes including the header (must be a multiple of 4).
func writeHeader(buf []byte, count int, pt uint8, length int) {
	buf[0] = Version<<6 | uint8(count&0x1f)
	buf[1] = pt
	binary.BigEndian.PutUint16(buf[2:4], uint16(length/4-1))
}

// MarshalCompound serializes RTCP packets into one compound datagram.
func MarshalCompound(pkts []RTCPPacket) ([]byte, error) {
	var out []byte
	for _, p := range pkts {
		switch v := p.(type) {
		case *SenderReport:
			if len(v.Reports) > 31 {
				return nil, fmt.Errorf("rtcp: %d report blocks exceeds 31", len(v.Reports))
			}
			n := 28 + reportBlockLen*len(v.Reports)
			buf := make([]byte, n)
			writeHeader(buf, len(v.Reports), RTCPSenderReport, n)
			binary.BigEndian.PutUint32(buf[4:8], v.SSRC)
			binary.BigEndian.PutUint32(buf[8:12], v.NTPSec)
			binary.BigEndian.PutUint32(buf[12:16], v.NTPFrac)
			binary.BigEndian.PutUint32(buf[16:20], v.RTPTime)
			binary.BigEndian.PutUint32(buf[20:24], v.PacketCount)
			binary.BigEndian.PutUint32(buf[24:28], v.OctetCount)
			for i := range v.Reports {
				v.Reports[i].marshalTo(buf[28+reportBlockLen*i:])
			}
			out = append(out, buf...)
		case *ReceiverReport:
			if len(v.Reports) > 31 {
				return nil, fmt.Errorf("rtcp: %d report blocks exceeds 31", len(v.Reports))
			}
			n := 8 + reportBlockLen*len(v.Reports)
			buf := make([]byte, n)
			writeHeader(buf, len(v.Reports), RTCPReceiverReport, n)
			binary.BigEndian.PutUint32(buf[4:8], v.SSRC)
			for i := range v.Reports {
				v.Reports[i].marshalTo(buf[8+reportBlockLen*i:])
			}
			out = append(out, buf...)
		case *SourceDescription:
			if len(v.CNAME) > 255 {
				return nil, fmt.Errorf("rtcp: CNAME of %d bytes too long", len(v.CNAME))
			}
			// chunk: SSRC + item(type=1,len,cname) + null terminator, padded.
			itemLen := 4 + 2 + len(v.CNAME) + 1
			padded := (itemLen + 3) &^ 3
			buf := make([]byte, 4+padded)
			writeHeader(buf, 1, RTCPSourceDesc, len(buf))
			binary.BigEndian.PutUint32(buf[4:8], v.SSRC)
			buf[8] = 1 // CNAME item type
			buf[9] = uint8(len(v.CNAME))
			copy(buf[10:], v.CNAME)
			out = append(out, buf...)
		case *Bye:
			if len(v.SSRCs) == 0 || len(v.SSRCs) > 31 {
				return nil, fmt.Errorf("rtcp: BYE must carry 1..31 SSRCs, got %d", len(v.SSRCs))
			}
			if len(v.Reason) > 255 {
				return nil, fmt.Errorf("rtcp: BYE reason of %d bytes too long", len(v.Reason))
			}
			n := 4 + 4*len(v.SSRCs)
			if v.Reason != "" {
				n += (1 + len(v.Reason) + 3) &^ 3
			}
			buf := make([]byte, n)
			writeHeader(buf, len(v.SSRCs), RTCPBye, n)
			for i, s := range v.SSRCs {
				binary.BigEndian.PutUint32(buf[4+4*i:8+4*i], s)
			}
			if v.Reason != "" {
				off := 4 + 4*len(v.SSRCs)
				buf[off] = uint8(len(v.Reason))
				copy(buf[off+1:], v.Reason)
			}
			out = append(out, buf...)
		default:
			return nil, fmt.Errorf("rtcp: unsupported packet type %T", p)
		}
	}
	return out, nil
}

// CompoundView is the allocation-free projection of a compound RTCP
// datagram that PeekCompound produces: how many packets it holds and
// whether any of them is a BYE — everything the detection hot path
// consumes — instead of materialized packet structs.
type CompoundView struct {
	Packets int
	HasBye  bool
}

// PeekCompound scans a compound RTCP datagram into v without allocating.
// It applies exactly the validation UnmarshalCompound applies (per-packet
// header, length, and body-layout checks), so a buffer is accepted by one
// iff it is accepted by the other; errors carry the same text.
func PeekCompound(buf []byte, v *CompoundView) error {
	return CheckCompound(buf, v).asError()
}

// CheckCompound is PeekCompound with the refusal kept as a value, so a
// rejected buffer costs no allocation either.
func CheckCompound(buf []byte, v *CompoundView) Reject {
	v.Packets, v.HasBye = 0, false
	for len(buf) > 0 {
		if len(buf) < 4 {
			return Reject{code: rejectRTCPTrailing, a: len(buf)}
		}
		if ver := buf[0] >> 6; ver != Version {
			return Reject{code: rejectRTCPVersion, a: int(ver)}
		}
		count := int(buf[0] & 0x1f)
		pt := buf[1]
		length := (int(binary.BigEndian.Uint16(buf[2:4])) + 1) * 4
		if length > len(buf) {
			return Reject{code: rejectRTCPLength, a: length, b: len(buf)}
		}
		body := buf[4:length]
		switch pt {
		case RTCPSenderReport:
			if len(body) < 24+reportBlockLen*count {
				return Reject{code: rejectRTCPSR, a: count}
			}
		case RTCPReceiverReport:
			if len(body) < 4+reportBlockLen*count {
				return Reject{code: rejectRTCPRR, a: count}
			}
		case RTCPSourceDesc:
			if len(body) < 6 || body[4] != 1 {
				return Reject{code: rejectRTCPSDESLayout}
			}
			if n := int(body[5]); len(body) < 6+n {
				return Reject{code: rejectRTCPSDESOverrun}
			}
		case RTCPBye:
			if len(body) < 4*count {
				return Reject{code: rejectRTCPByeShort, a: count}
			}
			if rest := body[4*count:]; len(rest) > 0 {
				if n := int(rest[0]); len(rest) < 1+n {
					return Reject{code: rejectRTCPByeOverrun}
				}
			}
			v.HasBye = true
		default:
			return Reject{code: rejectRTCPType, a: int(pt)}
		}
		v.Packets++
		buf = buf[length:]
	}
	return Reject{}
}

// UnmarshalCompound parses a compound RTCP datagram.
func UnmarshalCompound(buf []byte) ([]RTCPPacket, error) {
	var pkts []RTCPPacket
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("rtcp: trailing %d bytes shorter than header", len(buf))
		}
		if v := buf[0] >> 6; v != Version {
			return nil, fmt.Errorf("rtcp: bad version %d", v)
		}
		count := int(buf[0] & 0x1f)
		pt := buf[1]
		length := (int(binary.BigEndian.Uint16(buf[2:4])) + 1) * 4
		if length > len(buf) {
			return nil, fmt.Errorf("rtcp: packet length %d exceeds buffer of %d", length, len(buf))
		}
		body := buf[4:length]
		switch pt {
		case RTCPSenderReport:
			if len(body) < 24+reportBlockLen*count {
				return nil, fmt.Errorf("rtcp: SR too short for %d blocks", count)
			}
			sr := &SenderReport{
				SSRC:        binary.BigEndian.Uint32(body[0:4]),
				NTPSec:      binary.BigEndian.Uint32(body[4:8]),
				NTPFrac:     binary.BigEndian.Uint32(body[8:12]),
				RTPTime:     binary.BigEndian.Uint32(body[12:16]),
				PacketCount: binary.BigEndian.Uint32(body[16:20]),
				OctetCount:  binary.BigEndian.Uint32(body[20:24]),
			}
			for i := 0; i < count; i++ {
				sr.Reports = append(sr.Reports, unmarshalReportBlock(body[24+reportBlockLen*i:]))
			}
			pkts = append(pkts, sr)
		case RTCPReceiverReport:
			if len(body) < 4+reportBlockLen*count {
				return nil, fmt.Errorf("rtcp: RR too short for %d blocks", count)
			}
			rr := &ReceiverReport{SSRC: binary.BigEndian.Uint32(body[0:4])}
			for i := 0; i < count; i++ {
				rr.Reports = append(rr.Reports, unmarshalReportBlock(body[4+reportBlockLen*i:]))
			}
			pkts = append(pkts, rr)
		case RTCPSourceDesc:
			if len(body) < 6 || body[4] != 1 {
				return nil, fmt.Errorf("rtcp: unsupported SDES layout")
			}
			n := int(body[5])
			if len(body) < 6+n {
				return nil, fmt.Errorf("rtcp: SDES CNAME overruns packet")
			}
			pkts = append(pkts, &SourceDescription{
				SSRC:  binary.BigEndian.Uint32(body[0:4]),
				CNAME: string(body[6 : 6+n]),
			})
		case RTCPBye:
			if len(body) < 4*count {
				return nil, fmt.Errorf("rtcp: BYE too short for %d SSRCs", count)
			}
			bye := &Bye{}
			for i := 0; i < count; i++ {
				bye.SSRCs = append(bye.SSRCs, binary.BigEndian.Uint32(body[4*i:4*i+4]))
			}
			if rest := body[4*count:]; len(rest) > 0 {
				n := int(rest[0])
				if len(rest) < 1+n {
					return nil, fmt.Errorf("rtcp: BYE reason overruns packet")
				}
				bye.Reason = string(rest[1 : 1+n])
			}
			pkts = append(pkts, bye)
		default:
			return nil, fmt.Errorf("rtcp: unknown packet type %d", pt)
		}
		buf = buf[length:]
	}
	return pkts, nil
}
