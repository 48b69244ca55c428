// Package rtp implements the Real-time Transport Protocol (RFC 3550)
// subset the SCIDIVE reproduction needs: RTP packet encoding/decoding,
// wrap-aware sequence number arithmetic, the interarrival jitter
// estimator, RTCP sender/receiver reports and BYE, a G.711 µ-law codec,
// and a playout jitter buffer.
package rtp

import (
	"encoding/binary"
	"fmt"
)

// Version is the RTP protocol version.
const Version = 2

// HeaderLen is the fixed RTP header length (without CSRCs).
const HeaderLen = 12

// PayloadTypePCMU is the static payload type for G.711 µ-law.
const PayloadTypePCMU = 0

// Header is a decoded RTP fixed header.
type Header struct {
	Padding     bool
	Extension   bool
	Marker      bool
	PayloadType uint8
	Seq         uint16
	Timestamp   uint32
	SSRC        uint32
	CSRC        []uint32
}

// Packet is an RTP packet.
type Packet struct {
	Header  Header
	Payload []byte
}

// Marshal serializes the packet.
func (p *Packet) Marshal() ([]byte, error) {
	if len(p.Header.CSRC) > 15 {
		return nil, fmt.Errorf("rtp: %d CSRCs exceeds maximum of 15", len(p.Header.CSRC))
	}
	buf := make([]byte, HeaderLen+4*len(p.Header.CSRC)+len(p.Payload))
	buf[0] = Version << 6
	if p.Header.Padding {
		buf[0] |= 1 << 5
	}
	if p.Header.Extension {
		buf[0] |= 1 << 4
	}
	buf[0] |= uint8(len(p.Header.CSRC))
	buf[1] = p.Header.PayloadType & 0x7f
	if p.Header.Marker {
		buf[1] |= 1 << 7
	}
	binary.BigEndian.PutUint16(buf[2:4], p.Header.Seq)
	binary.BigEndian.PutUint32(buf[4:8], p.Header.Timestamp)
	binary.BigEndian.PutUint32(buf[8:12], p.Header.SSRC)
	for i, c := range p.Header.CSRC {
		binary.BigEndian.PutUint32(buf[12+4*i:16+4*i], c)
	}
	copy(buf[HeaderLen+4*len(p.Header.CSRC):], p.Payload)
	return buf, nil
}

// Unmarshal decodes an RTP packet. The returned payload aliases buf.
func Unmarshal(buf []byte) (Packet, error) {
	if len(buf) < HeaderLen {
		return Packet{}, fmt.Errorf("rtp: packet of %d bytes shorter than header", len(buf))
	}
	if v := buf[0] >> 6; v != Version {
		return Packet{}, fmt.Errorf("rtp: bad version %d", v)
	}
	var p Packet
	p.Header.Padding = buf[0]&(1<<5) != 0
	p.Header.Extension = buf[0]&(1<<4) != 0
	cc := int(buf[0] & 0x0f)
	p.Header.Marker = buf[1]&(1<<7) != 0
	p.Header.PayloadType = buf[1] & 0x7f
	p.Header.Seq = binary.BigEndian.Uint16(buf[2:4])
	p.Header.Timestamp = binary.BigEndian.Uint32(buf[4:8])
	p.Header.SSRC = binary.BigEndian.Uint32(buf[8:12])
	end := HeaderLen + 4*cc
	if len(buf) < end {
		return Packet{}, fmt.Errorf("rtp: packet of %d bytes too short for %d CSRCs", len(buf), cc)
	}
	for i := 0; i < cc; i++ {
		p.Header.CSRC = append(p.Header.CSRC, binary.BigEndian.Uint32(buf[HeaderLen+4*i:HeaderLen+4*i+4]))
	}
	p.Payload = buf[end:]
	if p.Header.Padding && len(p.Payload) > 0 {
		pad := int(p.Payload[len(p.Payload)-1])
		if pad == 0 || pad > len(p.Payload) {
			return Packet{}, fmt.Errorf("rtp: bad padding count %d", pad)
		}
		p.Payload = p.Payload[:len(p.Payload)-pad]
	}
	return p, nil
}

// HeaderView is the allocation-free projection of an RTP packet that
// PeekHeader produces: the fixed header fields plus the CSRC count and
// payload length instead of materialized slices.
type HeaderView struct {
	Padding     bool
	Extension   bool
	Marker      bool
	PayloadType uint8
	Seq         uint16
	Timestamp   uint32
	SSRC        uint32
	CSRCCount   int
	PayloadLen  int
}

// PeekHeader decodes an RTP packet into v without allocating. It applies
// exactly the validation Unmarshal applies (version, CSRC bounds, padding
// count), so a buffer is accepted by one iff it is accepted by the other;
// errors carry the same text. Nothing in v aliases buf.
func PeekHeader(buf []byte, v *HeaderView) error {
	return CheckHeader(buf, v).asError()
}

// CheckHeader is PeekHeader with the refusal kept as a value, so a
// rejected buffer costs no allocation either.
func CheckHeader(buf []byte, v *HeaderView) Reject {
	if len(buf) < HeaderLen {
		return Reject{code: rejectRTPShort, a: len(buf)}
	}
	if ver := buf[0] >> 6; ver != Version {
		return Reject{code: rejectRTPVersion, a: int(ver)}
	}
	v.Padding = buf[0]&(1<<5) != 0
	v.Extension = buf[0]&(1<<4) != 0
	cc := int(buf[0] & 0x0f)
	v.Marker = buf[1]&(1<<7) != 0
	v.PayloadType = buf[1] & 0x7f
	v.Seq = binary.BigEndian.Uint16(buf[2:4])
	v.Timestamp = binary.BigEndian.Uint32(buf[4:8])
	v.SSRC = binary.BigEndian.Uint32(buf[8:12])
	end := HeaderLen + 4*cc
	if len(buf) < end {
		return Reject{code: rejectRTPCSRCs, a: len(buf), b: cc}
	}
	v.CSRCCount = cc
	payload := buf[end:]
	if v.Padding && len(payload) > 0 {
		pad := int(payload[len(payload)-1])
		if pad == 0 || pad > len(payload) {
			return Reject{code: rejectRTPPadding, a: pad}
		}
		payload = payload[:len(payload)-pad]
	}
	v.PayloadLen = len(payload)
	return Reject{}
}

// SeqLess reports whether a precedes b in wrap-aware RFC 1982 order.
func SeqLess(a, b uint16) bool {
	return a != b && int16(b-a) > 0
}

// SeqDiff returns the signed distance b−a, treating the 16-bit sequence
// space as circular. A positive result means b is ahead of a.
func SeqDiff(a, b uint16) int {
	return int(int16(b - a))
}
