package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// UDPHeaderLen is the length of a UDP header in bytes.
const UDPHeaderLen = 8

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// udpChecksum computes the UDP checksum over the pseudo-header and
// datagram, reading the datagram's own checksum field (bytes 6..7) as
// zero: it serves marshalling and in-place verification alike.
func udpChecksum(src, dst netip.Addr, dgram []byte) uint16 {
	c := transportChecksum(src, dst, ProtoUDP, dgram, 6)
	if c == 0 {
		c = 0xffff // RFC 768: transmitted as all ones when computed as zero
	}
	return c
}

// MarshalUDP serializes a UDP datagram with a valid checksum. The src and
// dst IPs are needed for the pseudo-header only.
func MarshalUDP(src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	dgramLen := UDPHeaderLen + len(payload)
	if dgramLen > 0xffff {
		return nil, fmt.Errorf("udp: datagram too large (%d bytes)", dgramLen)
	}
	buf := make([]byte, dgramLen)
	binary.BigEndian.PutUint16(buf[0:2], srcPort)
	binary.BigEndian.PutUint16(buf[2:4], dstPort)
	binary.BigEndian.PutUint16(buf[4:6], uint16(dgramLen))
	copy(buf[UDPHeaderLen:], payload)
	binary.BigEndian.PutUint16(buf[6:8], udpChecksum(src, dst, buf))
	return buf, nil
}

// PeekUDP decodes a UDP datagram exactly like UnmarshalUDP — same header
// validation, same checksum acceptance — but without allocating: the
// checksum is verified in place. Callers on hot paths (the sharded
// router's per-frame peek) use this to classify traffic cheaply; a frame
// PeekUDP rejects is exactly a frame UnmarshalUDP would reject.
func PeekUDP(src, dst netip.Addr, buf []byte) (UDPHeader, []byte, error) {
	if len(buf) < UDPHeaderLen {
		return UDPHeader{}, nil, fmt.Errorf("udp header: %w (%d bytes)", ErrTruncated, len(buf))
	}
	var h UDPHeader
	h.SrcPort = binary.BigEndian.Uint16(buf[0:2])
	h.DstPort = binary.BigEndian.Uint16(buf[2:4])
	h.Length = binary.BigEndian.Uint16(buf[4:6])
	h.Checksum = binary.BigEndian.Uint16(buf[6:8])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(buf) {
		return UDPHeader{}, nil, fmt.Errorf("udp: length %d outside buffer of %d bytes", h.Length, len(buf))
	}
	dgram := buf[:h.Length]
	if h.Checksum != 0 && src.Is4() && dst.Is4() {
		if udpChecksum(src, dst, dgram) != h.Checksum {
			return UDPHeader{}, nil, fmt.Errorf("udp: bad checksum 0x%04x", h.Checksum)
		}
	}
	return h, dgram[UDPHeaderLen:], nil
}

// UnmarshalUDP decodes a UDP datagram, validating the length field and,
// when src and dst are valid, the checksum (a zero checksum means
// "not computed" and is accepted). The returned payload aliases buf.
func UnmarshalUDP(src, dst netip.Addr, buf []byte) (UDPHeader, []byte, error) {
	if len(buf) < UDPHeaderLen {
		return UDPHeader{}, nil, fmt.Errorf("udp header: %w (%d bytes)", ErrTruncated, len(buf))
	}
	var h UDPHeader
	h.SrcPort = binary.BigEndian.Uint16(buf[0:2])
	h.DstPort = binary.BigEndian.Uint16(buf[2:4])
	h.Length = binary.BigEndian.Uint16(buf[4:6])
	h.Checksum = binary.BigEndian.Uint16(buf[6:8])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(buf) {
		return UDPHeader{}, nil, fmt.Errorf("udp: length %d outside buffer of %d bytes", h.Length, len(buf))
	}
	dgram := buf[:h.Length]
	if h.Checksum != 0 && src.Is4() && dst.Is4() {
		if got := udpChecksum(src, dst, dgram); got != h.Checksum {
			return UDPHeader{}, nil, fmt.Errorf("udp: bad checksum: got 0x%04x want 0x%04x", h.Checksum, got)
		}
	}
	return h, dgram[UDPHeaderLen:], nil
}
