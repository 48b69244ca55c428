package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits (RFC 9293 §3.1).
const (
	TCPFlagFIN = 1 << 0
	TCPFlagSYN = 1 << 1
	TCPFlagRST = 1 << 2
	TCPFlagPSH = 1 << 3
	TCPFlagACK = 1 << 4
)

// TCPHeader is a decoded TCP header.
type TCPHeader struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words (5..15)
	Flags      uint8
	Window     uint16
	Checksum   uint16
	Urgent     uint16
}

// FIN reports whether the FIN flag is set.
func (h TCPHeader) FIN() bool { return h.Flags&TCPFlagFIN != 0 }

// SYN reports whether the SYN flag is set.
func (h TCPHeader) SYN() bool { return h.Flags&TCPFlagSYN != 0 }

// RST reports whether the RST flag is set.
func (h TCPHeader) RST() bool { return h.Flags&TCPFlagRST != 0 }

// tcpChecksum computes the TCP checksum over the pseudo-header and
// segment, reading the segment's own checksum field (bytes 16..17) as
// zero: it serves marshalling and in-place verification alike.
func tcpChecksum(src, dst netip.Addr, seg []byte) uint16 {
	return transportChecksum(src, dst, ProtoTCP, seg, 16)
}

// MarshalTCP serializes a TCP segment (no options) with a valid checksum.
// The src and dst IPs are needed for the pseudo-header only.
func MarshalTCP(src, dst netip.Addr, h TCPHeader, payload []byte) []byte {
	buf := make([]byte, TCPHeaderLen+len(payload))
	binary.BigEndian.PutUint16(buf[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], h.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], h.Seq)
	binary.BigEndian.PutUint32(buf[8:12], h.Ack)
	buf[12] = 5 << 4 // data offset: 5 words, no options
	buf[13] = h.Flags
	binary.BigEndian.PutUint16(buf[14:16], h.Window)
	binary.BigEndian.PutUint16(buf[18:20], h.Urgent)
	copy(buf[TCPHeaderLen:], payload)
	binary.BigEndian.PutUint16(buf[16:18], tcpChecksum(src, dst, buf))
	return buf
}

// PeekTCP decodes a TCP segment without allocating: header fields are
// read in place, the options region is skipped per the data offset, and
// the checksum (when src and dst are IPv4) is verified in place. The
// returned payload aliases buf. It is the stream-transport sibling of
// PeekUDP: frames it rejects are exactly frames a conforming stack would
// discard.
func PeekTCP(src, dst netip.Addr, buf []byte) (TCPHeader, []byte, error) {
	if len(buf) < TCPHeaderLen {
		return TCPHeader{}, nil, fmt.Errorf("tcp header: %w (%d bytes)", ErrTruncated, len(buf))
	}
	var h TCPHeader
	h.SrcPort = binary.BigEndian.Uint16(buf[0:2])
	h.DstPort = binary.BigEndian.Uint16(buf[2:4])
	h.Seq = binary.BigEndian.Uint32(buf[4:8])
	h.Ack = binary.BigEndian.Uint32(buf[8:12])
	h.DataOffset = buf[12] >> 4
	h.Flags = buf[13]
	h.Window = binary.BigEndian.Uint16(buf[14:16])
	h.Checksum = binary.BigEndian.Uint16(buf[16:18])
	h.Urgent = binary.BigEndian.Uint16(buf[18:20])
	hdrLen := int(h.DataOffset) * 4
	if hdrLen < TCPHeaderLen {
		return TCPHeader{}, nil, fmt.Errorf("tcp: data offset %d below minimum", h.DataOffset)
	}
	if hdrLen > len(buf) {
		return TCPHeader{}, nil, fmt.Errorf("tcp: data offset %d beyond segment of %d bytes", h.DataOffset, len(buf))
	}
	if src.Is4() && dst.Is4() {
		if tcpChecksum(src, dst, buf) != h.Checksum {
			return TCPHeader{}, nil, fmt.Errorf("tcp: bad checksum 0x%04x", h.Checksum)
		}
	}
	return h, buf[hdrLen:], nil
}

// TCPFrameSpec describes a run of TCP segments to be wrapped in IPv4 and
// Ethernet framing.
type TCPFrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Seq              uint32 // sequence number of the first payload byte
	Ack              uint32
	Flags            uint8  // applied to every segment; FIN/PSH only on the last
	Window           uint16 // 0 means 65535
	IPID             uint16 // first IP identification value; +1 per segment
	TTL              uint8  // 0 means 64
	Payload          []byte
}

// BuildTCPFrames encodes payload as one or more TCP/IPv4/Ethernet frames,
// segmenting at the TCP layer so each IP packet fits mtu (0 means
// DefaultMTU) without IP fragmentation. An empty payload yields exactly
// one segment (pure SYN/ACK/FIN/RST control frames). FIN and PSH, when
// requested, are set only on the final segment; all other flag bits apply
// to every segment. Each segment carries Seq advanced by the payload
// bytes before it and IPID advanced by its index.
func BuildTCPFrames(spec TCPFrameSpec, mtu int) ([][]byte, error) {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	mss := mtu - IPv4HeaderLen - TCPHeaderLen
	if mss <= 0 {
		return nil, fmt.Errorf("build tcp frames: mtu %d leaves no segment space", mtu)
	}
	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}
	window := spec.Window
	if window == 0 {
		window = 65535
	}
	var frames [][]byte
	offset, ipid := 0, spec.IPID
	for {
		end := offset + mss
		if end > len(spec.Payload) {
			end = len(spec.Payload)
		}
		last := end == len(spec.Payload)
		flags := spec.Flags
		if !last {
			flags &^= TCPFlagFIN | TCPFlagPSH
		}
		seg := MarshalTCP(spec.SrcIP, spec.DstIP, TCPHeader{
			SrcPort: spec.SrcPort,
			DstPort: spec.DstPort,
			Seq:     spec.Seq + uint32(offset),
			Ack:     spec.Ack,
			Flags:   flags,
			Window:  window,
		}, spec.Payload[offset:end])
		iph := IPv4Header{
			ID:       ipid,
			TTL:      ttl,
			Protocol: ProtoTCP,
			Src:      spec.SrcIP,
			Dst:      spec.DstIP,
		}
		pkts, err := FragmentIPv4(&iph, seg, mtu)
		if err != nil {
			return nil, fmt.Errorf("build tcp frames: %w", err)
		}
		for _, p := range pkts {
			frames = append(frames, MarshalEthernet(&EthernetFrame{
				Dst:     spec.DstMAC,
				Src:     spec.SrcMAC,
				Type:    EtherTypeIPv4,
				Payload: p,
			}))
		}
		ipid++
		if last {
			return frames, nil
		}
		offset = end
	}
}
