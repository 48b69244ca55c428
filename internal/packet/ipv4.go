package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IP protocol numbers used in this codebase.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 flag bits (in the Flags field, not shifted).
const (
	FlagDF = 0x2 // don't fragment
	FlagMF = 0x1 // more fragments
)

// IPv4Header is a decoded IPv4 header. Options are not supported: the
// encoder always emits a 20-byte header and the decoder skips options.
type IPv4Header struct {
	TOS        uint8
	TotalLen   uint16
	ID         uint16
	Flags      uint8  // DF / MF
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Protocol   uint8
	Checksum   uint16 // as decoded; recomputed on marshal
	Src        netip.Addr
	Dst        netip.Addr
}

// MoreFragments reports whether the MF flag is set.
func (h *IPv4Header) MoreFragments() bool { return h.Flags&FlagMF != 0 }

// DontFragment reports whether the DF flag is set.
func (h *IPv4Header) DontFragment() bool { return h.Flags&FlagDF != 0 }

// MarshalIPv4 serializes header+payload into a full IPv4 packet,
// computing TotalLen and the header checksum. Src and Dst must be valid
// IPv4 addresses.
func MarshalIPv4(h *IPv4Header, payload []byte) ([]byte, error) {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return nil, fmt.Errorf("ipv4: non-IPv4 address (src=%v dst=%v)", h.Src, h.Dst)
	}
	totalLen := IPv4HeaderLen + len(payload)
	if totalLen > 0xffff {
		return nil, fmt.Errorf("ipv4: packet too large (%d bytes)", totalLen)
	}
	buf := make([]byte, totalLen)
	buf[0] = 4<<4 | IPv4HeaderLen/4 // version + IHL
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(h.Flags)<<13|h.FragOffset&0x1fff)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	src, dst := h.Src.As4(), h.Dst.As4()
	copy(buf[12:16], src[:])
	copy(buf[16:20], dst[:])
	binary.BigEndian.PutUint16(buf[10:12], checksum16(buf[:IPv4HeaderLen]))
	copy(buf[IPv4HeaderLen:], payload)
	return buf, nil
}

// UnmarshalIPv4 decodes an IPv4 packet, validating the version, lengths,
// and header checksum. The returned payload aliases buf and has length
// TotalLen − header length (trailing padding, if any, is dropped).
func UnmarshalIPv4(buf []byte) (IPv4Header, []byte, error) {
	if len(buf) < IPv4HeaderLen {
		return IPv4Header{}, nil, fmt.Errorf("ipv4 header: %w (%d bytes)", ErrTruncated, len(buf))
	}
	if v := buf[0] >> 4; v != 4 {
		return IPv4Header{}, nil, fmt.Errorf("ipv4: bad version %d", v)
	}
	ihl := int(buf[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(buf) < ihl {
		return IPv4Header{}, nil, fmt.Errorf("ipv4: bad IHL %d for %d-byte buffer", ihl, len(buf))
	}
	if checksum16(buf[:ihl]) != 0 {
		return IPv4Header{}, nil, fmt.Errorf("ipv4: bad header checksum")
	}
	var h IPv4Header
	h.TOS = buf[1]
	h.TotalLen = binary.BigEndian.Uint16(buf[2:4])
	h.ID = binary.BigEndian.Uint16(buf[4:6])
	ff := binary.BigEndian.Uint16(buf[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = buf[8]
	h.Protocol = buf[9]
	h.Checksum = binary.BigEndian.Uint16(buf[10:12])
	h.Src = netip.AddrFrom4([4]byte(buf[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(buf[16:20]))
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(buf) {
		return IPv4Header{}, nil, fmt.Errorf("ipv4: total length %d outside buffer of %d bytes", h.TotalLen, len(buf))
	}
	return h, buf[ihl:h.TotalLen], nil
}

// FragmentIPv4 splits payload into IPv4 packets that fit within mtu bytes
// each (including the 20-byte header). Fragment payload sizes are rounded
// down to multiples of 8 as the fragment-offset field requires. If the
// whole packet fits, a single unfragmented packet is returned. The header's
// Flags and FragOffset fields are overwritten per fragment.
func FragmentIPv4(h *IPv4Header, payload []byte, mtu int) ([][]byte, error) {
	if mtu < IPv4HeaderLen+8 {
		return nil, fmt.Errorf("ipv4: mtu %d too small to fragment", mtu)
	}
	if IPv4HeaderLen+len(payload) <= mtu {
		hh := *h
		hh.Flags &^= FlagMF
		hh.FragOffset = 0
		pkt, err := MarshalIPv4(&hh, payload)
		if err != nil {
			return nil, err
		}
		return [][]byte{pkt}, nil
	}
	if h.DontFragment() {
		return nil, fmt.Errorf("ipv4: packet of %d bytes exceeds mtu %d with DF set", IPv4HeaderLen+len(payload), mtu)
	}
	chunk := (mtu - IPv4HeaderLen) &^ 7
	var pkts [][]byte
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		last := end >= len(payload)
		if last {
			end = len(payload)
		}
		hh := *h
		hh.FragOffset = uint16(off / 8)
		if last {
			hh.Flags &^= FlagMF
		} else {
			hh.Flags |= FlagMF
		}
		pkt, err := MarshalIPv4(&hh, payload[off:end])
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, pkt)
	}
	return pkts, nil
}
