package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// refChecksum is the one-word-per-iteration RFC 1071 loop that onesSum
// replaced, kept as the reference the wide kernel is checked against. The
// word at the even offset skip (none when negative) is read as zero, the
// way the verify forms treat a segment's own checksum field.
func refChecksum(sum uint64, b []byte, skip int) uint16 {
	for i := 0; i+1 < len(b); i += 2 {
		if i == skip {
			continue
		}
		sum += uint64(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// refPseudoSum is the IPv4 pseudo-header added one word at a time.
func refPseudoSum(src, dst netip.Addr, proto uint8, segLen int) uint64 {
	s, d := src.As4(), dst.As4()
	return uint64(binary.BigEndian.Uint16(s[0:2])) + uint64(binary.BigEndian.Uint16(s[2:4])) +
		uint64(binary.BigEndian.Uint16(d[0:2])) + uint64(binary.BigEndian.Uint16(d[2:4])) +
		uint64(proto) + uint64(segLen)
}

// FuzzChecksumWide checks the wide kernel against the 16-bit reference:
// same checksum for any bytes, any length up to 70 000, any seed sum and
// any even split point, and the same UDP and TCP checksums with the field
// at its offset (including UDP's 0 -> 0xffff rule).
func FuzzChecksumWide(f *testing.F) {
	for _, n := range []uint32{0, 1, 7, 8, 9, 15, 1499} {
		f.Add([]byte("\x45\x00\x01\xfe\xca\xfe\x00\x07\x80"), n, uint32(n*2654435761))
	}
	f.Add(bytes.Repeat([]byte{0xff}, 70000), uint32(70000), uint32(0xffffffff))
	f.Add([]byte{}, uint32(64), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, n, seed uint32) {
		// buf is data cycled (or cut) to n%70001 bytes.
		buf := make([]byte, n%70001)
		for i := range buf {
			if len(data) > 0 {
				buf[i] = data[i%len(data)]
			}
		}
		want := refChecksum(uint64(seed), buf, -1)
		if got := foldSum(onesSum(uint64(seed), buf)); got != want {
			t.Fatalf("len %d seed %#x: wide %#04x, reference %#04x", len(buf), seed, got, want)
		}
		k := (int(seed>>1) % (len(buf) + 1)) &^ 1
		if got := foldSum(onesSum(onesSum(uint64(seed), buf[:k]), buf[k:])); got != want {
			t.Fatalf("len %d split at %d: wide %#04x, reference %#04x", len(buf), k, got, want)
		}
		if seed == 0 {
			if got := checksum16(buf); got != want {
				t.Fatalf("len %d: checksum16 %#04x, reference %#04x", len(buf), got, want)
			}
		}
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], seed)
		src := netip.AddrFrom4(a)
		binary.BigEndian.PutUint32(a[:], ^seed*31)
		dst := netip.AddrFrom4(a)
		if len(buf) >= UDPHeaderLen {
			ref := refChecksum(refPseudoSum(src, dst, ProtoUDP, len(buf)), buf, 6)
			if ref == 0 {
				ref = 0xffff
			}
			if got := udpChecksum(src, dst, buf); got != ref {
				t.Fatalf("udp len %d: wide %#04x, reference %#04x", len(buf), got, ref)
			}
		}
		if len(buf) >= TCPHeaderLen {
			ref := refChecksum(refPseudoSum(src, dst, ProtoTCP, len(buf)), buf, 16)
			if got := tcpChecksum(src, dst, buf); got != ref {
				t.Fatalf("tcp len %d: wide %#04x, reference %#04x", len(buf), got, ref)
			}
		}
	})
}

// TestUDPChecksumZeroRule builds a datagram whose checksum computes to
// zero and checks that it is reported as all ones (RFC 768), by the wide
// form and the reference alike.
func TestUDPChecksumZeroRule(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	dgram := make([]byte, UDPHeaderLen+3)
	binary.BigEndian.PutUint16(dgram[4:6], uint16(len(dgram)))
	// Adding the checksum of the rest as one more word brings the sum to
	// 0xffff, whose complement is zero.
	binary.BigEndian.PutUint16(dgram[8:10], transportChecksum(src, dst, ProtoUDP, dgram, 6))
	if got := transportChecksum(src, dst, ProtoUDP, dgram, 6); got != 0 {
		t.Fatalf("constructed datagram sums to %#04x, want 0", got)
	}
	if got := udpChecksum(src, dst, dgram); got != 0xffff {
		t.Errorf("udpChecksum = %#04x, want 0xffff", got)
	}
	if ref := refChecksum(refPseudoSum(src, dst, ProtoUDP, len(dgram)), dgram, 6); ref != 0 {
		t.Errorf("reference = %#04x, want 0", ref)
	}
}
