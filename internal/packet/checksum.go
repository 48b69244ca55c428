package packet

import (
	"encoding/binary"
	"net/netip"
)

// onesSum adds b, read as big-endian 16-bit words, to the ones'-complement
// accumulator sum; an odd trailing byte is the high half of a final word
// (RFC 1071). It folds eight bytes per iteration: a 64-bit big-endian load
// holds four words at multiples of 16 bits, and 2^16 ≡ 1 (mod 0xffff), so
// adding its two 32-bit halves keeps the sum's residue. Each iteration
// adds less than 2^33, so a uint64 cannot overflow on any buffer that
// fits in memory. Callers summing a buffer in pieces must split it at
// even offsets.
func onesSum(sum uint64, b []byte) uint64 {
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&0xffffffff
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// foldSum folds an onesSum accumulator to 16 bits with end-around carry
// and complements it: the RFC 1071 checksum.
func foldSum(sum uint64) uint16 {
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

// checksum16 computes the RFC 1071 internet checksum of b.
func checksum16(b []byte) uint16 { return foldSum(onesSum(0, b)) }

// transportChecksum computes the UDP or TCP checksum of seg under the IPv4
// pseudo-header. The two bytes at the even offset field — the segment's
// own checksum field — are summed as zero, so a received segment is
// verified in place by comparing the result with the stored value.
func transportChecksum(src, dst netip.Addr, proto uint8, seg []byte, field int) uint16 {
	s, d := src.As4(), dst.As4()
	sum := onesSum(onesSum(uint64(proto)+uint64(len(seg)), s[:]), d[:])
	return foldSum(onesSum(onesSum(sum, seg[:field]), seg[field+2:]))
}
