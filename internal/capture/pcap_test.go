package capture

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"
)

// --- synthetic capture builders ---

func u16(order binary.ByteOrder, v uint16) []byte {
	var b [2]byte
	order.PutUint16(b[:], v)
	return b[:]
}

func u32(order binary.ByteOrder, v uint32) []byte {
	var b [4]byte
	order.PutUint32(b[:], v)
	return b[:]
}

// pcapFile builds a classic pcap with the given records.
func pcapFile(order binary.ByteOrder, nanos bool, linktype uint32, recs []Record) []byte {
	var f []byte
	magic := uint32(pcapMagicMicroBE)
	if nanos {
		magic = pcapMagicNanoBE
	}
	if order == binary.LittleEndian {
		// The magic is defined as written by the file's native order;
		// serialize it in that order so the big-endian probe sees the
		// swapped constant.
		f = append(f, u32(binary.LittleEndian, magic)...)
	} else {
		f = append(f, u32(binary.BigEndian, magic)...)
	}
	f = append(f, u16(order, 2)...)                   // version major
	f = append(f, u16(order, 4)...)                   // version minor
	f = append(f, u32(order, 0)...)                   // thiszone
	f = append(f, u32(order, 0)...)                   // sigfigs
	f = append(f, u32(order, uint32(MaxFrameLen))...) // snaplen
	f = append(f, u32(order, linktype)...)
	for _, r := range recs {
		sec := uint32(r.Time / time.Second)
		rem := r.Time % time.Second
		sub := uint32(rem / time.Nanosecond)
		if !nanos {
			sub = uint32(rem / time.Microsecond)
		}
		f = append(f, u32(order, sec)...)
		f = append(f, u32(order, sub)...)
		f = append(f, u32(order, uint32(len(r.Frame)))...) // incl_len
		f = append(f, u32(order, uint32(len(r.Frame)))...) // orig_len
		f = append(f, r.Frame...)
	}
	return f
}

// ngBlock frames one pcapng block: type, length, body (padded by the
// caller), trailing length.
func ngBlock(order binary.ByteOrder, btype uint32, body []byte) []byte {
	blen := uint32(len(body) + 12)
	var f []byte
	f = append(f, u32(order, btype)...)
	f = append(f, u32(order, blen)...)
	f = append(f, body...)
	f = append(f, u32(order, blen)...)
	return f
}

func ngSection(order binary.ByteOrder) []byte {
	var body []byte
	body = append(body, u32(order, pcapngByteOrderMagic)...)
	body = append(body, u16(order, 1)...)                 // version major
	body = append(body, u16(order, 0)...)                 // version minor
	body = append(body, bytes.Repeat([]byte{0xff}, 8)...) // section length: unknown
	return ngBlock(order, pcapngBlockSHB, body)
}

func ngInterface(order binary.ByteOrder, linktype uint16, opts []byte) []byte {
	var body []byte
	body = append(body, u16(order, linktype)...)
	body = append(body, u16(order, 0)...) // reserved
	body = append(body, u32(order, 0)...) // snaplen: unlimited
	body = append(body, opts...)
	return ngBlock(order, pcapngBlockIDB, body)
}

// ngTsresolOpt encodes an if_tsresol option (code 9) plus end-of-options.
func ngTsresolOpt(order binary.ByteOrder, v byte) []byte {
	var o []byte
	o = append(o, u16(order, 9)...)
	o = append(o, u16(order, 1)...)
	o = append(o, v, 0, 0, 0) // value + padding to 4
	o = append(o, u16(order, 0)...)
	o = append(o, u16(order, 0)...)
	return o
}

func ngPacket(order binary.ByteOrder, iface uint32, ticks uint64, frame []byte) []byte {
	var body []byte
	body = append(body, u32(order, iface)...)
	body = append(body, u32(order, uint32(ticks>>32))...)
	body = append(body, u32(order, uint32(ticks))...)
	body = append(body, u32(order, uint32(len(frame)))...) // captured
	body = append(body, u32(order, uint32(len(frame)))...) // original
	body = append(body, frame...)
	for len(body)%4 != 0 {
		body = append(body, 0)
	}
	return ngBlock(order, pcapngBlockEPB, body)
}

func ngSimple(order binary.ByteOrder, frame []byte) []byte {
	var body []byte
	body = append(body, u32(order, uint32(len(frame)))...)
	body = append(body, frame...)
	for len(body)%4 != 0 {
		body = append(body, 0)
	}
	return ngBlock(order, pcapngBlockSPB, body)
}

var pcapTestRecs = []Record{
	{Time: 0, Frame: []byte("first frame")},
	{Time: 1500 * time.Microsecond, Frame: []byte("x")},
	{Time: 2*time.Second + 123456789*time.Nanosecond, Frame: bytes.Repeat([]byte{0xab}, 300)},
}

func checkRecords(t *testing.T, got, want []Record, tsExact bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Frame, want[i].Frame) {
			t.Errorf("record %d frame mismatch", i)
		}
		if tsExact && got[i].Time != want[i].Time {
			t.Errorf("record %d time %v, want %v", i, got[i].Time, want[i].Time)
		}
	}
}

// --- decode tests ---

// TestPcapRoundTrip reads synthetic classic pcaps in all four magic
// variants through the auto-detecting Reader.
func TestPcapRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order binary.ByteOrder
		nanos bool
	}{
		{"be-micro", binary.BigEndian, false},
		{"le-micro", binary.LittleEndian, false},
		{"be-nano", binary.BigEndian, true},
		{"le-nano", binary.LittleEndian, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := pcapFile(tc.order, tc.nanos, linktypeEthernet, pcapTestRecs)
			recs, err := NewReader(bytes.NewReader(f)).ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			// Microsecond files round timestamps down to the microsecond.
			checkRecords(t, recs, pcapTestRecs, tc.nanos)
			if !tc.nanos {
				for i, r := range recs {
					if want := pcapTestRecs[i].Time.Truncate(time.Microsecond); r.Time != want {
						t.Errorf("record %d time %v, want %v", i, r.Time, want)
					}
				}
			}
		})
	}
}

// TestPcapNGRoundTrip reads a synthetic pcapng (SHB + IDB + packets,
// with an unknown block to skip) in both byte orders.
func TestPcapNGRoundTrip(t *testing.T) {
	for _, order := range []binary.ByteOrder{binary.BigEndian, binary.LittleEndian} {
		var f []byte
		f = append(f, ngSection(order)...)
		f = append(f, ngInterface(order, linktypeEthernet, ngTsresolOpt(order, 9))...) // nanosecond interface
		for _, r := range pcapTestRecs {
			f = append(f, ngPacket(order, 0, uint64(r.Time), r.Frame)...)
		}
		f = append(f, ngBlock(order, 0x0badcafe, []byte{1, 2, 3, 4})...) // unknown: skipped
		f = append(f, ngSimple(order, []byte("simple block frame"))...)

		recs, err := NewReader(bytes.NewReader(f)).ReadAll()
		if err != nil {
			t.Fatalf("%v: ReadAll: %v", order, err)
		}
		want := append(append([]Record{}, pcapTestRecs...), Record{Frame: []byte("simple block frame")})
		checkRecords(t, recs, want, true)
	}
}

// TestPcapNGTimestampResolutions exercises the if_tsresol conversions.
func TestPcapNGTimestampResolutions(t *testing.T) {
	order := binary.LittleEndian
	for _, tc := range []struct {
		name  string
		res   byte
		ticks uint64
		want  time.Duration
	}{
		{"default-micro", 6, 1_500_000, 1500 * time.Millisecond},
		{"millis", 3, 1500, 1500 * time.Millisecond},
		{"nanos", 9, 1_500_000_000, 1500 * time.Millisecond},
		{"picos-truncate", 12, 1_500_000_000_500, 1500 * time.Millisecond},
		{"pow2-10", 0x80 | 10, 1536, 1500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f []byte
			f = append(f, ngSection(order)...)
			f = append(f, ngInterface(order, linktypeEthernet, ngTsresolOpt(order, tc.res))...)
			f = append(f, ngPacket(order, 0, tc.ticks, []byte("f"))...)
			recs, err := NewReader(bytes.NewReader(f)).ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if len(recs) != 1 || recs[0].Time != tc.want {
				t.Fatalf("got %v, want %v", recs[0].Time, tc.want)
			}
		})
	}
}

// TestPcapReplayAutoDetect proves the replay entry points themselves
// auto-detect: the same frames arrive through Replay whether the
// container is SCAP, pcap, or pcapng.
func TestPcapReplayAutoDetect(t *testing.T) {
	order := binary.BigEndian
	var scap bytes.Buffer
	w := NewWriter(&scap)
	for _, r := range pcapTestRecs {
		if err := w.WriteFrame(r.Time, r.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var ng []byte
	ng = append(ng, ngSection(order)...)
	ng = append(ng, ngInterface(order, linktypeEthernet, ngTsresolOpt(order, 9))...)
	for _, r := range pcapTestRecs {
		ng = append(ng, ngPacket(order, 0, uint64(r.Time), r.Frame)...)
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"scap", scap.Bytes()},
		{"pcap", pcapFile(order, true, linktypeEthernet, pcapTestRecs)},
		{"pcapng", ng},
	} {
		var frames [][]byte
		err := Replay(NewReader(bytes.NewReader(tc.file)), func(at time.Duration, frame []byte) {
			frames = append(frames, append([]byte(nil), frame...))
		})
		if err != nil {
			t.Fatalf("%s: Replay: %v", tc.name, err)
		}
		if len(frames) != len(pcapTestRecs) {
			t.Fatalf("%s: Replay delivered %d frames, want %d", tc.name, len(frames), len(pcapTestRecs))
		}
		for i := range frames {
			if !bytes.Equal(frames[i], pcapTestRecs[i].Frame) {
				t.Errorf("%s: frame %d mismatch", tc.name, i)
			}
		}
	}
}

// TestCaptureCorruptFiles is the corrupt-path table: every malformed
// input is rejected with an error naming what is wrong, and record-level
// corruption reports the record index and byte offset so the bad record
// can be found in a multi-gigabyte capture.
func TestCaptureCorruptFiles(t *testing.T) {
	be := binary.BigEndian
	scapOversize := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteFrame(0, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f := buf.Bytes()
		// Second record claims MaxFrameLen+1 bytes.
		f = append(f, make([]byte, 8)...)
		f = append(f, u32(be, uint32(MaxFrameLen+1))...)
		return f
	}()
	pcapGood := pcapFile(be, false, linktypeEthernet, pcapTestRecs[:1])
	pcapOversize := append(append([]byte{}, pcapGood...),
		append(make([]byte, 8), append(u32(be, uint32(MaxFrameLen+1)), u32(be, 0)...)...)...)
	ngPrefix := append(ngSection(be), ngInterface(be, linktypeEthernet, nil)...)

	for _, tc := range []struct {
		name string
		file []byte
		want []string // substrings the error must contain
	}{
		{"empty", nil, []string{"read header"}},
		{"bad-magic", []byte("NOTAPCAP"), []string{"bad magic", "pcap"}},
		{"scap-bad-version", []byte{'S', 'C', 'A', 'P', 0, 99}, []string{"unsupported version 99"}},
		{"scap-oversize-record", scapOversize,
			[]string{"corrupt record length 65537", "record 1", "offset 20"}},
		{"scap-truncated-body", []byte{'S', 'C', 'A', 'P', 0, 1,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 'x'}, []string{"read frame body"}},
		{"pcap-truncated-header", pcapFile(be, false, linktypeEthernet, nil)[:20], []string{"read pcap header"}},
		{"pcap-bad-version", func() []byte {
			f := append([]byte{}, pcapGood...)
			be.PutUint16(f[4:6], 7)
			return f
		}(), []string{"unsupported pcap version 7"}},
		{"pcap-bad-linktype", pcapFile(be, false, 101 /* raw IP */, nil),
			[]string{"linktype 101", "Ethernet"}},
		{"pcap-oversize-record", pcapOversize,
			[]string{"corrupt record length 65537", "record 1", "offset 51"}},
		{"pcap-truncated-body", pcapGood[:len(pcapGood)-3], []string{"read frame body"}},
		{"pcapng-bad-order-magic", func() []byte {
			f := append([]byte{}, ngSection(be)...)
			copy(f[8:12], []byte{1, 2, 3, 4})
			return f
		}(), []string{"byte-order magic"}},
		{"pcapng-bad-version", func() []byte {
			f := append([]byte{}, ngSection(be)...)
			be.PutUint16(f[12:14], 3)
			return f
		}(), []string{"unsupported pcapng version 3"}},
		{"pcapng-bad-linktype", append(ngSection(be), ngInterface(be, 113 /* Linux SLL */, nil)...),
			[]string{"linktype 113", "Ethernet"}},
		{"pcapng-packet-without-interface", append(ngSection(be), ngPacket(be, 0, 0, []byte("f"))...),
			[]string{"references interface 0 of 0"}},
		{"pcapng-simple-without-interface", append(ngSection(be), ngSimple(be, []byte("f"))...),
			[]string{"simple packet block before any interface"}},
		{"pcapng-trailer-mismatch", func() []byte {
			f := append([]byte{}, ngPrefix...)
			blk := ngBlock(be, 0x0badcafe, []byte{1, 2, 3, 4})
			be.PutUint32(blk[len(blk)-4:], 8) // corrupt trailing length
			return append(f, blk...)
		}(), []string{"trailer length 8 does not match"}},
		{"pcapng-block-too-short", func() []byte {
			f := append([]byte{}, ngPrefix...)
			f = append(f, u32(be, pcapngBlockEPB)...)
			f = append(f, u32(be, 8)...) // < minimum 12
			return f
		}(), []string{"corrupt pcapng block length 8"}},
		{"pcapng-packet-overruns-block", func() []byte {
			f := append([]byte{}, ngPrefix...)
			blk := ngPacket(be, 0, 0, []byte("frame"))
			be.PutUint32(blk[20:24], 500) // captured length beyond the block
			return append(f, blk...)
		}(), []string{"data overruns block"}},
		{"pcapng-oversize-record", func() []byte {
			f := append([]byte{}, ngPrefix...)
			blk := ngPacket(be, 0, 0, []byte("frame"))
			be.PutUint32(blk[20:24], uint32(MaxFrameLen+1))
			return append(f, blk...)
		}(), []string{"corrupt record length 65537", "record 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(tc.file))
			var err error
			for err == nil {
				_, err = r.Next()
			}
			if err == io.EOF {
				t.Fatal("corrupt file read to clean EOF")
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not mention %q", err, sub)
				}
			}
		})
	}
}
