package core

import (
	"testing"
	"time"
)

// FuzzDigestDecode hammers the cooperative layer's control-plane
// decoders with hostile bytes. Both are all-or-nothing: any mutation
// must yield an error and no partial digest — and a frame that does
// decode must survive a re-encode/re-decode round trip with every field
// of every event intact, since the aggregator's retransmission path
// re-reads what probes re-send.
func FuzzDigestDecode(f *testing.F) {
	valid := EncodeDigest(&Digest{
		Point: "edge", Seq: 3, Dropped: 1,
		Events: []Event{
			{At: time.Second, Type: EvSIPBye, Session: "call-1", Detail: "alice hangs up"},
			{At: 2 * time.Second, Type: EvRTPActivity, Session: "call-1", Detail: "media flowing", Point: "gateway"},
		},
	})
	f.Add(valid)
	f.Add(EncodeDigest(&Digest{Point: "gw", Seq: 1}))
	f.Add(EncodeDigestAck("edge", 7))
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("SCDG"))
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := DecodeDigest(data); err == nil {
			if d.Seq == 0 {
				t.Fatalf("decoded digest with sequence 0")
			}
			rd, rerr := DecodeDigest(EncodeDigest(d))
			if rerr != nil {
				t.Fatalf("re-encode of decoded digest does not decode: %v", rerr)
			}
			if rd.Point != d.Point || rd.Seq != d.Seq || rd.Dropped != d.Dropped || len(rd.Events) != len(d.Events) {
				t.Fatalf("round trip drifted: %+v vs %+v", rd, d)
			}
			for i := range d.Events {
				if rd.Events[i] != d.Events[i] {
					t.Fatalf("round trip drifted at event %d: %+v vs %+v", i, rd.Events[i], d.Events[i])
				}
			}
		}
		if point, seq, err := DecodeDigestAck(data); err == nil {
			back := EncodeDigestAck(point, seq)
			if p2, s2, err2 := DecodeDigestAck(back); err2 != nil || p2 != point || s2 != seq {
				t.Fatalf("ack round trip drifted: %q/%d -> %q/%d (%v)", point, seq, p2, s2, err2)
			}
		}
	})
}
