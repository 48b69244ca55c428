package rtp

import (
	"testing"

	"scidive/internal/sip"
)

// FuzzPeekMatchesUnmarshal holds the allocation-free peek decoders to the
// full decoders they stand in for on the detection hot path: CheckHeader ≡
// Unmarshal and CheckCompound ≡ UnmarshalCompound accept and reject
// exactly the same buffers, the reject value renders the same error text
// (a raw footprint's reason reaches event details), and they yield the
// same header fields and payload length, and the same packet count and
// BYE verdict. PeekHeader and PeekCompound are their reject values as
// errors. Seeded with the
// shapes the classifier meets at the wrong port: the SIP torture corpus,
// RTP tunnelled over a signalling port, SIP smuggled in an RTP payload,
// RTCP misread as RTP, padding and CSRC edge cases.
func FuzzPeekMatchesUnmarshal(f *testing.F) {
	for _, e := range sip.TortureCorpus() {
		f.Add(e.Raw)
	}
	rtpPkt := []byte{0x80, 0, 0x23, 0x28, 0, 0, 0x10, 0, 0xde, 0xad, 0, 1, 'm', 'e', 'd', 'i', 'a'}
	f.Add(rtpPkt)
	f.Add(append(append([]byte(nil), rtpPkt...), "BYE sip:bob@pbx SIP/2.0\r\n\r\n"...)) // SIP smuggled in the payload
	f.Add(append([]byte("\r\n"), rtpPkt...))                                            // keep-alive glued to RTP
	f.Add([]byte{0xa0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 'x', 'y', 0, 3})                // padding 3 of 4
	f.Add([]byte{0xa0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 'x', 'y', 0, 9})                // padding overruns
	f.Add([]byte{0xa0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0})                             // zero padding count
	f.Add([]byte{0x8f, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4})                    // 15 CSRCs promised, one present
	f.Add([]byte{0x80, 0, 0})                                                           // shorter than a header
	for _, pkts := range [][]RTCPPacket{
		{&ReceiverReport{SSRC: 7, Reports: []ReportBlock{{SSRC: 9}}}},
		{&SenderReport{SSRC: 7, PacketCount: 5, OctetCount: 800}, &SourceDescription{SSRC: 7, CNAME: "alice@pbx"}},
		{&ReceiverReport{SSRC: 7}, &Bye{SSRCs: []uint32{7}, Reason: "a\n\n"}},
		{&Bye{SSRCs: []uint32{7}}},
	} {
		buf, err := MarshalCompound(pkts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])              // sheared tail
		f.Add(append(buf, 0x80, 0xc9, 0, 9)) // trailing header promising too much
	}
	f.Add([]byte{0x81, 0xcb, 0, 1, 0, 0, 0, 7, 9, 'x'}) // BYE reason overruns
	f.Add([]byte{0x80, 0xcc, 0, 0})                     // APP: unknown to both decoders

	f.Fuzz(func(t *testing.T, buf []byte) {
		var hv HeaderView
		pkt, uerr := Unmarshal(buf)
		rej := CheckHeader(buf, &hv)
		if perr := PeekHeader(buf, &hv); (perr == nil) != rej.OK() || (perr != nil && perr.Error() != rej.Error()) {
			t.Fatalf("PeekHeader %v disagrees with its own reject value %v", perr, rej)
		}
		switch {
		case rej.OK() != (uerr == nil):
			t.Fatalf("RTP accept/reject differs: CheckHeader %v, Unmarshal %v", rej, uerr)
		case !rej.OK():
			if rej.Error() != uerr.Error() {
				t.Fatalf("RTP error text differs: CheckHeader %q, Unmarshal %q", rej.Error(), uerr)
			}
		default:
			h := pkt.Header
			want := HeaderView{
				Padding: h.Padding, Extension: h.Extension, Marker: h.Marker, PayloadType: h.PayloadType,
				Seq: h.Seq, Timestamp: h.Timestamp, SSRC: h.SSRC, CSRCCount: len(h.CSRC), PayloadLen: len(pkt.Payload),
			}
			if hv != want {
				t.Fatalf("RTP fields differ:\npeek      %+v\nunmarshal %+v", hv, want)
			}
		}

		var cv CompoundView
		pkts, uerr := UnmarshalCompound(buf)
		rej = CheckCompound(buf, &cv)
		if perr := PeekCompound(buf, &cv); (perr == nil) != rej.OK() || (perr != nil && perr.Error() != rej.Error()) {
			t.Fatalf("PeekCompound %v disagrees with its own reject value %v", perr, rej)
		}
		switch {
		case rej.OK() != (uerr == nil):
			t.Fatalf("RTCP accept/reject differs: CheckCompound %v, UnmarshalCompound %v", rej, uerr)
		case !rej.OK():
			if rej.Error() != uerr.Error() {
				t.Fatalf("RTCP error text differs: CheckCompound %q, UnmarshalCompound %q", rej.Error(), uerr)
			}
		default:
			hasBye := false
			for _, p := range pkts {
				if _, ok := p.(*Bye); ok {
					hasBye = true
				}
			}
			if cv.Packets != len(pkts) || cv.HasBye != hasBye {
				t.Fatalf("RTCP view differs: peek %+v, unmarshal %d packets, bye=%v", cv, len(pkts), hasBye)
			}
		}
	})
}
