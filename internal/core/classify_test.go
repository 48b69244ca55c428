package core

import (
	"testing"
	"time"

	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// ledgerSum folds the terminal counters of the distiller's
// never-silently-dropped ledger (see DistillerStats).
func ledgerSum(st DistillerStats) int {
	return st.DecodeError + st.Fragments + st.Ignored + st.Streamed +
		st.SIP + st.RTP + st.RTCP + st.Acct + st.Raw + st.Mismatched
}

func checkLedger(t *testing.T, st DistillerStats) {
	t.Helper()
	if got, want := ledgerSum(st), st.Frames+st.StreamMsgs; got != want {
		t.Errorf("ledger broken: terminal counters sum to %d, inputs %d (%+v)", got, want, st)
	}
}

// rtpBytes returns a well-formed RTP packet that passes content
// confirmation (plausible payload type, nonzero SSRC).
func rtpBytes(t *testing.T) []byte {
	t.Helper()
	p := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: 42, Timestamp: 4200, SSRC: 0xC0FFEE01},
		Payload: make([]byte, 32),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("rtp marshal: %v", err)
	}
	return buf
}

// rtcpBytes is a minimal valid RTCP sender report compound.
func rtcpBytes(t *testing.T) []byte {
	t.Helper()
	buf, err := rtp.MarshalCompound([]rtp.RTCPPacket{&rtp.SenderReport{SSRC: 0xC0FFEE02, PacketCount: 5, OctetCount: 800}})
	if err != nil {
		t.Fatalf("rtcp marshal: %v", err)
	}
	return buf
}

// TestClassifyCounterPinning pins the exact classification counters for a
// crafted frame set covering every terminal bucket, including the
// content-confirmation reclassifications.
func TestClassifyCounterPinning(t *testing.T) {
	cases := []struct {
		name             string
		srcPort, dstPort uint16
		payload          []byte
	}{
		{"sip-on-sip-port", 5060, 5060, sipBytes(t)},
		{"rtp-on-sip-port", 5060, 5060, rtpBytes(t)},   // reclassifies SIP→RTP
		{"rtcp-on-sip-port", 5060, 5060, rtcpBytes(t)}, // reclassifies SIP→RTCP
		{"sip-on-rtp-port", 40666, 40000, sipBytes(t)}, // reclassifies RTP→SIP
		{"garbage-on-rtp-port", 40666, 40000, []byte{0x01}},
		{"http-ignored", 1234, 80, []byte("GET / HTTP/1.1\r\n")},
	}
	// Reclassified frames land in Mismatched, not the per-protocol
	// counters: SIP counts only the claimed-and-parsed message.
	want := DistillerStats{
		Frames: 7, SIP: 1, Raw: 1, Ignored: 1, DecodeError: 1, Mismatched: 3,
	}

	d := NewDistiller()
	var v FrameView
	for i, c := range cases {
		for _, frame := range frameFor(t, c.srcPort, c.dstPort, c.payload, 0) {
			d.DistillView(time.Duration(i)*time.Millisecond, frame, &v)
		}
	}
	d.DistillView(time.Second, []byte{0x01, 0x02}, &v) // decode error
	if got := d.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	checkLedger(t, d.Stats())
}

// TestReclassifiedFootprintShape pins what a reclassified frame looks
// like downstream: the view carries the content protocol's decoded
// fields with PortProto recording the contradicted port claim.
func TestReclassifiedFootprintShape(t *testing.T) {
	d := NewDistiller()
	v := distillOne(t, d, time.Second, frameFor(t, 5060, 5060, rtpBytes(t), 0)[0], ProtoRTP)
	if v.PortProto != ProtoSIP {
		t.Errorf("PortProto = %v, want ProtoSIP", v.PortProto)
	}
	if v.RTP.SSRC != 0xC0FFEE01 {
		t.Errorf("SSRC = %#x; reclassified decode lost the header", v.RTP.SSRC)
	}

	v = distillOne(t, d, 2*time.Second, frameFor(t, 40666, 40000, sipBytes(t), 0)[0], ProtoSIP)
	if v.PortProto != ProtoRTP {
		t.Errorf("PortProto = %v, want ProtoRTP", v.PortProto)
	}
	if v.Msg.CallID() != "dist@test" {
		t.Errorf("Call-ID = %q; reclassified parse lost the message", v.Msg.CallID())
	}
}

// TestReclassifySkipsClaimedProtocol: a payload whose claimed decoder
// rejects it must not be "reclassified" back to the same protocol — it
// falls through the ladder to the raw path.
func TestReclassifySkipsClaimedProtocol(t *testing.T) {
	d := NewDistiller()
	// A SIP start line that sniffs as SIP but does not parse (no headers):
	// on the SIP port the ladder must skip the SIP rung, find no other
	// protocol, and account the frame Raw.
	broken := []byte("INVITE sip:x@y SIP/2.0\r\n")
	distillOne(t, d, time.Second, frameFor(t, 5060, 5060, broken, 0)[0], ProtoOther)
	st := d.Stats()
	if st.Raw != 1 || st.Mismatched != 0 {
		t.Errorf("stats = %+v, want Raw=1 Mismatched=0", st)
	}
	checkLedger(t, st)
}

// TestTortureCorpusLedger feeds the full RFC 4475-style torture corpus to
// the distiller on both the signaling and a media port: no panics, and
// every message lands in exactly one terminal counter.
func TestTortureCorpusLedger(t *testing.T) {
	corpus := sip.TortureCorpus()
	d := NewDistiller()
	var v FrameView
	frames := 0
	for i, e := range corpus {
		for _, ports := range []struct{ src, dst uint16 }{{5060, 5060}, {40666, 40000}} {
			for _, frame := range frameFor(t, ports.src, ports.dst, e.Raw, 0) {
				d.DistillView(time.Duration(i)*time.Millisecond, frame, &v)
				frames++
			}
		}
	}
	st := d.Stats()
	if st.Frames != frames {
		t.Errorf("Frames = %d, fed %d", st.Frames, frames)
	}
	checkLedger(t, st)
	// Every legal corpus entry parses on the SIP port; on the media port it
	// reclassifies RTP→SIP (mismatched). Broken entries go Raw on both.
	legal := 0
	for _, e := range corpus {
		if e.Legal {
			legal++
		}
	}
	if st.SIP != legal {
		t.Errorf("SIP = %d, want %d (legal corpus entries on the SIP port)", st.SIP, legal)
	}
	if st.Mismatched != legal {
		t.Errorf("Mismatched = %d, want %d (legal entries reclassified on the media port)", st.Mismatched, legal)
	}
	if wantRaw := 2 * (len(corpus) - legal); st.Raw != wantRaw {
		t.Errorf("Raw = %d, want %d (broken entries on both ports)", st.Raw, wantRaw)
	}
}
