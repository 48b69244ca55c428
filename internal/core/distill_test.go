package core

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sip"
)

var (
	dSrcIP = netip.MustParseAddr("10.0.0.1")
	dDstIP = netip.MustParseAddr("10.0.0.2")
)

// frameFor wraps a UDP payload in Ethernet/IP framing for distiller tests.
func frameFor(t *testing.T, srcPort, dstPort uint16, payload []byte, mtu int) [][]byte {
	t.Helper()
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: dSrcIP, DstIP: dDstIP,
		SrcPort: srcPort, DstPort: dstPort,
		IPID: 99, Payload: payload,
	}, mtu)
	if err != nil {
		t.Fatalf("BuildUDPFrames: %v", err)
	}
	return frames
}

func sipBytes(t *testing.T) []byte {
	t.Helper()
	from, _ := sip.ParseAddress("<sip:alice@10.0.0.1>;tag=t1")
	to, _ := sip.ParseAddress("<sip:bob@10.0.0.2>")
	req := sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodInvite, RequestURI: "sip:bob@10.0.0.2",
		From: from, To: to, CallID: "dist@test",
		CSeq: sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:  sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": "z9hG4bKd"}},
	})
	return req.Marshal()
}

// distillOne runs one frame through DistillView, failing the test unless
// it produces a footprint of the wanted protocol.
func distillOne(t *testing.T, d *Distiller, at time.Duration, frame []byte, want Protocol) *FrameView {
	t.Helper()
	var v FrameView
	if ok := d.DistillView(at, frame, &v); !ok || v.Proto != want {
		t.Fatalf("footprint = %v (produced=%v), want %v", v.Proto, ok, want)
	}
	return &v
}

func TestDistillSIP(t *testing.T) {
	d := NewDistiller()
	frames := frameFor(t, 5060, 5060, sipBytes(t), 0)
	v := distillOne(t, d, time.Second, frames[0], ProtoSIP)
	if v.Msg.CallID() != "dist@test" {
		t.Errorf("Call-ID = %q", v.Msg.CallID())
	}
	if len(v.Malformed) != 0 {
		t.Errorf("clean message flagged: %v", v.Malformed)
	}
	if src, dst := v.Src, v.Dst; src.Port() != 5060 || dst.Port() != 5060 || src.Addr() != dSrcIP {
		t.Errorf("flow = %v -> %v", src, dst)
	}
	if d.Stats().SIP != 1 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestDistillFragmentedSIP(t *testing.T) {
	// A SIP message bigger than the MTU arrives as IP fragments; the
	// distiller must reassemble before parsing (a stated Distiller duty).
	d := NewDistiller()
	big := sipBytes(t)
	// Pad the body to exceed a tiny MTU.
	m, err := sip.ParseMessage(big)
	if err != nil {
		t.Fatal(err)
	}
	m.Body = []byte(strings.Repeat("x", 2000))
	m.Headers.Set(sip.HdrContentType, "text/plain")
	frames := frameFor(t, 5060, 5060, m.Marshal(), 576)
	if len(frames) < 2 {
		t.Fatalf("expected fragmentation, got %d frame(s)", len(frames))
	}
	var v FrameView
	for i, fr := range frames {
		if got := d.DistillView(time.Duration(i)*time.Millisecond, fr, &v); got != (i == len(frames)-1) {
			t.Fatalf("fragment %d of %d: footprint = %v", i, len(frames), got)
		}
	}
	if v.Proto != ProtoSIP {
		t.Fatalf("reassembled footprint = %v", v.Proto)
	}
	if len(v.Msg.Body) != 2000 {
		t.Errorf("body = %d bytes", len(v.Msg.Body))
	}
	if d.Stats().Fragments == 0 {
		t.Error("no fragments counted")
	}
}

func TestDistillRTPAndRTCP(t *testing.T) {
	d := NewDistiller()
	pkt := rtp.Packet{Header: rtp.Header{Seq: 7, SSRC: 9}, Payload: make([]byte, 160)}
	buf, _ := pkt.Marshal()
	v := distillOne(t, d, 0, frameFor(t, 40000, 40000, buf, 0)[0], ProtoRTP)
	if v.RTP.Seq != 7 || v.RTP.PayloadLen != 160 {
		t.Errorf("rtp view = %+v", v.RTP)
	}

	rtcpBuf, _ := rtp.MarshalCompound([]rtp.RTCPPacket{&rtp.ReceiverReport{SSRC: 9}})
	v = distillOne(t, d, 0, frameFor(t, 40001, 40001, rtcpBuf, 0)[0], ProtoRTCP)
	if v.RTCP.Packets != 1 {
		t.Errorf("rtcp packets = %d", v.RTCP.Packets)
	}
}

func TestDistillGarbageOnRTPPort(t *testing.T) {
	d := NewDistiller()
	garbage := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b}
	v := distillOne(t, d, 0, frameFor(t, 40666, 40000, garbage, 0)[0], ProtoOther)
	if v.OnPort != ProtoRTP {
		t.Errorf("OnPort = %v", v.OnPort)
	}
	if v.RawLen != len(garbage) {
		t.Errorf("RawLen = %d", v.RawLen)
	}
	if v.Reason == "" {
		t.Error("raw view carries no reason")
	}
}

func TestDistillAccounting(t *testing.T) {
	d := NewDistiller()
	txn := accounting.Txn{Kind: accounting.TxnStart, CallID: "c1", From: "a@d", To: "b@d", FromIP: dSrcIP}
	v := distillOne(t, d, 0, frameFor(t, 7010, accounting.DefaultPort, txn.Marshal(), 0)[0], ProtoAccounting)
	if v.Txn.CallID != "c1" || v.Txn.Kind != accounting.TxnStart {
		t.Errorf("txn = %+v", v.Txn)
	}
}

func TestDistillIgnoresUnmonitoredPorts(t *testing.T) {
	d := NewDistiller()
	var v FrameView
	if d.DistillView(0, frameFor(t, 1234, 80, []byte("GET / HTTP/1.1"), 0)[0], &v) {
		t.Errorf("footprint = %v for web traffic", v.Proto)
	}
	if d.Stats().Ignored != 1 {
		t.Errorf("Ignored = %d", d.Stats().Ignored)
	}
}

func TestDistillUndecodableFrames(t *testing.T) {
	d := NewDistiller()
	var v FrameView
	if d.DistillView(0, []byte{1, 2, 3}, &v) {
		t.Error("footprint from 3-byte frame")
	}
	if d.Stats().DecodeError != 1 {
		t.Errorf("DecodeError = %d", d.Stats().DecodeError)
	}
}

func TestCheckSIPFormat(t *testing.T) {
	clean, err := sip.ParseMessage(sipBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckSIPFormat(clean); len(v) != 0 {
		t.Errorf("clean message: %v", v)
	}

	dup, _ := sip.ParseMessage(sipBytes(t))
	dup.Headers.Add(sip.HdrFrom, "<sip:evil@10.0.0.66>;tag=x")
	if v := CheckSIPFormat(dup); len(v) != 1 || !strings.Contains(v[0], "duplicate From") {
		t.Errorf("duplicate From: %v", v)
	}

	badMF, _ := sip.ParseMessage(sipBytes(t))
	badMF.Headers.Set(sip.HdrMaxForwards, "lots")
	if v := CheckSIPFormat(badMF); len(v) != 1 || !strings.Contains(v[0], "Max-Forwards") {
		t.Errorf("bad Max-Forwards: %v", v)
	}

	badFrom, _ := sip.ParseMessage(sipBytes(t))
	badFrom.Headers.Set(sip.HdrFrom, ">>>not an address<<<")
	if v := CheckSIPFormat(badFrom); len(v) == 0 {
		t.Error("unparseable From not flagged")
	}
}
