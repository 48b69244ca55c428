package core

import (
	"net/netip"
	"testing"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// Synthetic footprint-level tests of the Event Generator, independent of
// the network simulator.

var (
	egCaller = netip.MustParseAddrPort("10.0.0.1:5060")
	egCallee = netip.MustParseAddrPort("10.0.0.2:5060")
	egCMedia = netip.MustParseAddrPort("10.0.0.1:40000")
	egBMedia = netip.MustParseAddrPort("10.0.0.2:40000")
	egEvil   = netip.MustParseAddrPort("10.0.0.66:40666")
)

func newGen() *EventGenerator {
	return NewEventGenerator(GenConfig{}, NewTrailStore(0))
}

// Process folds one hand-built view into the generator, returning the
// events it completes.
func (g *EventGenerator) Process(v *FrameView) []Event {
	var events []Event
	g.ProcessView(v, RouteHints{}, &events)
	return events
}

// sipFp builds a SIP footprint.
func sipFp(t *testing.T, at time.Duration, src, dst netip.AddrPort, m *sip.Message) *FrameView {
	t.Helper()
	// Round-trip for realism (and Content-Length correctness).
	parsed, err := sip.ParseMessage(m.Marshal())
	if err != nil {
		t.Fatalf("synthetic message invalid: %v", err)
	}
	return &FrameView{Proto: ProtoSIP, At: at, Src: src, Dst: dst, Msg: parsed, Malformed: CheckSIPFormat(parsed)}
}

// egInvite builds a dialog-forming INVITE with SDP at callerMedia.
func egInvite(t *testing.T, callID string) *sip.Message {
	t.Helper()
	from, _ := sip.ParseAddress(`<sip:alice@10.0.0.10>;tag=a1`)
	to, _ := sip.ParseAddress(`<sip:bob@10.0.0.10>`)
	contact, _ := sip.ParseAddress(`<sip:alice@10.0.0.1:5060>`)
	return sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodInvite, RequestURI: "sip:bob@10.0.0.10",
		From: from, To: to, CallID: callID,
		CSeq:    sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:     sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + "eg1"}},
		Contact: &contact,
		Body: []byte("v=0\r\no=alice 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\nt=0 0\r\n" +
			"m=audio 40000 RTP/AVP 0\r\n"),
		BodyType: "application/sdp",
	})
}

// eg200 answers the INVITE with SDP at calleeMedia.
func eg200(t *testing.T, invite *sip.Message) *sip.Message {
	t.Helper()
	resp := sip.NewResponse(invite, sip.StatusOK, "b1")
	contact, _ := sip.ParseAddress(`<sip:bob@10.0.0.2:5060>`)
	resp.Headers.Add(sip.HdrContact, contact.String())
	resp.Headers.Add(sip.HdrContentType, "application/sdp")
	resp.Body = []byte("v=0\r\no=bob 1 1 IN IP4 10.0.0.2\r\ns=-\r\nc=IN IP4 10.0.0.2\r\nt=0 0\r\n" +
		"m=audio 40000 RTP/AVP 0\r\n")
	return resp
}

// establish drives a generator to an established call and returns it.
func establish(t *testing.T, g *EventGenerator, callID string) {
	t.Helper()
	inv := egInvite(t, callID)
	g.Process(sipFp(t, 0, egCaller, egCallee, inv))
	events := g.Process(sipFp(t, 10*time.Millisecond, egCallee, egCaller, eg200(t, inv)))
	found := false
	for _, e := range events {
		if e.Type == EvSIPCallEstablished {
			found = true
		}
	}
	if !found {
		t.Fatalf("call not established; events = %v", events)
	}
}

// rtpAt builds an RTP footprint.
func rtpAt(at time.Duration, src, dst netip.AddrPort, seq uint16) *FrameView {
	return &FrameView{Proto: ProtoRTP, At: at, Src: src, Dst: dst, RTP: rtp.HeaderView{Seq: seq, SSRC: 7, PayloadLen: 160}}
}

func eventsOf(events []Event, typ EventType) []Event {
	var out []Event
	for _, e := range events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

func TestGenEstablishmentEvents(t *testing.T) {
	g := newGen()
	inv := egInvite(t, "c1")
	ev1 := g.Process(sipFp(t, 0, egCaller, egCallee, inv))
	if len(eventsOf(ev1, EvSIPInvite)) != 1 {
		t.Errorf("INVITE events = %v", ev1)
	}
	ev2 := g.Process(sipFp(t, time.Millisecond, egCallee, egCaller, eg200(t, inv)))
	if len(eventsOf(ev2, EvSIPCallEstablished)) != 1 {
		t.Errorf("200 events = %v", ev2)
	}
}

func TestGenOrphanAfterByeWindow(t *testing.T) {
	g := newGen()
	establish(t, g, "c1")
	// Media flows normally.
	if ev := g.Process(rtpAt(100*time.Millisecond, egBMedia, egCMedia, 1)); len(eventsOf(ev, EvRTPAfterBye)) != 0 {
		t.Errorf("benign RTP flagged: %v", ev)
	}
	// BYE from bob (callee).
	bye := sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodBye, RequestURI: "sip:alice@10.0.0.10",
		From: mustAddr2(t, "<sip:bob@10.0.0.10>;tag=b1"), To: mustAddr2(t, "<sip:alice@10.0.0.10>;tag=a1"),
		CallID: "c1", CSeq: sip.CSeq{Seq: 2, Method: sip.MethodBye},
		Via: sip.Via{Transport: "UDP", SentBy: "10.0.0.2:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + "bye"}},
	})
	ev := g.Process(sipFp(t, 200*time.Millisecond, egCallee, egCaller, bye))
	if len(eventsOf(ev, EvSIPBye)) != 1 {
		t.Fatalf("BYE events = %v", ev)
	}
	// Orphan RTP from bob inside the window.
	ev = g.Process(rtpAt(250*time.Millisecond, egBMedia, egCMedia, 2))
	if len(eventsOf(ev, EvRTPAfterBye)) != 1 {
		t.Errorf("orphan not flagged: %v", ev)
	}
	// RTP from alice's side is not the orphan.
	ev = g.Process(rtpAt(260*time.Millisecond, egCMedia, egBMedia, 50))
	if len(eventsOf(ev, EvRTPAfterBye)) != 0 {
		t.Errorf("wrong side flagged: %v", ev)
	}
	// Past the (default 1s) window: silence.
	ev = g.Process(rtpAt(1500*time.Millisecond, egBMedia, egCMedia, 3))
	if len(eventsOf(ev, EvRTPAfterBye)) != 0 {
		t.Errorf("orphan flagged outside window: %v", ev)
	}
}

func TestGenSeqJumpThreshold(t *testing.T) {
	g := NewEventGenerator(GenConfig{SeqJumpThreshold: 100}, NewTrailStore(0))
	establish(t, g, "c1")
	g.Process(rtpAt(100*time.Millisecond, egBMedia, egCMedia, 1000))
	// Delta 100 = threshold: not flagged (must exceed).
	if ev := g.Process(rtpAt(120*time.Millisecond, egBMedia, egCMedia, 1100)); len(eventsOf(ev, EvRTPSeqJump)) != 0 {
		t.Errorf("delta==threshold flagged: %v", ev)
	}
	// Delta 101: flagged.
	if ev := g.Process(rtpAt(140*time.Millisecond, egBMedia, egCMedia, 1201)); len(eventsOf(ev, EvRTPSeqJump)) != 1 {
		t.Errorf("delta>threshold not flagged: %v", ev)
	}
}

func TestGenBadSourceOnlyForNegotiatedDst(t *testing.T) {
	g := newGen()
	establish(t, g, "c1")
	// Packet to alice's media from a third party.
	ev := g.Process(rtpAt(100*time.Millisecond, egEvil, egCMedia, 5))
	if len(eventsOf(ev, EvRTPBadSource)) != 1 {
		t.Errorf("bad source not flagged: %v", ev)
	}
	// Packet between unrelated endpoints: no session, no event.
	other := netip.MustParseAddrPort("10.0.0.9:45000")
	ev = g.Process(rtpAt(110*time.Millisecond, egEvil, other, 5))
	if len(eventsOf(ev, EvRTPBadSource)) != 0 {
		t.Errorf("unrelated flow flagged: %v", ev)
	}
}

func TestGenAcctUnmatchedVariants(t *testing.T) {
	reg := func(g *EventGenerator) {
		// Teach the generator alice's binding via a REGISTER 200.
		regReq := sip.NewRequest(sip.RequestSpec{
			Method: sip.MethodRegister, RequestURI: "sip:10.0.0.10",
			From:   mustAddr2(t, "<sip:alice@10.0.0.10>;tag=r1"),
			To:     mustAddr2(t, "<sip:alice@10.0.0.10>"),
			CallID: "reg1", CSeq: sip.CSeq{Seq: 1, Method: sip.MethodRegister},
			Via: sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + "rg"}},
		})
		contact, _ := sip.ParseAddress("<sip:alice@10.0.0.1:5060>")
		regReq.Headers.Add(sip.HdrContact, contact.String())
		g.Process(sipFp(t, 0, egCaller, egCallee, regReq))
		ok := sip.NewResponse(regReq, sip.StatusOK, "")
		ok.Headers.Add(sip.HdrContact, contact.String())
		g.Process(sipFp(t, time.Millisecond, egCallee, egCaller, ok))
	}
	acct := func(g *EventGenerator, callID string, ip netip.Addr) []Event {
		return g.Process(&FrameView{
			Proto: ProtoAccounting, At: time.Second, Src: egCallee, Dst: netip.MustParseAddrPort("10.0.0.20:7009"),
			Txn: accounting.Txn{
				Kind: accounting.TxnStart, CallID: callID,
				From: "alice@10.0.0.10", To: "bob@10.0.0.10", FromIP: ip,
			},
		})
	}

	t.Run("matching binding clean", func(t *testing.T) {
		g := newGen()
		reg(g)
		establish(t, g, "c1")
		ev := acct(g, "c1", netip.MustParseAddr("10.0.0.1"))
		if len(eventsOf(ev, EvAcctUnmatched)) != 0 {
			t.Errorf("legit accounting flagged: %v", ev)
		}
	})
	t.Run("wrong source ip", func(t *testing.T) {
		g := newGen()
		reg(g)
		establish(t, g, "c1")
		ev := acct(g, "c1", netip.MustParseAddr("10.0.0.66"))
		if len(eventsOf(ev, EvAcctUnmatched)) != 1 {
			t.Errorf("fraudulent accounting not flagged: %v", ev)
		}
	})
	t.Run("no call setup at all", func(t *testing.T) {
		g := newGen()
		reg(g)
		ev := acct(g, "ghost-call", netip.MustParseAddr("10.0.0.1"))
		if len(eventsOf(ev, EvAcctUnmatched)) != 1 {
			t.Errorf("ghost accounting not flagged: %v", ev)
		}
	})
	t.Run("unregistered caller", func(t *testing.T) {
		g := newGen()
		establish(t, g, "c1")
		ev := acct(g, "c1", netip.MustParseAddr("10.0.0.1"))
		if len(eventsOf(ev, EvAcctUnmatched)) != 1 {
			t.Errorf("unregistered-caller accounting not flagged: %v", ev)
		}
	})
}

func TestGenDuplicateByeDoesNotRearm(t *testing.T) {
	g := newGen()
	establish(t, g, "c1")
	bye := sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodBye, RequestURI: "sip:alice@10.0.0.10",
		From: mustAddr2(t, "<sip:bob@10.0.0.10>;tag=b1"), To: mustAddr2(t, "<sip:alice@10.0.0.10>;tag=a1"),
		CallID: "c1", CSeq: sip.CSeq{Seq: 2, Method: sip.MethodBye},
		Via: sip.Via{Transport: "UDP", SentBy: "10.0.0.2:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + "byd"}},
	})
	ev1 := g.Process(sipFp(t, 100*time.Millisecond, egCallee, egCaller, bye))
	// The relayed copy 1ms later must not produce a second EvSIPBye nor
	// move the monitoring window.
	ev2 := g.Process(sipFp(t, 101*time.Millisecond, egCallee, egCaller, bye))
	if len(eventsOf(ev1, EvSIPBye)) != 1 || len(eventsOf(ev2, EvSIPBye)) != 0 {
		t.Errorf("duplicate BYE handling: %v / %v", ev1, ev2)
	}
}

func mustAddr2(t *testing.T, s string) sip.Address {
	t.Helper()
	a, err := sip.ParseAddress(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
