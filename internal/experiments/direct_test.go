package experiments

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/packet"
	"scidive/internal/scenario"
	"scidive/internal/sip"
)

// TestDirectTrailMatchingDetectsByeAttack: with the event layer taken
// out, rules scanning raw trails still detect the BYE attack, live on the
// testbed and on the workload BenchmarkAblation_DirectMatching replays;
// the benchmark measures the cost difference.
func TestDirectTrailMatchingDetectsByeAttack(t *testing.T) {
	tb, err := scenario.New(scenario.Config{Seed: 110})
	if err != nil {
		t.Fatal(err)
	}
	m := NewDirectMatcher(0)
	tb.Net.AddTap(m.HandleFrame)
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EstablishCall(); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	d := tb.Sniffer.ConfirmedDialog()
	if d == nil {
		t.Fatal("no sniffed dialog")
	}
	tb.Sim.Schedule(0, func() { _ = tb.Attacker.ForgedBye(d, true) })
	tb.Run(2 * time.Second)
	if got := m.AlertsFor(core.RuleByeAttack); len(got) != 1 {
		t.Fatalf("live testbed: %d bye-attack alerts, want 1: %v", len(got), got)
	}

	recorded := NewDirectMatcher(0)
	if _, err := RunByeAttack(1, core.Config{}, recorded.HandleFrame); err != nil {
		t.Fatal(err)
	}
	if got := recorded.AlertsFor(core.RuleByeAttack); len(got) != 1 {
		t.Fatalf("recorded workload: %d bye-attack alerts, want 1: %v", len(got), got)
	}
}

var (
	dmCaller = netip.MustParseAddrPort("10.0.0.1:5060")
	dmCallee = netip.MustParseAddrPort("10.0.0.2:5060")
)

// dmDialog returns the six messages of a short call — INVITE, 180, 200,
// ACK, BYE, 200 — as frames between the signalling hosts.
func dmDialog(t *testing.T, callID string) [][]byte {
	t.Helper()
	from, _ := sip.ParseAddress("<sip:alice@10.0.0.10>;tag=a1")
	to, _ := sip.ParseAddress("<sip:bob@10.0.0.10>")
	req := func(method sip.Method, seq uint32, to sip.Address) *sip.Message {
		return sip.NewRequest(sip.RequestSpec{
			Method: method, RequestURI: "sip:bob@10.0.0.10", From: from, To: to, CallID: callID,
			CSeq: sip.CSeq{Seq: seq, Method: method},
			Via:  sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + string(method)}},
		})
	}
	inv := req(sip.MethodInvite, 1, to)
	ok := sip.NewResponse(inv, sip.StatusOK, "b1")
	answered, _ := sip.ParseAddress(ok.Headers.Get(sip.HdrTo))
	bye := req(sip.MethodBye, 2, answered)
	var frames [][]byte
	for _, leg := range []struct {
		fromCaller bool
		m          *sip.Message
	}{
		{true, inv}, {false, sip.NewResponse(inv, sip.StatusRinging, "b1")}, {false, ok},
		{true, req(sip.MethodAck, 1, answered)}, {true, bye}, {false, sip.NewResponse(bye, sip.StatusOK, "")},
	} {
		src, dst := dmCaller, dmCallee
		if !leg.fromCaller {
			src, dst = dst, src
		}
		fr, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
			IPID: 1, Payload: leg.m.Marshal(),
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr[0])
	}
	return frames
}

// TestDirectTrailBounded holds the ablation's literal trail to its bound:
// with a bound of 4, no Call-ID ever keeps more than its 4 most recent
// messages, while the trail store still counts each dialog's messages up
// to the same bound.
func TestDirectTrailBounded(t *testing.T) {
	const bound = 4
	m := NewDirectMatcher(bound)
	var frames [][]byte
	for i := 0; i < 3; i++ {
		frames = append(frames, dmDialog(t, fmt.Sprintf("direct%d@bound", i))...)
	}
	at := time.Duration(0)
	seen := make(map[string]int)
	for round := 0; round < 2; round++ {
		for i, fr := range frames {
			at += time.Millisecond
			m.HandleFrame(at, fr)
			id := fmt.Sprintf("direct%d@bound", i/6)
			seen[id]++
			list := m.direct[id]
			if want := min(seen[id], bound); len(list) != want {
				t.Fatalf("%s after %d messages: literal trail holds %d, want %d", id, seen[id], len(list), want)
			}
			if last := list[len(list)-1]; last.at != at || last.msg.CallID() != id {
				t.Fatalf("%s: newest entry is %v %q, want the message just fed at %v", id, last.at, last.msg.CallID(), at)
			}
			for j := 1; j < len(list); j++ {
				if list[j].at <= list[j-1].at {
					t.Fatalf("%s: literal trail out of arrival order: %v then %v", id, list[j-1].at, list[j].at)
				}
			}
			if got := m.trails.Lookup(id, core.ProtoSIP).Len(); got != min(seen[id], bound) {
				t.Fatalf("%s: trail store counts %d, want %d", id, got, min(seen[id], bound))
			}
		}
	}
	if len(m.direct) != 3 {
		t.Errorf("literal trails for %d Call-IDs, want 3", len(m.direct))
	}
}
