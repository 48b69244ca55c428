// Package scidive_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md's experiment
// index). Each benchmark reports the reproduced quantity as a custom
// metric next to the usual time/op:
//
//	go test -bench=. -benchmem
//
// Table 1 -> BenchmarkTable1_*        (detect_ms = detection delay)
// Fig 1   -> BenchmarkFig1_NormalCall (false_alarms must stay 0)
// Fig 5-8 -> BenchmarkFig{5,6,7,8}_*
// §4.3    -> BenchmarkSec43_*         (delay_ms, pm, pf)
// §3.2    -> BenchmarkSec32_BillingFraud
// §3.3    -> BenchmarkSec33_Stateful  (false-alarm comparison)
// Ablations -> BenchmarkAblation_*    (event layer, reassembly)
package scidive_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"net/netip"
	"scidive/internal/core"
	"scidive/internal/eval"
	"scidive/internal/experiments"

	"scidive/internal/netsim"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// benchOutcome runs a scenario per iteration and reports the detection
// delay; it fails the benchmark if the attack is ever missed.
func benchOutcome(b *testing.B, run func(seed int64) (experiments.Outcome, error)) {
	b.Helper()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		o, err := run(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !o.Detected {
			b.Fatalf("iteration %d: attack missed (%s)", i, o.Impact)
		}
		total += o.DetectDelay
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "detect_ms")
}

func BenchmarkTable1_ByeAttack(b *testing.B) {
	benchOutcome(b, func(seed int64) (experiments.Outcome, error) {
		return experiments.RunByeAttack(seed, core.Config{})
	})
}

func BenchmarkTable1_FakeIM(b *testing.B) {
	benchOutcome(b, func(seed int64) (experiments.Outcome, error) {
		return experiments.RunFakeIM(seed)
	})
}

func BenchmarkTable1_CallHijack(b *testing.B) {
	benchOutcome(b, func(seed int64) (experiments.Outcome, error) {
		return experiments.RunCallHijack(seed)
	})
}

func BenchmarkTable1_RTPAttack(b *testing.B) {
	benchOutcome(b, func(seed int64) (experiments.Outcome, error) {
		return experiments.RunRTPAttack(seed, true)
	})
}

// BenchmarkFig1_NormalCall regenerates the Figure 1 flow and asserts the
// false-alarm count stays zero.
func BenchmarkFig1_NormalCall(b *testing.B) {
	falseAlarms := 0
	for i := 0; i < b.N; i++ {
		o, err := experiments.RunBenign(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		falseAlarms += len(o.Alerts)
	}
	b.ReportMetric(float64(falseAlarms), "false_alarms")
}

// Figures 5-8 are the same runs as Table 1 rows; aliases keep the
// experiment index 1:1 with the paper's figures.
func BenchmarkFig5_ByeAttack(b *testing.B)  { BenchmarkTable1_ByeAttack(b) }
func BenchmarkFig6_FakeIM(b *testing.B)     { BenchmarkTable1_FakeIM(b) }
func BenchmarkFig7_CallHijack(b *testing.B) { BenchmarkTable1_CallHijack(b) }
func BenchmarkFig8_RTPAttack(b *testing.B)  { BenchmarkTable1_RTPAttack(b) }

// BenchmarkSec43_DetectionDelay reproduces the E[D] = 10ms analysis.
func BenchmarkSec43_DetectionDelay(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := eval.Model{} // paper baseline
	var mean time.Duration
	for i := 0; i < b.N; i++ {
		res := m.SimulateDetection(rng, 10000)
		mean = res.MeanDelay
	}
	b.ReportMetric(mean.Seconds()*1000, "delay_ms")
}

// BenchmarkSec43_MissedAlarm reproduces Pm at a tight window with loss.
func BenchmarkSec43_MissedAlarm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := eval.Model{
		Nrtp:       netsim.Exponential{MeanD: 5 * time.Millisecond},
		Nsip:       netsim.Exponential{MeanD: 5 * time.Millisecond},
		Window:     25 * time.Millisecond,
		Loss:       0.2,
		MaxPackets: 3,
	}
	var pm float64
	for i := 0; i < b.N; i++ {
		pm = m.SimulateDetection(rng, 10000).Pm
	}
	b.ReportMetric(pm, "pm")
}

// BenchmarkSec43_FalseAlarm reproduces Pf -> 1/2 for iid delays.
func BenchmarkSec43_FalseAlarm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := eval.Model{
		Nrtp: netsim.Exponential{MeanD: 5 * time.Millisecond},
		Nsip: netsim.Exponential{MeanD: 5 * time.Millisecond},
	}
	var pf float64
	for i := 0; i < b.N; i++ {
		pf = m.SimulateFalseAlarm(rng, 10000)
	}
	b.ReportMetric(pf, "pf")
}

func BenchmarkSec32_BillingFraud(b *testing.B) {
	benchOutcome(b, func(seed int64) (experiments.Outcome, error) {
		return experiments.RunBillingFraud(seed)
	})
}

// BenchmarkSec33_Stateful reports the false-alarm comparison between
// SCIDIVE and the stateless baseline.
func BenchmarkSec33_Stateful(b *testing.B) {
	var cmp experiments.StatefulComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.RunStatefulComparison(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cmp.BenignSCIDIVEAlerts), "scidive_benign_alerts")
	b.ReportMetric(float64(cmp.BenignBaselineAlerts), "baseline_benign_alerts")
}

// --- Ablations and microbenchmarks ---

// recordedWorkload captures all frames of one BYE-attack run for replay
// benchmarks.
func recordedWorkload(b *testing.B) []struct {
	at    time.Duration
	frame []byte
} {
	b.Helper()
	var frames []struct {
		at    time.Duration
		frame []byte
	}
	_, err := experiments.RunByeAttack(1, core.Config{}, func(at time.Duration, frame []byte) {
		frames = append(frames, struct {
			at    time.Duration
			frame []byte
		}{at, frame})
	})
	if err != nil {
		b.Fatal(err)
	}
	return frames
}

// BenchmarkAblation_EventLayer measures per-frame IDS cost with the event
// generator in place (the paper's architecture).
func BenchmarkAblation_EventLayer(b *testing.B) {
	frames := recordedWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(core.Config{})
		for _, f := range frames {
			eng.HandleFrame(f.at, f.frame)
		}
		if len(eng.AlertsFor(core.RuleByeAttack)) != 1 {
			b.Fatal("event-layer engine missed the attack")
		}
	}
	b.ReportMetric(float64(len(frames)), "frames/op")
}

// BenchmarkAblation_DirectMatching measures the same workload with the
// event layer taken out (experiments.DirectMatcher): rules re-scan raw
// trails on every media packet. The gap versus
// BenchmarkAblation_EventLayer is what the Event Generator abstraction
// buys (paper Section 3.1).
func BenchmarkAblation_DirectMatching(b *testing.B) {
	frames := recordedWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := experiments.NewDirectMatcher(0)
		for _, f := range frames {
			m.HandleFrame(f.at, f.frame)
		}
		if len(m.AlertsFor(core.RuleByeAttack)) != 1 {
			b.Fatal("direct-matching engine missed the attack")
		}
	}
	b.ReportMetric(float64(len(frames)), "frames/op")
}

// buildRTPFrame builds one representative media frame.
func buildRTPFrame(b *testing.B) []byte {
	b.Helper()
	pkt := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: 100, Timestamp: 16000, SSRC: 7},
		Payload: make([]byte, 160),
	}
	buf, err := pkt.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
		SrcPort: 40000, DstPort: 40000, IPID: 1, Payload: buf,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return frames[0]
}

// BenchmarkDistiller_RTPFrame measures raw distillation throughput.
func BenchmarkDistiller_RTPFrame(b *testing.B) {
	frame := buildRTPFrame(b)
	d := core.NewDistiller()
	var v core.FrameView
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.DistillView(time.Duration(i)*20*time.Millisecond, frame, &v) {
			b.Fatal("no footprint")
		}
	}
}

// BenchmarkEngine_RTPFrame measures full-pipeline cost per media frame.
func BenchmarkEngine_RTPFrame(b *testing.B) {
	frame := buildRTPFrame(b)
	eng := core.NewEngine(core.Config{})
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.HandleFrame(time.Duration(i)*20*time.Millisecond, frame)
	}
}

// --- Hot-path steady state (see DESIGN.md "Memory model of the hot path") ---

// buildUDPFrame builds one UDP frame carrying payload between fixed hosts.
func buildUDPFrame(b *testing.B, srcPort, dstPort uint16, payload []byte) []byte {
	b.Helper()
	return buildUDPFrameBetween(b, netip.AddrPortFrom(mustAddr("10.0.0.1"), srcPort),
		netip.AddrPortFrom(mustAddr("10.0.0.2"), dstPort), payload)
}

// buildUDPFrameBetween builds one UDP frame carrying payload from src to dst.
func buildUDPFrameBetween(b *testing.B, src, dst netip.AddrPort, payload []byte) []byte {
	b.Helper()
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
		IPID: 1, Payload: payload,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return frames[0]
}

// buildRTCPFrame builds one receiver-report frame (no BYE, so replaying
// it generates no events).
func buildRTCPFrame(b *testing.B) []byte {
	b.Helper()
	buf, err := rtp.MarshalCompound([]rtp.RTCPPacket{
		&rtp.ReceiverReport{SSRC: 7, Reports: []rtp.ReportBlock{{SSRC: 9}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return buildUDPFrame(b, 40001, 40001, buf)
}

// buildSIPFrame builds an in-dialog INVITE; after the first sighting every
// replay is a retransmission that changes no dialog state.
func buildSIPFrame(b *testing.B) []byte {
	b.Helper()
	from, err := sip.ParseAddress("<sip:alice@10.0.0.1>;tag=t1")
	if err != nil {
		b.Fatal(err)
	}
	to, err := sip.ParseAddress("<sip:bob@10.0.0.2>")
	if err != nil {
		b.Fatal(err)
	}
	m := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: "sip:bob@10.0.0.2",
		From:       from, To: to,
		CallID: "steady@bench",
		CSeq:   sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:    sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": "z9hG4bKb"}},
	})
	return buildUDPFrame(b, 5060, 5060, m.Marshal())
}

// benchHotPath measures the steady-state per-frame cost of a warmed
// pipeline: every trail count is clamped at its bound and every pool,
// interner and session table is populated before the clock starts. Run with -benchmem; RTP and RTCP must report 0 allocs/op, SIP
// its documented budget (see internal/core/allocs_test.go).
func benchHotPath(b *testing.B, feed func(at time.Duration, frame []byte), frame []byte) {
	b.Helper()
	at, step := time.Duration(0), 20*time.Millisecond
	for i := 0; i < 5000; i++ { // past the 4096-entry trail bound
		feed(at, frame)
		at += step
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(at, frame)
		at += step
	}
}

func BenchmarkHotPath_RTPFrame(b *testing.B) {
	eng := core.NewEngine(core.Config{})
	benchHotPath(b, eng.HandleFrame, buildRTPFrame(b))
}

func BenchmarkHotPath_RTCPFrame(b *testing.B) {
	eng := core.NewEngine(core.Config{})
	benchHotPath(b, eng.HandleFrame, buildRTCPFrame(b))
}

func BenchmarkHotPath_SIPFrame(b *testing.B) {
	eng := core.NewEngine(core.Config{})
	benchHotPath(b, eng.HandleFrame, buildSIPFrame(b))
}

// BenchmarkHotPath_SIPDialogs is the SIP hot path when nothing repeats:
// one frame per op, cycling through 4096 prebuilt dialogs (INVITE and
// 200 with SDP, ACK, BYE), each with its own Call-ID, tags, branches and
// media ports. BenchmarkHotPath_SIPFrame replays one frame, so any cache
// of header values always hits there; here none can. One full cycle runs
// before the clock starts, so every dialog's session is live.
func BenchmarkHotPath_SIPDialogs(b *testing.B) {
	const dialogs = 4096
	ids := sip.NewIDGen(rand.New(rand.NewSource(1)))
	caller, callee := mustAddr("10.0.0.1"), mustAddr("10.0.0.2")
	frames := make([][]byte, 0, 4*dialogs)
	for i := 0; i < dialogs; i++ {
		a := sip.Address{URI: sip.URI{User: fmt.Sprintf("alice%d", i), Host: "pbx"}}.WithTag(ids.Tag())
		bob := sip.Address{URI: sip.URI{User: fmt.Sprintf("bob%d", i), Host: "pbx"}}
		bTag, callID := ids.Tag(), ids.CallID("pbx")
		port := uint16(20000 + 2*(i%20000))
		request := func(method sip.Method, seq uint32, to sip.Address, body []byte) *sip.Message {
			spec := sip.RequestSpec{
				Method: method, RequestURI: bob.URI.String(), From: a, To: to, CallID: callID,
				CSeq: sip.CSeq{Seq: seq, Method: method},
				Via:  sip.Via{Transport: "UDP", SentBy: "10.0.0.1", Params: map[string]string{"branch": ids.Branch()}},
				Body: body,
			}
			if body != nil {
				spec.BodyType = "application/sdp"
			}
			return sip.NewRequest(spec)
		}
		inv := request(sip.MethodInvite, 1, bob, sdp.NewAudioSession("caller", caller, port).Marshal())
		ok := sip.NewResponse(inv, sip.StatusOK, bTag)
		ok.Headers.Add(sip.HdrContentType, "application/sdp")
		ok.Body = sdp.NewAudioSession("callee", callee, port).Marshal()
		ack := request(sip.MethodAck, 1, bob.WithTag(bTag), nil)
		bye := request(sip.MethodBye, 2, bob.WithTag(bTag), nil)
		frames = append(frames,
			buildUDPFrameBetween(b, netip.AddrPortFrom(caller, 5060), netip.AddrPortFrom(callee, 5060), inv.Marshal()),
			buildUDPFrameBetween(b, netip.AddrPortFrom(callee, 5060), netip.AddrPortFrom(caller, 5060), ok.Marshal()),
			buildUDPFrameBetween(b, netip.AddrPortFrom(caller, 5060), netip.AddrPortFrom(callee, 5060), ack.Marshal()),
			buildUDPFrameBetween(b, netip.AddrPortFrom(caller, 5060), netip.AddrPortFrom(callee, 5060), bye.Marshal()))
	}
	eng := core.NewEngine(core.Config{})
	at, step := time.Duration(0), time.Millisecond
	for _, fr := range frames {
		eng.HandleFrame(at, fr)
		at += step
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.HandleFrame(at, frames[i%len(frames)])
		at += step
	}
}

// BenchmarkHotPath_TCPTrunk is the stream arm's hot path: the serial
// engine over one SIP trunk (a TCP connection, both directions) carrying
// 256 dialogs (INVITE and 200 with SDP, ACK, BYE). In turn, a message
// rides whole in one segment, split mid-header across two, or coalesced
// with the next message its direction sends. Each cycle opens with a SYN
// per direction, so the prebuilt segments replay as a fresh connection
// on the same 4-tuple. One op is one segment: ns/op and allocs/op are
// per segment. Two cycles run before the clock starts.
func BenchmarkHotPath_TCPTrunk(b *testing.B) {
	const dialogs = 256
	ids := sip.NewIDGen(rand.New(rand.NewSource(1)))
	caller, callee := netip.AddrPortFrom(mustAddr("10.0.0.1"), 5060), netip.AddrPortFrom(mustAddr("10.0.0.2"), 5060)
	type direction struct {
		src, dst netip.AddrPort
		seq      uint32
		held     []byte // a message waiting to be coalesced with the next
	}
	up := &direction{src: caller, dst: callee, seq: 1000}
	down := &direction{src: callee, dst: caller, seq: 9000}
	var segs [][]byte
	segment := func(d *direction, flags uint8, payload []byte) {
		frames, err := packet.BuildTCPFrames(packet.TCPFrameSpec{
			SrcIP: d.src.Addr(), DstIP: d.dst.Addr(), SrcPort: d.src.Port(), DstPort: d.dst.Port(),
			Seq: d.seq, Flags: flags, IPID: uint16(len(segs)), Payload: payload,
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		d.seq += uint32(len(payload))
		segs = append(segs, frames...)
	}
	for _, d := range []*direction{up, down} {
		segment(d, packet.TCPFlagSYN, nil)
		d.seq++
	}
	sent := 0
	send := func(d *direction, m *sip.Message) {
		raw := m.Marshal()
		sent++
		switch sent % 3 {
		case 0:
			segment(d, packet.TCPFlagACK, append(d.held, raw...))
			d.held = nil
		case 1:
			if d.held != nil {
				segment(d, packet.TCPFlagACK, d.held)
				d.held = nil
			}
			cut := bytes.Index(raw, []byte("\r\n\r\n")) / 2
			segment(d, packet.TCPFlagACK, raw[:cut])
			segment(d, packet.TCPFlagACK, raw[cut:])
		default:
			d.held = append(d.held, raw...)
		}
	}
	for i := 0; i < dialogs; i++ {
		a := sip.Address{URI: sip.URI{User: fmt.Sprintf("alice%d", i), Host: "pbx"}}.WithTag(ids.Tag())
		bob := sip.Address{URI: sip.URI{User: fmt.Sprintf("bob%d", i), Host: "pbx"}}
		bTag, callID := ids.CallID("pbx"), ids.CallID("pbx")
		port := uint16(20000 + 2*i)
		request := func(method sip.Method, seq uint32, to sip.Address, body []byte) *sip.Message {
			spec := sip.RequestSpec{
				Method: method, RequestURI: bob.URI.String(), From: a, To: to, CallID: callID,
				CSeq: sip.CSeq{Seq: seq, Method: method},
				Via:  sip.Via{Transport: "TCP", SentBy: "10.0.0.1", Params: map[string]string{"branch": ids.Branch()}},
				Body: body,
			}
			if body != nil {
				spec.BodyType = "application/sdp"
			}
			return sip.NewRequest(spec)
		}
		inv := request(sip.MethodInvite, 1, bob, sdp.NewAudioSession("caller", caller.Addr(), port).Marshal())
		ok := sip.NewResponse(inv, sip.StatusOK, bTag)
		ok.Headers.Add(sip.HdrContentType, "application/sdp")
		ok.Body = sdp.NewAudioSession("callee", callee.Addr(), port).Marshal()
		send(up, inv)
		send(down, ok)
		send(up, request(sip.MethodAck, 1, bob.WithTag(bTag), nil))
		send(up, request(sip.MethodBye, 2, bob.WithTag(bTag), nil))
	}
	for _, d := range []*direction{up, down} {
		if d.held != nil {
			segment(d, packet.TCPFlagACK, d.held)
		}
	}
	eng := core.NewEngine(core.Config{})
	at, step := time.Duration(0), time.Millisecond
	for i := 0; i < 2*len(segs); i++ {
		eng.HandleFrame(at, segs[i%len(segs)])
		at += step
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.HandleFrame(at, segs[i%len(segs)])
		at += step
	}
	b.StopTimer()
	if st := eng.DistillerStats(); st.StreamMsgs == 0 || st.Raw != 0 {
		b.Fatalf("trunk framed %d messages, %d raw", st.StreamMsgs, st.Raw)
	}
}

// BenchmarkHotPath_ShardedRTPFrame is the sharded counterpart: the
// router's decode and classification plus shipping the packed media slot
// to a shard worker (the router only borrows the frame).
func BenchmarkHotPath_ShardedRTPFrame(b *testing.B) {
	eng := core.NewShardedEngine(core.Config{}, 2)
	defer eng.Close()
	benchHotPath(b, eng.HandleFrame, buildRTPFrame(b))
}

// BenchmarkHotPath_ShardedRTPFlows is the sharded media hot path when
// no flow repeats back to back: one frame per op, cycling the two-way RTP
// of 1024 established calls (2048 flows), so the router's per-flow state —
// its directory, sequence trackers and flow memo — is a working set rather
// than one warm cache line, as it is in BenchmarkHotPath_ShardedRTPFrame.
// Two full cycles run before the clock starts.
func BenchmarkHotPath_ShardedRTPFlows(b *testing.B) {
	eng := core.NewShardedEngine(core.Config{}, 2)
	defer eng.Close()
	frames := establishCalls(b, 1024, true, eng.HandleFrame)
	at, step := time.Millisecond, time.Microsecond
	for i := 0; i < 2*len(frames); i++ {
		eng.HandleFrame(at, frames[i%len(frames)])
		at += step
	}
	b.SetBytes(int64(len(frames[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.HandleFrame(at, frames[i%len(frames)])
		at += step
	}
}

// BenchmarkAblation_Reassembly compares SIP distillation with and without
// IP fragmentation on the wire.
func BenchmarkAblation_Reassembly(b *testing.B) {
	from, _ := sip.ParseAddress("<sip:a@10.0.0.1>;tag=t")
	to, _ := sip.ParseAddress("<sip:b@10.0.0.2>")
	msg := sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodMessage, RequestURI: "sip:b@10.0.0.2",
		From: from, To: to, CallID: "reasm@bench",
		CSeq:     sip.CSeq{Seq: 1, Method: sip.MethodMessage},
		Via:      sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": "z9hG4bKr"}},
		Body:     make([]byte, 2400),
		BodyType: "text/plain",
	})
	spec := packet.UDPFrameSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
		SrcPort: 5060, DstPort: 5060, IPID: 1, Payload: msg.Marshal(),
	}
	whole, err := packet.BuildUDPFrames(spec, 4000)
	if err != nil {
		b.Fatal(err)
	}
	fragged, err := packet.BuildUDPFrames(spec, 576)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unfragmented", func(b *testing.B) {
		d := core.NewDistiller()
		var v core.FrameView
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !d.DistillView(0, whole[0], &v) {
				b.Fatal("no footprint")
			}
		}
	})
	b.Run("fragmented", func(b *testing.B) {
		d := core.NewDistiller()
		var v core.FrameView
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var got bool
			for _, f := range fragged {
				if d.DistillView(0, f, &v) {
					got = true
				}
			}
			if !got {
				b.Fatal("reassembly failed")
			}
		}
	})
}

// BenchmarkRuleEngine_Feed measures pure rule-matching cost.
func BenchmarkRuleEngine_Feed(b *testing.B) {
	re := core.NewRuleEngine(core.DefaultRuleset())
	ev := core.Event{Type: core.EvRTPNewFlow, Session: "s"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.At = time.Duration(i)
		re.Feed(ev)
	}
}

// BenchmarkRuleEngine_FeedWideRuleset measures matching cost when the
// ruleset is much wider than the set of rules any one event can advance.
// The engine's event-type index keeps per-event cost proportional to the
// rules that can actually consume the event, not to the ruleset size, so
// this should stay close to BenchmarkRuleEngine_Feed despite 64 extra
// rules that never match.
func BenchmarkRuleEngine_FeedWideRuleset(b *testing.B) {
	rules := core.DefaultRuleset()
	for i := 0; i < 64; i++ {
		rules = append(rules, core.Rule{
			Name:     fmt.Sprintf("synthetic-%d", i),
			Severity: core.SeverityInfo,
			Steps:    []core.Step{{Type: core.EvAcctStart}, {Type: core.EvAcctStop}},
		})
	}
	re := core.NewRuleEngine(rules)
	ev := core.Event{Type: core.EvRTPNewFlow, Session: "s"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.At = time.Duration(i)
		re.Feed(ev)
	}
}

// mustAddr parses an IPv4 address for benchmark fixtures.
func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// --- Session attribution vs. concurrent sessions ---

// attributionEngine returns a serial engine holding `live` established
// calls, each with its own pair of media endpoints, plus one caller->callee
// RTP frame per call. Trails are bounded at 4 footprints; a trail is only
// a clamped count, so the timed loop measures attribution and the fast
// path.
func attributionEngine(b *testing.B, live int) (*core.Engine, [][]byte) {
	b.Helper()
	eng := core.NewEngine(core.Config{MaxTrailLen: 4})
	return eng, establishCalls(b, live, false, eng.HandleFrame)
}

// establishCalls sets up `live` established calls through feed, each with
// its own pair of media endpoints, and returns their RTP frames: one
// caller->callee frame per call and, when twoWay, then one callee->caller
// frame per call.
func establishCalls(b *testing.B, live int, twoWay bool, feed func(time.Duration, []byte)) [][]byte {
	b.Helper()
	pkt := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: 100, Timestamp: 16000, SSRC: 7},
		Payload: make([]byte, 160),
	}
	media, err := pkt.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	rtpFrames := make([][]byte, live, 2*live)
	for i := 0; i < live; i++ {
		caller := netip.AddrFrom4([4]byte{10, 1 + byte(i>>16), byte(i >> 8), byte(i)})
		callee := netip.AddrFrom4([4]byte{10, 101 + byte(i>>16), byte(i >> 8), byte(i)})
		callerMedia, calleeMedia := netip.AddrPortFrom(caller, 40000), netip.AddrPortFrom(callee, 40000)
		inv := sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodInvite,
			RequestURI: "sip:bob@pbx",
			From:       sip.Address{URI: sip.URI{User: "alice", Host: "pbx"}}.WithTag(fmt.Sprintf("a%d", i)),
			To:         sip.Address{URI: sip.URI{User: "bob", Host: "pbx"}},
			CallID:     fmt.Sprintf("live-%d@pbx", i),
			CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
			Via:        sip.Via{Transport: "UDP", SentBy: caller.String()},
			Body:       sdp.NewAudioSession("caller", caller, callerMedia.Port()).Marshal(),
			BodyType:   "application/sdp",
		})
		ok := sip.NewResponse(inv, sip.StatusOK, fmt.Sprintf("b%d", i))
		ok.Headers.Add(sip.HdrContentType, "application/sdp")
		ok.Body = sdp.NewAudioSession("callee", callee, calleeMedia.Port()).Marshal()
		signalling := netip.AddrPortFrom(caller, sip.DefaultPort)
		feed(0, buildUDPFrameBetween(b, signalling, netip.AddrPortFrom(callee, sip.DefaultPort), inv.Marshal()))
		feed(0, buildUDPFrameBetween(b, netip.AddrPortFrom(callee, sip.DefaultPort), signalling, ok.Marshal()))
		rtpFrames[i] = buildUDPFrameBetween(b, callerMedia, calleeMedia, media)
		if twoWay {
			rtpFrames = append(rtpFrames, buildUDPFrameBetween(b, calleeMedia, callerMedia, media))
		}
	}
	return rtpFrames
}

// BenchmarkSessionAttribution is the concurrent-session axis of the hot
// path: round-robin RTP over N established calls through Engine.
// HandleFrame, 0 allocs/op at every N. Attribution is a reverse-index
// lookup, so it adds nothing as N grows: live=1 -> live=1k is within 1.3x
// (a per-frame walk of the session table read 46x there). At live=100k
// the working set is hundreds of MB and ns/op is ~5x live=1, none of it
// attribution: about a third is the session-expiry sweep (every gcEvery
// frames it visits all N sessions, i.e. N/4096 visits per frame) and the
// rest is DRAM misses on the frame, the index buckets, the trail and the
// sequence tracker.
func BenchmarkSessionAttribution(b *testing.B) {
	for _, live := range []int{1, 1000, 100000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			eng, frames := attributionEngine(b, live)
			at, step := time.Millisecond, time.Microsecond
			for round := 0; round < 6; round++ { // clamp every trail count
				for _, f := range frames {
					eng.HandleFrame(at, f)
					at += step
				}
			}
			if n := len(eng.Alerts()); n != 0 {
				b.Fatalf("%d alerts on benign traffic", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.HandleFrame(at, frames[i%live])
				at += step
			}
		})
	}
}

// --- Sharded engine scaling (see DESIGN.md "Scaling") ---

// mixedCalls/mixedRounds size the shared scaling workload: every call
// live at once, media round-robin across them.
const (
	mixedCalls  = 256
	mixedRounds = 24
)

// checkMixedAlerts asserts the exact expected outcome on the mixed
// workload: one bye-attack alert per call and no false alarms.
func checkMixedAlerts(tb testing.TB, alerts []core.Alert) {
	tb.Helper()
	if len(alerts) != mixedCalls {
		tb.Fatalf("got %d alerts, want %d", len(alerts), mixedCalls)
	}
	for _, a := range alerts {
		if a.Rule != core.RuleByeAttack {
			tb.Fatalf("false alarm: %v", a)
		}
	}
}

// BenchmarkSerial_MixedCalls is the single-engine baseline for the
// BenchmarkSharded_* family, on the identical workload.
func BenchmarkSerial_MixedCalls(b *testing.B) {
	recs := experiments.MixedCallWorkload(mixedCalls, mixedRounds, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(core.Config{})
		for _, r := range recs {
			eng.HandleFrame(r.Time, r.Frame)
		}
		checkMixedAlerts(b, eng.Alerts())
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
}

func benchSharded(b *testing.B, shards int) {
	recs := experiments.MixedCallWorkload(mixedCalls, mixedRounds, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewShardedEngine(core.Config{}, shards)
		for _, r := range recs {
			eng.HandleFrame(r.Time, r.Frame)
		}
		eng.Close() // drain; alerts must be complete afterwards
		checkMixedAlerts(b, eng.Alerts())
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
}

func BenchmarkSharded_1(b *testing.B) { benchSharded(b, 1) }
func BenchmarkSharded_2(b *testing.B) { benchSharded(b, 2) }
func BenchmarkSharded_8(b *testing.B) { benchSharded(b, 8) }

// BenchmarkSec43_WireDelay measures the BYE-attack detection delay on the
// simulated wire (the empirical counterpart of the Section 4.3 model).
func BenchmarkSec43_WireDelay(b *testing.B) {
	var mean time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiments.MeasureWireByeDelay(10, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Detected != res.Runs {
			b.Fatalf("missed %d of %d wire runs", res.Runs-res.Detected, res.Runs)
		}
		mean = res.Mean
	}
	b.ReportMetric(mean.Seconds()*1000, "wire_delay_ms")
}
