package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"scidive/internal/capture"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// MixedCallWorkload synthesizes a deterministic capture of `calls`
// concurrent established calls exchanging interleaved RTP, each torn down
// by a caller BYE followed by orphan media from the caller's socket — the
// Figure 5 attack, once per call. An engine with the default ruleset must
// raise exactly `calls` bye-attack alerts on it and nothing else.
//
// The workload is the scaling benchmark shared by bench_test.go and
// cmd/benchreport: every call is live at once, so each media packet must
// be attributed among all of them and sessions spread across every shard.
func MixedCallWorkload(calls, rtpRounds int, seed int64) []capture.Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []capture.Record
	now := time.Duration(0)
	emit := func(srcIP, dstIP netip.Addr, srcPort, dstPort uint16, ipid uint16, payload []byte) {
		frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort,
			IPID: ipid, Payload: payload,
		}, 0)
		if err != nil {
			panic(err) // deterministic inputs; cannot fail
		}
		for _, f := range frames {
			recs = append(recs, capture.Record{Time: now, Frame: f})
			now += 200 * time.Microsecond
		}
	}

	type call struct {
		id                       string
		callerIP, calleeIP       netip.Addr
		callerMedia, calleeMedia netip.AddrPort
		seqA, seqB               uint16
		inv                      *sip.Message
	}
	cs := make([]*call, calls)
	proxyIP := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i := range cs {
		c := &call{
			id:       fmt.Sprintf("mix-%d@pbx", i),
			callerIP: netip.AddrFrom4([4]byte{10, 0, 1, byte(1 + i%200)}),
			calleeIP: netip.AddrFrom4([4]byte{10, 0, 2, byte(1 + i%200)}),
			seqA:     uint16(rng.Intn(1 << 15)),
			seqB:     uint16(rng.Intn(1 << 15)),
		}
		c.callerMedia = netip.AddrPortFrom(c.callerIP, uint16(10000+2*i))
		c.calleeMedia = netip.AddrPortFrom(c.calleeIP, uint16(30000+2*i))
		cs[i] = c
	}

	// Phase 1: every call sets up; all dialogs end up concurrently live.
	for i, c := range cs {
		c.inv = sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodInvite,
			RequestURI: fmt.Sprintf("sip:bob%d@pbx", i),
			From:       sip.Address{URI: sip.URI{User: fmt.Sprintf("alice%d", i), Host: "pbx"}}.WithTag(fmt.Sprintf("at%d", i)),
			To:         sip.Address{URI: sip.URI{User: fmt.Sprintf("bob%d", i), Host: "pbx"}},
			CallID:     c.id,
			CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
			Via:        sip.Via{Transport: "UDP", SentBy: c.callerIP.String()},
			Body:       sdp.NewAudioSession("caller", c.callerMedia.Addr(), c.callerMedia.Port()).Marshal(),
			BodyType:   "application/sdp",
		})
		emit(c.callerIP, proxyIP, sip.DefaultPort, sip.DefaultPort, uint16(i), c.inv.Marshal())
		ok := sip.NewResponse(c.inv, sip.StatusOK, fmt.Sprintf("bt%d", i))
		ok.Headers.Add(sip.HdrContentType, "application/sdp")
		ok.Body = sdp.NewAudioSession("callee", c.calleeMedia.Addr(), c.calleeMedia.Port()).Marshal()
		emit(c.calleeIP, c.callerIP, sip.DefaultPort, sip.DefaultPort, uint16(i), ok.Marshal())
	}

	rtpFrame := func(c *call, fromCaller bool) []byte {
		seq, ssrc := c.seqA, uint32(0xA0000000)
		if !fromCaller {
			seq, ssrc = c.seqB, 0xB0000000
		}
		p := rtp.Packet{
			Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: seq, Timestamp: uint32(now / time.Millisecond), SSRC: ssrc},
			Payload: make([]byte, 160),
		}
		buf, err := p.Marshal()
		if err != nil {
			panic(err)
		}
		return buf
	}

	// Phase 2: interleaved two-way media across all live calls. Visiting
	// calls round-robin maximizes per-packet session-attribution churn.
	for round := 0; round < rtpRounds; round++ {
		for i, c := range cs {
			c.seqA++
			emit(c.callerMedia.Addr(), c.calleeMedia.Addr(), c.callerMedia.Port(), c.calleeMedia.Port(),
				uint16(round*calls+i), rtpFrame(c, true))
			c.seqB++
			emit(c.calleeMedia.Addr(), c.callerMedia.Addr(), c.calleeMedia.Port(), c.callerMedia.Port(),
				uint16(round*calls+i), rtpFrame(c, false))
		}
	}

	// Phase 3: caller BYE, then orphan media from the caller's socket
	// while other calls keep talking — one bye-attack per call.
	for i, c := range cs {
		bye := sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodBye,
			RequestURI: fmt.Sprintf("sip:bob%d@pbx", i),
			From:       sip.Address{URI: sip.URI{User: fmt.Sprintf("alice%d", i), Host: "pbx"}}.WithTag(fmt.Sprintf("at%d", i)),
			To:         sip.Address{URI: sip.URI{User: fmt.Sprintf("bob%d", i), Host: "pbx"}}.WithTag(fmt.Sprintf("bt%d", i)),
			CallID:     c.id,
			CSeq:       sip.CSeq{Seq: 2, Method: sip.MethodBye},
			Via:        sip.Via{Transport: "UDP", SentBy: c.callerIP.String()},
		})
		emit(c.callerIP, c.calleeIP, sip.DefaultPort, sip.DefaultPort, uint16(i), bye.Marshal())
		for k := 0; k < 2; k++ {
			c.seqA++
			emit(c.callerMedia.Addr(), c.calleeMedia.Addr(), c.callerMedia.Port(), c.calleeMedia.Port(),
				uint16(i), rtpFrame(c, true))
		}
		// Calls not yet torn down continue talking in the gaps.
		for _, j := range []int{i + 1, i + calls/2} {
			if j < len(cs) && j > i {
				o := cs[j]
				o.seqB++
				emit(o.calleeMedia.Addr(), o.callerMedia.Addr(), o.calleeMedia.Port(), o.callerMedia.Port(),
					uint16(j), rtpFrame(o, false))
			}
		}
	}
	return recs
}
