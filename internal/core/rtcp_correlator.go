package core

// rtcpCorrelator watches for RTCP BYE packets that lack a corresponding
// SIP BYE: during legitimate teardown the SIP BYE travels alongside the
// RTCP BYE, so an RTCP BYE still unmatched after a grace period is
// forged. The pending state lives in the shared session state; the
// evaluation is driven by subsequent traffic (the surviving party's media
// keeps flowing, so the RTP correlator checks the pending BYE too),
// keeping the engine purely packet-driven.
type rtcpCorrelator struct{}

func newRTCPCorrelator() *rtcpCorrelator { return &rtcpCorrelator{} }

func (c *rtcpCorrelator) Name() string          { return "rtcp" }
func (c *rtcpCorrelator) Protocols() []Protocol { return []Protocol{ProtoRTCP} }

// claimPort claims odd media ports (RTCP by convention).
func (c *rtcpCorrelator) claimPort(srcPort, dstPort uint16) (Protocol, bool) {
	if dstPort >= defaultMediaPortFloor && dstPort%2 == 1 {
		return ProtoRTCP, true
	}
	return ProtoOther, false
}

// contentConfirmer: a well-formed RTCP compound (known packet types,
// lengths tiling the buffer) nominates payloads on non-RTCP ports for
// reclassification (classify.go).
func (c *rtcpCorrelator) contentProto() Protocol             { return ProtoRTCP }
func (c *rtcpCorrelator) confirmContent(payload []byte) bool { return confirmRTCPContent(payload) }

func (c *rtcpCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	if v.Proto != ProtoRTCP {
		return
	}
	st := ctx.SessionState()
	if st == nil {
		return
	}
	ctx.CheckPendingRTCPBye(st, v.At, evs)
	if v.RTCP.HasBye && !st.byeSeen && !st.rtcpByePending && !st.rtcpByeFired {
		st.rtcpByePending = true
		st.rtcpByeAt = v.At
	}
}
