package core

import "fmt"

// evasionCorrelator raises the self-alerts of content-confirmed
// classification (classify.go): protocol-mismatch whenever a frame's
// content contradicted its port's claim, and evasion-suspect when the
// contradiction matches a known evasion shape — RTP/RTCP tunneled over
// signaling ports, SIP smuggled inside RTP payloads, or signaling on
// media ports. It is stateless (every verdict is carried on the view by
// the distiller), claims no ports, and registers last so its
// meta-alerts follow the substantive events a reclassified frame may
// still produce.
type evasionCorrelator struct{}

func newEvasionCorrelator() *evasionCorrelator { return &evasionCorrelator{} }

func (c *evasionCorrelator) Name() string { return "evasion" }
func (c *evasionCorrelator) Protocols() []Protocol {
	return []Protocol{ProtoSIP, ProtoRTP, ProtoRTCP}
}

func (c *evasionCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	embedded := v.Proto == ProtoRTP && v.EmbeddedSIP
	if v.PortProto == 0 && !embedded {
		return
	}
	if v.PortProto != 0 {
		*evs = append(*evs, Event{
			At: v.At, Type: EvProtocolMismatch, Session: ctx.Session(),
			Detail: fmt.Sprintf("%s content on a %s-claimed port (%v->%v)",
				v.Proto, v.PortProto, v.Src, v.Dst),
		})
	}
	var shape string
	switch {
	case embedded:
		shape = "SIP start line smuggled inside an RTP media payload"
	case v.PortProto == ProtoSIP && (v.Proto == ProtoRTP || v.Proto == ProtoRTCP):
		shape = fmt.Sprintf("%s tunneled over a signaling port", v.Proto)
	case (v.PortProto == ProtoRTP || v.PortProto == ProtoRTCP) && v.Proto == ProtoSIP:
		shape = "SIP signaling on a media port"
	default:
		return
	}
	*evs = append(*evs, Event{
		At: v.At, Type: EvEvasionSuspect, Session: ctx.Session(),
		Detail: fmt.Sprintf("%s (%v->%v)", shape, v.Src, v.Dst),
	})
}
