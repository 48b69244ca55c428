package core

import (
	"net/netip"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// FrameView is the footprint of paper Section 3.1: the value-typed union
// of every protocol's per-packet information unit. One FrameView per
// pipeline (engine, shard worker) is reused for every frame: the
// Distiller fills it in place (DistillView), the Event Generator
// dispatches on Proto/OnPort (ProcessView), correlators read the fields
// of their protocol, and the view's trail counts it; nothing keeps the
// view, or anything it points to, past the frame.
//
// Field validity follows Proto: Msg/Malformed for ProtoSIP, RTP for
// ProtoRTP, RTCP for ProtoRTCP, Txn for ProtoAccounting, and
// OnPort/Reason/RawLen for ProtoOther (a raw footprint: undecodable
// bytes on a claimed port).
type FrameView struct {
	Proto Protocol
	At    time.Duration
	Src   netip.AddrPort
	Dst   netip.AddrPort

	// ProtoSIP
	Msg       *sip.Message
	Malformed []string

	// ProtoRTP
	RTP rtp.HeaderView

	// ProtoRTCP
	RTCP rtp.CompoundView

	// ProtoAccounting
	Txn accounting.Txn

	// ProtoOther (raw): the protocol expected on the port, why decoding
	// failed, and the payload length.
	OnPort Protocol
	Reason string
	RawLen int

	// StreamKey is set on stream-carried messages (SIP over TCP): the
	// flow's canonical routing key. Dialogs first sighted on a stream pin
	// their sticky routing key to it — flow affinity wins over Call-ID so
	// a stream's messages stay shard-affine (see streamFlowKey).
	StreamKey string

	// PortProto is nonzero on reclassified frames: the protocol the port
	// claimed before content confirmation overrode it (classify.go). The
	// view's decoded fields belong to Proto; PortProto records the
	// contradiction for the evasion correlator's self-alerts.
	PortProto Protocol

	// EmbeddedSIP is set on RTP views whose media payload begins with a
	// SIP start line — the SIP-smuggled-in-RTP evasion.
	EmbeddedSIP bool
}

// reset clears the view for the next frame.
func (v *FrameView) reset() { *v = FrameView{} }

// dispatchProto is the protocol the view dispatches under: the declared
// protocol, except raw views dispatch under the protocol expected on
// their port (so e.g. the RTP correlator sees garbage on RTP ports).
func (v *FrameView) dispatchProto() Protocol {
	if v.Proto == ProtoOther {
		return v.OnPort
	}
	return v.Proto
}
