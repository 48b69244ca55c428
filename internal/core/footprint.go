// Package core implements the SCIDIVE intrusion detection architecture:
// the Distiller that turns raw network frames into protocol-dependent
// footprints (FrameView, a per-frame value nothing keeps past the frame),
// the Trails that count footprints per session and protocol, the
// stateful Event Generator that concentrates footprints into Events,
// and the Rule Matching Engine that raises Alerts from event sequences —
// including cross-protocol sequences spanning SIP, RTP, and accounting
// traffic.
package core

// Protocol identifies the protocol a footprint was distilled from.
type Protocol int

// Protocols the Distiller classifies.
const (
	ProtoSIP Protocol = iota + 1
	ProtoRTP
	ProtoRTCP
	ProtoAccounting
	ProtoOther
	// ProtoControl is the IDS's own probe→aggregator digest traffic
	// (core/digest.go). It sits after ProtoOther on purpose: the
	// generator's dispatch tables are sized by ProtoOther, and the
	// control correlator claims the digest port without subscribing to
	// any dispatch protocol, so control frames are classified (and
	// dropped as IDS-internal) rather than tripping the content
	// classifier's mismatch alerts.
	ProtoControl
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoSIP:
		return "SIP"
	case ProtoRTP:
		return "RTP"
	case ProtoRTCP:
		return "RTCP"
	case ProtoAccounting:
		return "ACCT"
	case ProtoOther:
		return "OTHER"
	case ProtoControl:
		return "CTRL"
	default:
		return "UNKNOWN"
	}
}
