package core

import (
	"fmt"
	"strings"
	"time"
)

// EventType classifies events produced by the Event Generator.
type EventType int

// Event types. Informational events describe normal protocol progress;
// suspicious events are the concentrated, stateful observations the
// paper's rules match on.
const (
	// Informational SIP progress events.
	EvSIPRegister EventType = iota + 1
	EvSIPAuthChallenge
	EvSIPRegisterOK
	EvSIPInvite
	EvSIPCallEstablished
	EvSIPBye
	EvSIPReinvite
	EvSIPInstantMessage

	// Informational media/accounting events.
	EvRTPNewFlow
	EvAcctStart
	EvAcctStop

	// Suspicious events.
	EvSIPBadFormat      // strict format checker violation
	EvIMSourceMismatch  // IM claims a sender whose recent source IP differs
	EvRTPAfterBye       // orphan media after a BYE (cross-protocol, stateful)
	EvRTPAfterReinvite  // orphan media from a "moved" party (cross-protocol, stateful)
	EvRTPSeqJump        // sequence discontinuity beyond threshold
	EvRTPBadSource      // media from an address the session never negotiated
	EvRTPGarbage        // undecodable bytes on a media port
	EvAuthFlood         // repeated unauthenticated requests ignoring 401s
	EvPasswordGuessing  // repeated requests with varying challenge responses
	EvAcctUnmatched     // accounting transaction without matching call setup
	EvRTPUnmatchedMedia // session media negotiated away from the caller's registered location
	EvRTCPSpoofedBye    // RTCP BYE with no corresponding SIP BYE (three-protocol chain)
	EvOptionsScan       // one source probing many dialogs with OPTIONS (cross-dialog sweep)
	EvProtocolMismatch  // payload content contradicted the port's claimed protocol (classify.go)
	EvEvasionSuspect    // the contradiction matches a known evasion shape (tunneling/smuggling)

	// Informational media liveness heartbeat (GenConfig.RTPActivityEvery;
	// off by default so existing event streams are untouched). Emitted at
	// most once per interval per session, it is the positive evidence the
	// cross-point BYE-teardown rule needs: media still flowing at the
	// gateway after the edge saw a BYE.
	EvRTPActivity
)

// String returns the event type name.
func (t EventType) String() string {
	switch t {
	case EvSIPRegister:
		return "sip-register"
	case EvSIPAuthChallenge:
		return "sip-auth-challenge"
	case EvSIPRegisterOK:
		return "sip-register-ok"
	case EvSIPInvite:
		return "sip-invite"
	case EvSIPCallEstablished:
		return "sip-call-established"
	case EvSIPBye:
		return "sip-bye"
	case EvSIPReinvite:
		return "sip-reinvite"
	case EvSIPInstantMessage:
		return "sip-instant-message"
	case EvRTPNewFlow:
		return "rtp-new-flow"
	case EvAcctStart:
		return "acct-start"
	case EvAcctStop:
		return "acct-stop"
	case EvSIPBadFormat:
		return "sip-bad-format"
	case EvIMSourceMismatch:
		return "im-source-mismatch"
	case EvRTPAfterBye:
		return "rtp-after-bye"
	case EvRTPAfterReinvite:
		return "rtp-after-reinvite"
	case EvRTPSeqJump:
		return "rtp-seq-jump"
	case EvRTPBadSource:
		return "rtp-bad-source"
	case EvRTPGarbage:
		return "rtp-garbage"
	case EvAuthFlood:
		return "auth-flood"
	case EvPasswordGuessing:
		return "password-guessing"
	case EvAcctUnmatched:
		return "acct-unmatched"
	case EvRTPUnmatchedMedia:
		return "rtp-unmatched-media"
	case EvRTCPSpoofedBye:
		return "rtcp-spoofed-bye"
	case EvOptionsScan:
		return "sip-options-scan"
	case EvProtocolMismatch:
		return "protocol-mismatch"
	case EvEvasionSuspect:
		return "evasion-suspect"
	case EvRTPActivity:
		return "rtp-activity"
	default:
		return fmt.Sprintf("event-type-%d", int(t))
	}
}

// Event is one Event Generator output: a concentrated observation that
// may encapsulate state accumulated from many footprints. It is a flat,
// comparable value: it holds strings the generator owns, never the frame
// or decoded message that completed it, so a retained event (the event
// log, a rule's partial match, an alert's witnesses) pins no packet
// memory.
type Event struct {
	At      time.Duration
	Type    EventType
	Session string // correlation key: Call-ID for calls, "im:<aor>" for IM, flow string otherwise
	Detail  string
	// Point names the capture point (probe) that observed the event.
	// Empty for a single-tap engine; stamped by the cooperative layer
	// (coop.Probe / digest decode) so cross-point rules can require a
	// specific vantage (the DSL's "@point" qualifier). Not part of the
	// log format: String() and the golden event streams ignore it.
	Point string
}

// String formats the event for logs: "[%8.3fs] %-20s session=%s %s",
// built without nested Sprintf so the only allocation is the returned
// string.
func (e Event) String() string {
	var b strings.Builder
	b.Grow(32 + len(e.Session) + len(e.Detail))
	appendStamp(&b, e.At)
	padRight(&b, e.Type.String(), 20)
	b.WriteString(" session=")
	b.WriteString(e.Session)
	b.WriteByte(' ')
	b.WriteString(e.Detail)
	return b.String()
}
