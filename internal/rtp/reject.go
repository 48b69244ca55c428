package rtp

import "fmt"

// Reject is why CheckHeader or CheckCompound refused a buffer, kept as a
// value: a code and up to two numbers. The zero Reject accepts. Error
// words it exactly as Unmarshal or UnmarshalCompound words the same
// refusal, and nothing is formatted until someone asks: a classifier
// that only needs "not RTP" pays for no text.
type Reject struct {
	code rejectCode
	a, b int
}

type rejectCode uint8

const (
	rejectNone rejectCode = iota
	rejectRTPShort
	rejectRTPVersion
	rejectRTPCSRCs
	rejectRTPPadding
	rejectRTCPTrailing
	rejectRTCPVersion
	rejectRTCPLength
	rejectRTCPSR
	rejectRTCPRR
	rejectRTCPSDESLayout
	rejectRTCPSDESOverrun
	rejectRTCPByeShort
	rejectRTCPByeOverrun
	rejectRTCPType
)

// rejectText is each code's format and how many of a, b it consumes.
var rejectText = [...]struct {
	format string
	args   int
}{
	rejectRTPShort:        {"rtp: packet of %d bytes shorter than header", 1},
	rejectRTPVersion:      {"rtp: bad version %d", 1},
	rejectRTPCSRCs:        {"rtp: packet of %d bytes too short for %d CSRCs", 2},
	rejectRTPPadding:      {"rtp: bad padding count %d", 1},
	rejectRTCPTrailing:    {"rtcp: trailing %d bytes shorter than header", 1},
	rejectRTCPVersion:     {"rtcp: bad version %d", 1},
	rejectRTCPLength:      {"rtcp: packet length %d exceeds buffer of %d", 2},
	rejectRTCPSR:          {"rtcp: SR too short for %d blocks", 1},
	rejectRTCPRR:          {"rtcp: RR too short for %d blocks", 1},
	rejectRTCPSDESLayout:  {"rtcp: unsupported SDES layout", 0},
	rejectRTCPSDESOverrun: {"rtcp: SDES CNAME overruns packet", 0},
	rejectRTCPByeShort:    {"rtcp: BYE too short for %d SSRCs", 1},
	rejectRTCPByeOverrun:  {"rtcp: BYE reason overruns packet", 0},
	rejectRTCPType:        {"rtcp: unknown packet type %d", 1},
}

// OK reports whether the buffer was accepted.
func (r Reject) OK() bool { return r.code == rejectNone }

// Error renders the refusal's text.
func (r Reject) Error() string {
	t := rejectText[r.code]
	switch t.args {
	case 0:
		return t.format
	case 1:
		return fmt.Sprintf(t.format, r.a)
	default:
		return fmt.Sprintf(t.format, r.a, r.b)
	}
}

// asError is r as an error, nil when r accepts.
func (r Reject) asError() error {
	if r.OK() {
		return nil
	}
	return r
}
