package core

import (
	"strconv"
	"strings"

	"scidive/internal/sip"
)

// sipCorrelator correlates SIP signaling: dialog lifecycle events
// (REGISTER/INVITE/BYE/establishment), malformed-message detection,
// authentication abuse (401 floods, password guessing), and — on
// establishment — the billing-fraud check that the negotiated caller
// media matches the caller's registered location. Instant-message
// correlation lives in the separate im correlator; the dialog state
// transitions themselves happen in applySIP (via the dispatcher) so they
// occur exactly once per sighting.
type sipCorrelator struct {
	cfg GenConfig
}

func newSIPCorrelator() *sipCorrelator { return &sipCorrelator{} }

func (c *sipCorrelator) Name() string            { return "sip" }
func (c *sipCorrelator) Protocols() []Protocol   { return []Protocol{ProtoSIP} }
func (c *sipCorrelator) configure(cfg GenConfig) { c.cfg = cfg }

// claimPort claims the SIP well-known port in either direction; signaling
// is recognized by source too, so proxy replies classify correctly.
func (c *sipCorrelator) claimPort(srcPort, dstPort uint16) (Protocol, bool) {
	if srcPort == sip.DefaultPort || dstPort == sip.DefaultPort {
		return ProtoSIP, true
	}
	return ProtoOther, false
}

// contentConfirmer: a plausible SIP start line nominates the payload for
// reclassification off ports that claimed another protocol. The sniff is
// only the nomination — the reclassification ladder still requires a
// full parse before the frame counts as SIP (classify.go).
func (c *sipCorrelator) contentProto() Protocol             { return ProtoSIP }
func (c *sipCorrelator) confirmContent(payload []byte) bool { return sniffSIPStart(payload) }

func (c *sipCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	if v.Proto != ProtoSIP {
		return
	}
	m := v.Msg
	st, out := ctx.SIP()

	if len(v.Malformed) > 0 && !st.badFormat {
		st.badFormat = true
		*evs = append(*evs, Event{
			At: v.At, Type: EvSIPBadFormat, Session: st.callID,
			Detail: "[" + strings.Join(v.Malformed, " ") + "]",
		})
	}
	if m.IsRequest() {
		c.requestEvents(v, st, out, evs)
	} else {
		c.responseEvents(v, st, out, ctx, evs)
	}
}

func (c *sipCorrelator) requestEvents(v *FrameView, st *sessionState, out sipOutcome, evs *[]Event) {
	if !out.fromToOK {
		return
	}
	m := v.Msg
	switch m.Method {
	case sip.MethodRegister:
		// Stored values outlive the frame, so they are copies, not
		// substrings of the message's header text.
		*evs = append(*evs, Event{At: v.At, Type: EvSIPRegister, Session: st.callID,
			Detail: strings.Clone(out.to.AOR)})
		if authz := m.Headers.Get(sip.HdrAuthorization); authz != "" {
			if creds, err := sip.ParseCredentials(authz); err == nil {
				if st.guessResponses == nil {
					st.guessResponses = make(map[string]struct{})
				}
				addClone(st.guessResponses, creds.Response)
				if len(st.guessResponses) >= c.cfg.GuessThreshold && !st.guessFired {
					st.guessFired = true
					*evs = append(*evs, Event{
						At: v.At, Type: EvPasswordGuessing, Session: st.callID,
						Detail: strconv.Itoa(len(st.guessResponses)) + " distinct challenge responses for " +
							out.to.AOR + " from " + v.Src.String(),
					})
				}
			}
		}
	case sip.MethodInvite:
		if out.firstInvite {
			*evs = append(*evs, Event{At: v.At, Type: EvSIPInvite, Session: st.callID,
				Detail: st.callerAOR + " -> " + st.calleeAOR})
		}
		if out.reinvite {
			*evs = append(*evs, Event{At: v.At, Type: EvSIPReinvite, Session: st.callID,
				Detail: out.reinviteMover + " moving media from " + out.reinviteOld.String()})
		}
	case sip.MethodBye:
		if out.firstBye {
			*evs = append(*evs, Event{At: v.At, Type: EvSIPBye, Session: st.callID,
				Detail: out.from.AOR + " hangs up"})
		}
	}
}

func (c *sipCorrelator) responseEvents(v *FrameView, st *sessionState, out sipOutcome, ctx *SessionContext, evs *[]Event) {
	if !out.cseqOK {
		return
	}
	m := v.Msg
	switch {
	case m.StatusCode == sip.StatusUnauthorized:
		st.challenges++
		*evs = append(*evs, Event{At: v.At, Type: EvSIPAuthChallenge, Session: st.callID,
			Detail: "challenge #" + strconv.Itoa(st.challenges)})
		if st.challenges >= c.cfg.AuthFloodThreshold && !st.floodFired {
			st.floodFired = true
			*evs = append(*evs, Event{
				At: v.At, Type: EvAuthFlood, Session: st.callID,
				Detail: strconv.Itoa(st.challenges) + " unauthorized replies in one session",
			})
		}
	case out.regOK:
		if out.bindingIP.IsValid() {
			ctx.SetBinding(out.regAOR, out.bindingIP)
		}
		*evs = append(*evs, Event{At: v.At, Type: EvSIPRegisterOK, Session: st.callID,
			Detail: out.regAOR})
	case out.established:
		*evs = append(*evs, Event{At: v.At, Type: EvSIPCallEstablished, Session: st.callID,
			Detail: st.callerAOR + " <-> " + st.calleeAOR + " media " + st.callerMedia.String() + "/" + st.calleeMedia.String()})
		c.checkUnmatchedMedia(v, st, ctx, evs)
	}
}

// checkUnmatchedMedia verifies the negotiated caller media address against
// the caller's registered location — the third condition of the billing
// fraud rule (Section 3.2).
func (c *sipCorrelator) checkUnmatchedMedia(v *FrameView, st *sessionState, ctx *SessionContext, evs *[]Event) {
	binding, ok := ctx.Binding(st.callerAOR)
	if !ok || !st.callerMedia.IsValid() {
		return
	}
	if st.callerMedia.Addr() == binding {
		return
	}
	*evs = append(*evs, Event{
		At: v.At, Type: EvRTPUnmatchedMedia, Session: st.callID,
		Detail: "caller " + st.callerAOR + " registered at " + binding.String() +
			" but negotiated media at " + st.callerMedia.String(),
	})
}
