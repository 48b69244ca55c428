package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"scidive/internal/core"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// DirectMatcher is the event-layer ablation of paper Section 3.1: the
// same Distiller and rule engine as core.Engine with the Event Generator
// taken out. It keeps every SIP message whole, per Call-ID, and decides
// the BYE attack by rescanning those literal trails (and reparsing their
// SDP bodies) on every RTP packet — the matching the paper's Event
// Generator exists to hide. Only the BYE-attack rule is implemented; the
// matcher exists to measure what the event abstraction buys
// (BenchmarkAblation_DirectMatching against BenchmarkAblation_EventLayer).
type DirectMatcher struct {
	distiller *core.Distiller
	trails    *core.TrailStore
	rules     *core.RuleEngine
	view      core.FrameView
	maxLen    int

	// direct is the literal SIP trail per Call-ID: the only trail in the
	// repository that keeps messages.
	direct map[string][]directEntry
}

// directEntry is one SIP message as the literal trail keeps it: when it
// was seen and the message itself.
type directEntry struct {
	at  time.Duration
	msg *sip.Message
}

// directWindow is the orphan-flow monitoring window m, the Event
// Generator's default.
const directWindow = time.Second

// NewDirectMatcher builds the ablation. maxTrailLen bounds each literal
// trail and each trail-store count (0 = core.Engine's default, 4096).
func NewDirectMatcher(maxTrailLen int) *DirectMatcher {
	if maxTrailLen == 0 {
		maxTrailLen = 4096
	}
	return &DirectMatcher{
		distiller: core.NewDistiller(),
		trails:    core.NewTrailStore(maxTrailLen),
		rules:     core.NewRuleEngine(core.DefaultRuleset()),
		maxLen:    maxTrailLen,
		direct:    make(map[string][]directEntry),
	}
}

// HandleFrame processes one observed frame. It is netsim.Tap compatible.
func (m *DirectMatcher) HandleFrame(at time.Duration, frame []byte) {
	if m.distiller.DistillView(at, frame, &m.view) {
		m.match(&m.view)
	}
	for m.distiller.NextStreamMessage(&m.view) {
		m.match(&m.view)
	}
}

// AlertsFor returns the alerts one rule raised.
func (m *DirectMatcher) AlertsFor(rule string) []core.Alert { return m.rules.AlertsFor(rule) }

// match files a footprint into trails keyed without event-layer session
// intelligence and, for media, scans the literal trails. Every footprint
// is counted in the trail store, as the event path counts it.
func (m *DirectMatcher) match(v *core.FrameView) {
	switch v.Proto {
	case core.ProtoSIP:
		id := v.Msg.CallID()
		m.trails.Get(id, core.ProtoSIP).AppendView(v)
		m.appendDirect(id, directEntry{at: v.At, msg: v.Msg})
	case core.ProtoRTP:
		m.trails.Get("rtp:"+v.Dst.String(), core.ProtoRTP).AppendView(v)
		m.byeScan(v)
	case core.ProtoAccounting:
		m.trails.Get(v.Txn.CallID, core.ProtoAccounting).AppendView(v)
	case core.ProtoRTCP:
		m.trails.Get("rtcp:"+v.Dst.String(), core.ProtoRTCP).AppendView(v)
	}
}

// appendDirect adds a message to a Call-ID's literal trail, dropping the
// oldest once the trail holds maxLen (memory is the practical limit the
// paper notes).
func (m *DirectMatcher) appendDirect(id string, d directEntry) {
	list := m.direct[id]
	if len(list) == m.maxLen {
		list = append(list[:0], list[1:]...)
	}
	m.direct[id] = append(list, d)
}

// byeScan re-derives, from the literal trails, whether this RTP packet is
// an orphan flow after a BYE: it walks every SIP trail, reparses SDP
// bodies to find the session whose media endpoints match, and checks BYE
// timing. Equivalent detection to the event path, at per-packet scan
// cost.
func (m *DirectMatcher) byeScan(v *core.FrameView) {
	for session, trail := range m.direct {
		var callerMedia, calleeMedia netip.AddrPort
		var byeAt time.Duration
		var byeSeen, byeFromCaller bool
		var callerTag string
		for _, d := range trail {
			msg := d.msg
			switch {
			case msg.IsRequest() && msg.Method == sip.MethodInvite:
				if from, ok := msg.FromRef(); ok && callerTag == "" {
					callerTag = from.Tag
				}
				if media, ok := sdp.MediaEndpointOf(msg.Body, "audio"); ok && !callerMedia.IsValid() {
					callerMedia = media
				}
			case msg.IsResponse() && msg.StatusCode == sip.StatusOK:
				if cseq, err := msg.CSeq(); err == nil && cseq.Method == sip.MethodInvite {
					if media, ok := sdp.MediaEndpointOf(msg.Body, "audio"); ok && !calleeMedia.IsValid() {
						calleeMedia = media
					}
				}
			case msg.IsRequest() && msg.Method == sip.MethodBye:
				if !byeSeen {
					byeSeen = true
					byeAt = d.at
					if from, ok := msg.FromRef(); ok {
						byeFromCaller = from.Tag == callerTag
					}
				}
			}
		}
		if !byeSeen {
			continue
		}
		byeMedia := calleeMedia
		if byeFromCaller {
			byeMedia = callerMedia
		}
		if v.Src == byeMedia && v.At > byeAt && v.At-byeAt <= directWindow {
			// Feed both steps so the two-step rule completes.
			m.rules.Feed(core.Event{At: byeAt, Type: core.EvSIPBye, Session: session})
			m.rules.Feed(core.Event{
				At: v.At, Type: core.EvRTPAfterBye, Session: session,
				Detail: fmt.Sprintf("direct scan: RTP from %v after BYE", v.Src),
			})
		}
	}
}
