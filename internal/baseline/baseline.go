// Package baseline implements a stateless, session-unaware signature
// matcher in the style of a 2004-era Snort deployment. It exists as the
// comparator the paper argues against in Section 3.3: without session
// isolation or cross-protocol state, threshold rules over 4XX responses
// fire on benign registration traffic, and attacks whose signature spans
// protocols (the BYE attack's orphan media flow) cannot be expressed at
// all.
package baseline

import (
	"time"

	"scidive/internal/core"
	"scidive/internal/netsim"
	"scidive/internal/sip"
)

// Rule is one stateless detection rule: a per-packet predicate plus an
// optional global (not per-session!) threshold within a sliding window.
type Rule struct {
	Name        string
	Description string
	// Match is the per-packet predicate, evaluated on the decoded
	// footprint with no access to any session state.
	Match func(v *core.FrameView) bool
	// Threshold fires the rule only after this many matches within Window
	// across ALL traffic (0 or 1 = fire on every match).
	Threshold int
	Window    time.Duration
}

// Alert is one baseline rule firing.
type Alert struct {
	At     time.Duration
	Rule   string
	Detail string
}

// Engine evaluates stateless rules over a packet stream. It shares the
// SCIDIVE Distiller for packet decoding so the comparison isolates the
// detection methodology, not the decoder.
type Engine struct {
	distiller *core.Distiller
	view      core.FrameView
	rules     []Rule
	matches   map[string][]time.Duration // rule -> recent match times
	alerts    []Alert
}

// NewEngine returns a baseline engine with the given rules.
func NewEngine(rules []Rule) *Engine {
	return &Engine{
		distiller: core.NewDistiller(),
		rules:     rules,
		matches:   make(map[string][]time.Duration),
	}
}

// HandleFrame processes one observed frame (netsim.Tap compatible).
func (e *Engine) HandleFrame(at time.Duration, frame []byte) {
	if !e.distiller.DistillView(at, frame, &e.view) {
		return
	}
	for i := range e.rules {
		r := &e.rules[i]
		if !r.Match(&e.view) {
			continue
		}
		if r.Threshold <= 1 {
			e.alerts = append(e.alerts, Alert{At: at, Rule: r.Name})
			continue
		}
		window := e.matches[r.Name]
		cutoff := at - r.Window
		for len(window) > 0 && window[0] < cutoff {
			window = window[1:]
		}
		window = append(window, at)
		e.matches[r.Name] = window
		if len(window) >= r.Threshold {
			e.alerts = append(e.alerts, Alert{At: at, Rule: r.Name})
			e.matches[r.Name] = window[:0]
		}
	}
}

// AttachTap subscribes the engine to all hub traffic.
func (e *Engine) AttachTap(n *netsim.Network) { n.AddTap(e.HandleFrame) }

// Alerts returns all alerts raised so far.
func (e *Engine) Alerts() []Alert { return append([]Alert(nil), e.alerts...) }

// AlertsFor returns alerts for one rule.
func (e *Engine) AlertsFor(rule string) []Alert {
	var out []Alert
	for _, a := range e.alerts {
		if a.Rule == rule {
			out = append(out, a)
		}
	}
	return out
}

// Baseline rule names.
const (
	Rule4XXFlood = "stateless-4xx-flood"
	RuleAnyBye   = "stateless-bye-seen"
)

// SnortLikeRuleset returns the Section 3.3 comparison rules:
//
//   - stateless-4xx-flood: N or more SIP 4XX responses within a window,
//     counted across all sessions — the naive way to catch REGISTER
//     floods, which also fires on concurrent benign registrations.
//   - stateless-bye-seen: every SIP BYE — the only stateless
//     approximation of BYE-attack detection, which alarms on every
//     legitimate teardown too.
func SnortLikeRuleset(threshold int, window time.Duration) []Rule {
	return []Rule{
		{
			Name:        Rule4XXFlood,
			Description: "N SIP 4XX responses within the window, any session",
			Match: func(v *core.FrameView) bool {
				return v.Proto == core.ProtoSIP && v.Msg.IsResponse() && v.Msg.StatusCode >= 400 && v.Msg.StatusCode < 500
			},
			Threshold: threshold,
			Window:    window,
		},
		{
			Name:        RuleAnyBye,
			Description: "any SIP BYE request",
			Match: func(v *core.FrameView) bool {
				return v.Proto == core.ProtoSIP && v.Msg.IsRequest() && v.Msg.Method == sip.MethodBye
			},
		},
	}
}
