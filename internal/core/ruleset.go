package core

import "time"

// Rule names used by the default ruleset (and referenced by experiments).
const (
	RuleByeAttack     = "bye-attack"
	RuleCallHijack    = "call-hijack"
	RuleFakeIM        = "fake-im"
	RuleRTPSeqJump    = "rtp-attack-seq"
	RuleRTPBadSource  = "rtp-attack-source"
	RuleRTPGarbage    = "rtp-attack-garbage"
	RuleRegisterFlood = "register-flood"
	RulePasswordGuess = "password-guess"
	RuleBillingFraud  = "billing-fraud"
	RuleRTCPByeSpoof  = "rtcp-bye-spoof"
	RuleOptionsScan   = "sip-options-scan"
	// RuleProtocolMismatch fires when content-confirmed classification
	// reclassified a frame away from its port's protocol (classify.go).
	RuleProtocolMismatch = "protocol-mismatch"
	// RuleEvasionSuspect fires when the contradiction matches a known
	// evasion shape: RTP tunneled on signaling ports, SIP smuggled inside
	// RTP payloads, or signaling found on media ports.
	RuleEvasionSuspect = "evasion-suspect"
)

// Self-monitoring alert names raised by the sharded engine about its own
// health, so degradation under overload or shard failure is itself a
// detectable event rather than a silent gap in coverage.
const (
	// RuleIDSOverload fires when the router sheds frames because a shard
	// queue stayed full past ShedAfter, and once when a shard is
	// quarantined (everything routed to it from then on is shed).
	RuleIDSOverload = "ids-overload"
	// RuleShardFailure fires when a shard worker panics or the watchdog
	// finds it stalled past StallTimeout.
	RuleShardFailure = "shard-failure"
	// RuleShardStateLoss fires when RestartFailedShards restarts a shard
	// with empty detection state because no checkpoint was available (or
	// the cached one failed to decode): the shard is contained but blind —
	// in-flight rule progress for its sessions is gone. A warm restart
	// from a checkpoint does not raise it.
	RuleShardStateLoss = "shard-state-loss"
	// RuleRuleReload fires when a live ruleset reload (SIGHUP /
	// ReloadRules) drops in-flight partial matches because their rules
	// were removed or edited: losing multi-step progress is a visible
	// event, never a silent reset. Reloading an unchanged ruleset raises
	// nothing.
	RuleRuleReload = "rule-reload"
)

// DefaultRuleset returns the rules for the paper's four demonstrated
// attacks (Table 1) plus the Section 3.2/3.3 synthetic scenarios.
func DefaultRuleset() []Rule {
	return []Rule{
		{
			Name:          RuleByeAttack,
			Description:   "No RTP traffic should be seen from a user agent after its SIP BYE (Figure 5)",
			Severity:      SeverityCritical,
			Steps:         []Step{{Type: EvSIPBye}, {Type: EvRTPAfterBye}},
			CrossProtocol: true,
			Stateful:      true,
		},
		{
			Name:          RuleCallHijack,
			Description:   "No RTP traffic should be seen from the old address after a media-moving REINVITE (Figure 7)",
			Severity:      SeverityCritical,
			Steps:         []Step{{Type: EvSIPReinvite}, {Type: EvRTPAfterReinvite}},
			CrossProtocol: true,
			Stateful:      true,
		},
		{
			Name:          RuleFakeIM,
			Description:   "Instant messages from one user should keep a stable source IP within a period (Figure 6)",
			Severity:      SeverityWarning,
			Steps:         []Step{{Type: EvIMSourceMismatch}},
			CrossProtocol: true, // correlates SIP-layer identity with IP-layer source
		},
		{
			Name:          RuleRTPSeqJump,
			Description:   "RTP sequence numbers in consecutive packets should increase regularly (Figure 8)",
			Severity:      SeverityWarning,
			Steps:         []Step{{Type: EvRTPSeqJump}},
			CrossProtocol: true, // RTP payload field plus IP-level flow identity
			Stateful:      true,
		},
		{
			Name:          RuleRTPBadSource,
			Description:   "RTP packets must come from the address the session negotiated (Figure 8)",
			Severity:      SeverityWarning,
			Steps:         []Step{{Type: EvRTPBadSource}},
			CrossProtocol: true,
			Stateful:      true,
		},
		{
			Name:        RuleRTPGarbage,
			Description: "Undecodable packets on a negotiated media port (Figure 8)",
			Severity:    SeverityWarning,
			Steps:       []Step{{Type: EvRTPGarbage}},
		},
		{
			Name:        RuleRegisterFlood,
			Description: "Continuous alternating requests and 4XX errors within one session (Section 3.3 DoS)",
			Severity:    SeverityWarning,
			Steps:       []Step{{Type: EvAuthFlood}},
			Stateful:    true,
		},
		{
			Name:        RulePasswordGuess,
			Description: "Alternating requests with differing challenge responses and 401 errors (Section 3.3)",
			Severity:    SeverityCritical,
			Steps:       []Step{{Type: EvPasswordGuessing}},
			Stateful:    true,
		},
		{
			Name:          RuleRTCPByeSpoof,
			Description:   "An RTCP BYE must be accompanied by a SIP BYE: media control and call signaling in disagreement indicates a forged RTCP teardown",
			Severity:      SeverityCritical,
			Steps:         []Step{{Type: EvRTCPSpoofedBye}},
			CrossProtocol: true, // SIP dialog state vs RTCP control vs RTP media
			Stateful:      true,
		},
		{
			Name:        RuleBillingFraud,
			Description: "Malformed call setup + unmatched accounting transaction + media away from the caller's registered location (Section 3.2)",
			Severity:    SeverityCritical,
			Steps: []Step{
				{Type: EvSIPBadFormat},
				{Type: EvAcctUnmatched},
				{Type: EvRTPUnmatchedMedia},
			},
			Unordered:     true,
			CrossProtocol: true,
			Stateful:      true,
		},
		{
			Name:        RuleOptionsScan,
			Description: "One source probing many dialogs with OPTIONS in a short window is sweeping the proxy for capabilities",
			Severity:    SeverityWarning,
			Steps:       []Step{{Type: EvOptionsScan}},
			Stateful:    true, // per-source dialog counting across Call-IDs
		},
		{
			Name:          RuleProtocolMismatch,
			Description:   "Payload content contradicts the protocol its port claims: the traffic decodes cleanly, just not as what the port promised",
			Severity:      SeverityWarning,
			Steps:         []Step{{Type: EvProtocolMismatch}},
			CrossProtocol: true, // port-layer claim vs payload-layer content
		},
		{
			Name:          RuleEvasionSuspect,
			Description:   "Port/content contradiction in a known evasion shape: RTP tunneled over signaling ports, SIP smuggled in RTP payloads, or signaling on media ports",
			Severity:      SeverityCritical,
			Steps:         []Step{{Type: EvEvasionSuspect}},
			CrossProtocol: true,
		},
	}
}

// Observation-point names used by the cross-point ruleset and the
// cooperative scenarios: the edge proxy tap, the media gateway tap, and
// the two access-network endpoint taps. Points are free-form strings —
// these constants just keep the rules, scenarios and docs in agreement.
const (
	PointEdge    = "edge"
	PointGateway = "gateway"
	PointAccessA = "access-a"
	PointAccessB = "access-b"
)

// Rule names used by the cross-point (aggregator) ruleset.
const (
	// RuleByeTeardownSplit is the paper's BYE attack split across
	// vantages: the edge proxy saw the BYE, yet the media gateway keeps
	// reporting RTP activity for the same call afterwards. Neither probe
	// alone can tell — the edge tap never sees media, the gateway tap
	// never sees the forged signaling.
	RuleByeTeardownSplit = "bye-teardown-split"
	// RuleRegisterHijackSplit fires when the same AOR registers
	// successfully from both access networks within a short window: a
	// registration hijack racing the legitimate binding. Correlated by
	// Detail (the AOR) because each vantage sees a different Call-ID.
	RuleRegisterHijackSplit = "register-hijack-split"
)

// CrossPointRuleset returns the aggregator's cross-point rules: patterns
// over the merged multi-probe event stream that qualify steps by
// observation point, so they can express "seen at A but not (or also) at
// B" — invisible to any single probe. Canonical DSL rendering lives in
// rules/crosspoint.rules.
func CrossPointRuleset() []Rule {
	return []Rule{
		{
			Name:        RuleByeTeardownSplit,
			Description: "A BYE at the edge proxy must tear the call's media down at the gateway: two media-activity heartbeats after the BYE prove the teardown never happened",
			Severity:    SeverityCritical,
			Steps: []Step{
				{Type: EvSIPBye, Point: PointEdge},
				{Type: EvRTPActivity, Point: PointGateway},
				{Type: EvRTPActivity, Point: PointGateway},
			},
			Window:        5 * time.Second,
			CrossProtocol: true,
			Stateful:      true,
		},
		{
			Name:        RuleRegisterHijackSplit,
			Description: "One AOR successfully registering from both access networks within a short window is a registration hijack racing the legitimate binding",
			Severity:    SeverityCritical,
			Steps: []Step{
				{Type: EvSIPRegisterOK, Point: PointAccessA},
				{Type: EvSIPRegisterOK, Point: PointAccessB},
			},
			Unordered: true,
			Window:    30 * time.Second,
			KeyBy:     KeyByDetail,
			Stateful:  true,
		},
	}
}

// RuleByName returns the rule with the given name from a ruleset.
func RuleByName(rules []Rule, name string) (Rule, bool) {
	for _, r := range rules {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}
