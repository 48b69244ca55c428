package core_test

import (
	"net/netip"
	"testing"
	"time"

	"scidive/internal/attack"
	"scidive/internal/core"
	"scidive/internal/scenario"
	"scidive/internal/sip"
)

// deploy builds a testbed with a SCIDIVE engine tapped into the hub.
func deploy(t *testing.T, cfg scenario.Config, engineCfg core.Config) (*scenario.Testbed, *core.Engine) {
	t.Helper()
	tb, err := scenario.New(cfg)
	if err != nil {
		t.Fatalf("scenario.New: %v", err)
	}
	eng := core.NewEngine(engineCfg)
	eng.AttachTap(tb.Net)
	return tb, eng
}

// mustAlert asserts exactly-one live alert for a rule and returns it.
func mustAlert(t *testing.T, eng *core.Engine, rule string) core.Alert {
	t.Helper()
	alerts := eng.AlertsFor(rule)
	if len(alerts) != 1 {
		t.Fatalf("rule %q raised %d alerts, want 1: %v", rule, len(alerts), alerts)
	}
	return alerts[0]
}

// mustNoAlerts asserts the engine stayed silent.
func mustNoAlerts(t *testing.T, eng *core.Engine) {
	t.Helper()
	if alerts := eng.Alerts(); len(alerts) != 0 {
		t.Fatalf("expected no alerts, got %d: %v", len(alerts), alerts)
	}
}

func TestNormalCallRaisesNoAlerts(t *testing.T) {
	// The false-positive baseline: registration (including the normal
	// 401-challenge round), call setup, 30s of media, teardown.
	tb, eng := deploy(t, scenario.Config{Seed: 100}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	call, err := tb.EstablishCall()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(30 * time.Second)
	tb.Sim.Schedule(0, func() { _ = tb.Alice.Hangup(call) })
	tb.Run(3 * time.Second)
	mustNoAlerts(t, eng)
	st := eng.Stats()
	if st.Footprints < 3000 {
		t.Errorf("engine distilled only %d footprints from a 30s call", st.Footprints)
	}
}

func TestLegitimateMigrationRaisesNoAlerts(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 101}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	call, err := tb.EstablishCall()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	tb.Sim.Schedule(0, func() {
		if err := tb.Alice.Migrate(call, netip.AddrPortFrom(scenario.AddrClientA, 42000)); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	tb.Run(5 * time.Second)
	mustNoAlerts(t, eng)
}

func TestDetectsByeAttack(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 102}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EstablishCall(); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	d := tb.Sniffer.ConfirmedDialog()
	if d == nil {
		t.Fatal("no sniffed dialog")
	}
	var attackAt time.Duration
	tb.Sim.Schedule(0, func() {
		attackAt = tb.Sim.Now()
		if err := tb.Attacker.ForgedBye(d, true); err != nil {
			t.Errorf("ForgedBye: %v", err)
		}
	})
	tb.Run(2 * time.Second)
	a := mustAlert(t, eng, core.RuleByeAttack)
	if a.Severity != core.SeverityCritical {
		t.Errorf("severity = %v", a.Severity)
	}
	if len(a.Events) != 2 || a.Events[0].Type != core.EvSIPBye || a.Events[1].Type != core.EvRTPAfterBye {
		t.Errorf("alert events = %v", a.Events)
	}
	// Detection delay: bob's next RTP packet lands within ~tens of ms
	// (20ms period plus LAN delay).
	if delay := a.At - attackAt; delay > 100*time.Millisecond {
		t.Errorf("detection delay %v too large", delay)
	}
}

func TestDetectsFakeIM(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 103}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// Legitimate IM establishes bob's expected source (the proxy relay).
	tb.Sim.Schedule(0, func() { tb.Bob.SendIM("alice", "really bob") })
	tb.Sim.Schedule(time.Second, func() {
		_ = tb.Attacker.FakeIM(
			netip.AddrPortFrom(scenario.AddrClientA, sip.DefaultPort),
			sip.URI{User: "bob", Host: scenario.AddrProxy.String()},
			"fake bob here",
		)
	})
	tb.Run(3 * time.Second)
	a := mustAlert(t, eng, core.RuleFakeIM)
	if a.Session != "im:bob@10.0.0.10" {
		t.Errorf("session = %q", a.Session)
	}
}

func TestDetectsCallHijack(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 104}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EstablishCall(); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	d := tb.Sniffer.ConfirmedDialog()
	if d == nil {
		t.Fatal("no sniffed dialog")
	}
	sink := netip.AddrPortFrom(scenario.AddrAttacker, 46000)
	tb.Sim.Schedule(0, func() {
		if err := tb.Attacker.Hijack(d, true, sink); err != nil {
			t.Errorf("Hijack: %v", err)
		}
	})
	tb.Run(2 * time.Second)
	a := mustAlert(t, eng, core.RuleCallHijack)
	if len(a.Events) != 2 || a.Events[0].Type != core.EvSIPReinvite {
		t.Errorf("alert events = %v", a.Events)
	}
}

func TestDetectsRTPAttack(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 105}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EstablishCall(); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	tb.Sim.Schedule(0, func() {
		_ = tb.Attacker.InjectGarbageRTP(tb.Alice.RTPAddr(), 20, 172)
	})
	tb.Run(2 * time.Second)
	// Garbage bytes: 3/4 fail RTP version decode (garbage rule), the rest
	// parse as RTP with random sequence numbers (seq-jump rule) from a
	// wrong source (bad-source rule). At least the garbage rule and one of
	// the others must fire on 20 random packets.
	garbage := eng.AlertsFor(core.RuleRTPGarbage)
	seq := eng.AlertsFor(core.RuleRTPSeqJump)
	src := eng.AlertsFor(core.RuleRTPBadSource)
	if len(garbage) == 0 {
		t.Error("garbage rule did not fire")
	}
	if len(seq)+len(src) == 0 {
		t.Error("neither seq-jump nor bad-source fired on parseable garbage")
	}
	// Dedup: repeated garbage updates Count rather than new alerts.
	if len(garbage) == 1 && garbage[0].Count < 2 {
		t.Errorf("garbage alert count = %d, want >= 2 for 20 packets", garbage[0].Count)
	}
}

func TestDetectsRegisterFlood(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 106}, core.Config{})
	aor := sip.URI{User: "mallory", Host: scenario.AddrProxy.String()}
	tb.Attacker.RegisterFlood(tb.Proxy.Addr(), aor, 20, attack.FixedInterval(100*time.Millisecond))
	tb.Run(5 * time.Second)
	a := mustAlert(t, eng, core.RuleRegisterFlood)
	if a.Severity != core.SeverityWarning {
		t.Errorf("severity = %v", a.Severity)
	}
	// And crucially: no password-guess alert (no Authorization headers).
	if got := eng.AlertsFor(core.RulePasswordGuess); len(got) != 0 {
		t.Errorf("flood misclassified as password guessing: %v", got)
	}
}

func TestDetectsPasswordGuessing(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 107}, core.Config{})
	aor := sip.URI{User: "alice", Host: scenario.AddrProxy.String()}
	guesses := []string{"a", "b", "c", "d", "e", "f"}
	tb.Attacker.PasswordGuess(tb.Proxy.Addr(), aor, "scidive.test", guesses, attack.FixedInterval(200*time.Millisecond))
	tb.Run(5 * time.Second)
	mustAlert(t, eng, core.RulePasswordGuess)
}

func TestNormalReregistrationNoFalseAlarm(t *testing.T) {
	// Section 3.3's false-alarm discussion: every normal registration
	// includes an unauthenticated attempt and a 401. Several phones
	// registering (and re-registering) must not trip the flood rule,
	// because SCIDIVE isolates sessions.
	tb, eng := deploy(t, scenario.Config{Seed: 108}, core.Config{})
	for i := 0; i < 4; i++ {
		tb.Alice.Register(nil)
		tb.Bob.Register(nil)
		tb.Run(2 * time.Second)
	}
	mustNoAlerts(t, eng)
}

func TestDetectsBillingFraud(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 109}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	fraud := attack.NewBillingFraud(
		tb.Attacker,
		tb.Proxy.Addr(),
		sip.URI{User: "alice", Host: scenario.AddrProxy.String()},
		sip.URI{User: "bob", Host: scenario.AddrProxy.String()},
		40600,
	)
	tb.Sim.Schedule(0, func() {
		if err := fraud.Launch(5 * time.Second); err != nil {
			t.Errorf("Launch: %v", err)
		}
	})
	tb.Run(8 * time.Second)
	if !fraud.Established {
		t.Fatal("fraud call did not establish")
	}
	a := mustAlert(t, eng, core.RuleBillingFraud)
	if len(a.Events) != 3 {
		t.Fatalf("billing fraud alert carries %d events, want 3: %v", len(a.Events), a.Events)
	}
	types := map[core.EventType]bool{}
	for _, ev := range a.Events {
		types[ev.Type] = true
	}
	for _, want := range []core.EventType{core.EvSIPBadFormat, core.EvAcctUnmatched, core.EvRTPUnmatchedMedia} {
		if !types[want] {
			t.Errorf("billing fraud alert missing event %v", want)
		}
	}
}

func TestMonitorWindowBoundsDetection(t *testing.T) {
	// With a very small monitoring window m, the orphan flow arrives too
	// late and the attack is missed — the Pm trade-off of Section 4.3.
	tb, eng := deploy(t, scenario.Config{Seed: 111},
		core.Config{Gen: core.GenConfig{MonitorWindow: time.Microsecond}})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EstablishCall(); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	d := tb.Sniffer.ConfirmedDialog()
	tb.Sim.Schedule(0, func() { _ = tb.Attacker.ForgedBye(d, true) })
	tb.Run(2 * time.Second)
	if got := eng.AlertsFor(core.RuleByeAttack); len(got) != 0 {
		t.Errorf("attack detected despite 1µs window: %v", got)
	}
}

func TestEngineSeesTrailsAndBindings(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 112}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EstablishCall(); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	bindings := eng.Generator().Bindings()
	if bindings["alice@10.0.0.10"] != scenario.AddrClientA {
		t.Errorf("alice binding = %v", bindings["alice@10.0.0.10"])
	}
	if bindings["bob@10.0.0.10"] != scenario.AddrClientB {
		t.Errorf("bob binding = %v", bindings["bob@10.0.0.10"])
	}
	if eng.Trails().Sessions() == 0 || eng.Trails().Trails() < 2 {
		t.Errorf("trail store = %v", eng.Trails())
	}
	// The call session should have both a SIP and an RTP trail — the
	// cross-protocol structure of Figure 2.
	var haveBoth bool
	for callID := range tb.Alice.Calls() {
		trails := eng.Trails().SessionTrails(callID)
		protos := map[core.Protocol]bool{}
		for _, tr := range trails {
			protos[tr.Protocol] = true
		}
		if protos[core.ProtoSIP] && protos[core.ProtoRTP] {
			haveBoth = true
		}
	}
	if !haveBoth {
		t.Error("call session lacks parallel SIP and RTP trails")
	}
}

func TestBenignIMExchangeNoFalseAlarm(t *testing.T) {
	// A hub-tapped IDS sees each relayed IM twice (client->proxy and
	// proxy->victim) with different source IPs; that must not trip the
	// fake-IM rule. Regression test for the per-delivery-path history.
	tb, eng := deploy(t, scenario.Config{Seed: 113}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tb.Sim.Schedule(0, func() { tb.Bob.SendIM("alice", "ping") })
		tb.Run(2 * time.Second)
		tb.Sim.Schedule(0, func() { tb.Alice.SendIM("bob", "pong") })
		tb.Run(2 * time.Second)
	}
	mustNoAlerts(t, eng)
	if got := len(tb.Alice.Messages()); got != 5 {
		t.Errorf("alice received %d IMs, want 5", got)
	}
}

func TestDetectsSpoofedRTCPBye(t *testing.T) {
	tb, eng := deploy(t, scenario.Config{Seed: 114}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	aliceCall, err := tb.EstablishCall()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	d := tb.Sniffer.ConfirmedDialog()
	if d == nil {
		t.Fatal("no sniffed dialog")
	}
	if d.CalleeSSRC == 0 {
		t.Fatal("sniffer did not learn the callee SSRC")
	}
	// Forge an RTCP BYE to alice, claiming bob left the media session.
	tb.Sim.Schedule(0, func() {
		if err := tb.Attacker.SpoofedRTCPBye(d, true); err != nil {
			t.Errorf("SpoofedRTCPBye: %v", err)
		}
	})
	tb.Run(2 * time.Second)
	// Impact: alice stopped transmitting while the SIP dialog stays up.
	if !aliceCall.Established() {
		t.Error("SIP dialog should remain confirmed")
	}
	sent := aliceCall.RTPSent
	tb.Run(time.Second)
	if aliceCall.RTPSent != sent {
		t.Error("alice kept transmitting despite the RTCP BYE")
	}
	// Detection: the three-protocol rule fires exactly once.
	mustAlert(t, eng, core.RuleRTCPByeSpoof)
}

func TestLegitimateTeardownRTCPByeNoFalseAlarm(t *testing.T) {
	// A normal hangup emits an RTCP BYE alongside the SIP BYE; the IDS
	// must correlate the two and stay silent.
	tb, eng := deploy(t, scenario.Config{Seed: 115}, core.Config{})
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	call, err := tb.EstablishCall()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	tb.Sim.Schedule(0, func() { _ = tb.Alice.Hangup(call) })
	tb.Run(3 * time.Second)
	mustNoAlerts(t, eng)
}
