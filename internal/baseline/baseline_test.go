package baseline_test

import (
	"testing"
	"time"

	"scidive/internal/attack"
	"scidive/internal/baseline"
	"scidive/internal/core"
	"scidive/internal/scenario"
	"scidive/internal/sip"
)

// deployBoth puts a SCIDIVE engine and the stateless baseline on the same
// hub for side-by-side comparison.
func deployBoth(t *testing.T, seed int64) (*scenario.Testbed, *core.Engine, *baseline.Engine) {
	t.Helper()
	tb, err := scenario.New(scenario.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	scidive := core.NewEngine(core.Config{})
	scidive.AttachTap(tb.Net)
	base := baseline.NewEngine(baseline.SnortLikeRuleset(4, 60*time.Second))
	base.AttachTap(tb.Net)
	return tb, scidive, base
}

func TestBaselineFalseAlarmsOnBenignRegistrations(t *testing.T) {
	// Section 3.3's key comparison: several clients registering normally.
	// Each registration draws exactly one 401, so four registration rounds
	// cross the global threshold — a false alarm. SCIDIVE, isolating
	// sessions, stays silent.
	tb, scidive, base := deployBoth(t, 1)
	for i := 0; i < 3; i++ {
		tb.Alice.Register(nil)
		tb.Bob.Register(nil)
		tb.Run(2 * time.Second)
	}
	if got := len(scidive.Alerts()); got != 0 {
		t.Errorf("SCIDIVE raised %d alerts on benign traffic", got)
	}
	if got := len(base.AlertsFor(baseline.Rule4XXFlood)); got == 0 {
		t.Error("baseline raised no 4xx-flood false alarm — comparison premise broken")
	}
}

func TestBaselineAlarmsOnEveryLegitTeardown(t *testing.T) {
	tb, scidive, base := deployBoth(t, 2)
	if err := tb.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	call, err := tb.EstablishCall()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	tb.Sim.Schedule(0, func() { _ = tb.Alice.Hangup(call) })
	tb.Run(2 * time.Second)
	if got := len(scidive.Alerts()); got != 0 {
		t.Errorf("SCIDIVE raised %d alerts on a normal call", got)
	}
	// The stateless BYE rule fires on the legitimate hangup (twice: both
	// proxy legs) — unusable as a BYE-attack detector.
	if got := len(base.AlertsFor(baseline.RuleAnyBye)); got == 0 {
		t.Error("baseline BYE rule did not fire on legitimate teardown")
	}
}

func TestBothCatchRegisterFloodButBaselineCannotSeparate(t *testing.T) {
	tb, scidive, base := deployBoth(t, 3)
	aor := sip.URI{User: "mallory", Host: scenario.AddrProxy.String()}
	tb.Attacker.RegisterFlood(tb.Proxy.Addr(), aor, 20, attack.FixedInterval(100*time.Millisecond))
	tb.Run(5 * time.Second)
	if got := len(scidive.AlertsFor(core.RuleRegisterFlood)); got != 1 {
		t.Errorf("SCIDIVE flood alerts = %d, want 1", got)
	}
	if got := len(base.AlertsFor(baseline.Rule4XXFlood)); got == 0 {
		t.Error("baseline missed the flood entirely")
	}
}

func TestBaselineThresholdOneFiresImmediately(t *testing.T) {
	rules := []baseline.Rule{{
		Name:  "every-sip",
		Match: func(v *core.FrameView) bool { return v.Proto == core.ProtoSIP },
	}}
	tb, err := scenario.New(scenario.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := baseline.NewEngine(rules)
	eng.AttachTap(tb.Net)
	tb.Alice.Register(nil)
	tb.Run(2 * time.Second)
	if len(eng.Alerts()) == 0 {
		t.Error("threshold-1 rule never fired")
	}
}

func TestBaselineWindowExpiry(t *testing.T) {
	// Matches spread wider than the window must not accumulate.
	rules := []baseline.Rule{{
		Name: "windowed",
		Match: func(v *core.FrameView) bool {
			return v.Proto == core.ProtoSIP && v.Msg.IsResponse() && v.Msg.StatusCode == sip.StatusUnauthorized
		},
		Threshold: 3,
		Window:    time.Second,
	}}
	tb, err := scenario.New(scenario.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng := baseline.NewEngine(rules)
	eng.AttachTap(tb.Net)
	// Three registrations 10s apart: 3 total 401s but never 3 within 1s.
	for i := 0; i < 3; i++ {
		tb.Alice.Register(nil)
		tb.Run(10 * time.Second)
	}
	if got := len(eng.Alerts()); got != 0 {
		t.Errorf("windowed rule fired %d times across spread-out matches", got)
	}
}
