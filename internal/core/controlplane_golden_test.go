package core_test

// Control-plane format goldens: the exact bytes of the four cooperative
// formats — a probe digest (SCDG), a digest ack (SCGA), a standalone
// rule-engine checkpoint (SCDR) and an aggregator checkpoint (SCAG) —
// for fixed inputs, pinned as hex under testdata/golden_control. Probes
// and aggregators on either side of an upgrade exchange these bytes, so
// an encoding change must fail here, not in a deployment. Regenerate a
// deliberate change (with a version bump) with:
//
//	go test ./internal/core -run TestControlPlaneGolden -update

import (
	"bytes"
	"encoding/hex"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scidive/internal/coop"
	"scidive/internal/core"
)

// controlGoldenRuleEngine is the cross-point ruleset plus one absence
// rule, fed up to a cut that leaves an ordered partial mid-window, an
// unordered partial, a raised alert, a pending absence alert inside its
// grace and an absent-event lookback.
func controlGoldenRuleEngine() *core.RuleEngine {
	rules := append(core.CrossPointRuleset(), core.Rule{
		Name:        "im-unvouched",
		Severity:    core.SeverityWarning,
		Steps:       []core.Step{{Type: core.EvSIPInstantMessage, Point: core.PointEdge}},
		Absent:      []core.Step{{Type: core.EvSIPInstantMessage, Point: core.PointGateway}},
		AbsentGrace: 2 * time.Second,
	})
	re := core.NewRuleEngine(rules)
	ev := func(at time.Duration, typ core.EventType, session, detail, point string) core.Event {
		return core.Event{At: at, Type: typ, Session: session, Detail: detail, Point: point}
	}
	for _, e := range []core.Event{
		ev(1*time.Second, core.EvSIPBye, "call-1", "alice hangs up", core.PointEdge),
		ev(1500*time.Millisecond, core.EvRTPActivity, "call-1", "media flowing", core.PointGateway),
		ev(2*time.Second, core.EvSIPRegisterOK, "reg-a", "alice@10.0.0.10", core.PointAccessA),
		ev(3*time.Second, core.EvSIPBye, "call-2", "bob hangs up", core.PointEdge),
		ev(3200*time.Millisecond, core.EvRTPActivity, "call-2", "media flowing", core.PointGateway),
		ev(3400*time.Millisecond, core.EvRTPActivity, "call-2", "media flowing", core.PointGateway),
		ev(3500*time.Millisecond, core.EvSIPInstantMessage, "im:bob", "from bob", core.PointGateway),
		ev(4*time.Second, core.EvSIPInstantMessage, "im:carol", "from carol", core.PointEdge),
	} {
		re.Feed(e)
	}
	return re
}

// controlGoldenAggregator accepts one digest from each of two probes and
// stops before Finalize, so the merge buffer still holds their events.
func controlGoldenAggregator() *coop.Aggregator {
	agg := coop.NewAggregator(coop.AggregatorConfig{})
	var src netip.AddrPort
	agg.HandleDigest(src, core.EncodeDigest(&core.Digest{Point: core.PointEdge, Seq: 1, Events: []core.Event{
		{At: time.Second, Type: core.EvSIPBye, Session: "call-1", Detail: "alice hangs up"},
	}}))
	agg.HandleDigest(src, core.EncodeDigest(&core.Digest{Point: core.PointGateway, Seq: 1, Dropped: 2, Events: []core.Event{
		{At: 1500 * time.Millisecond, Type: core.EvRTPActivity, Session: "call-1", Detail: "media flowing"},
		{At: 2 * time.Second, Type: core.EvRTPActivity, Session: "call-1", Detail: "media flowing"},
	}}))
	return agg
}

// TestControlPlaneGolden pins the bytes of every control-plane format.
func TestControlPlaneGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  func() []byte
	}{
		{"digest", func() []byte {
			return core.EncodeDigest(&core.Digest{Point: core.PointEdge, Seq: 3, Dropped: 1, Events: []core.Event{
				{At: time.Second, Type: core.EvSIPBye, Session: "call-1", Detail: "alice hangs up"},
				{At: 2 * time.Second, Type: core.EvRTPActivity, Session: "call-1", Detail: "media flowing", Point: core.PointGateway},
			}})
		}},
		{"ack", func() []byte { return core.EncodeDigestAck(core.PointEdge, 7) }},
		{"rule_engine", func() []byte { return core.SnapshotRuleEngine(controlGoldenRuleEngine()) }},
		{"aggregator", func() []byte { return controlGoldenAggregator().Snapshot() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.got()
			path := filepath.Join("testdata", "golden_control", tc.name+".hex")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden for %s (run with -update to record): %v", tc.name, err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(text)))
			if err != nil {
				t.Fatalf("golden %s: %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s encoding changed: %d bytes (golden %d), first difference at offset %d",
					tc.name, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}
