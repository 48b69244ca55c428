package core_test

// Live ruleset hot-reload tests. The contract under test: ReloadRules
// re-parses and swaps the ruleset at a frame boundary without losing a
// frame; rules present in BOTH rulesets with identical definitions carry
// their in-flight partial matches forward; removed or edited rules drop
// theirs and the drop is surfaced as a rule-reload self-alert; and a
// reload of an UNCHANGED ruleset is a perfect no-op (the reload-vs-static
// differential). The SIGHUP storm variant runs under -race in CI.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

// reloadPoints spreads reload positions across a trace.
func reloadPoints(n int) []int {
	return killPoints(n, []float64{1.0 / 4, 1.0 / 2, 3.0 / 4})
}

// TestReloadUnchangedSerialDifferential reloads the identical ruleset at
// several frame boundaries of every scenario; the serial run must stay
// byte-identical to a never-reloaded run, with zero partials dropped.
func TestReloadUnchangedSerialDifferential(t *testing.T) {
	for _, name := range experiments.ScenarioNames() {
		if testing.Short() && !shortKillScenarios[name] {
			continue
		}
		frames := scenarioFrames(t, name, 7)
		wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
		eng := core.NewEngine(core.Config{}, core.WithEventLog())
		points := reloadPoints(len(frames))
		next := 0
		for i, r := range frames {
			if next < len(points) && i == points[next] {
				next++
				dropped, err := eng.ReloadRules(core.DefaultRuleset())
				if err != nil {
					t.Fatalf("%s: reload at frame %d: %v", name, i, err)
				}
				if dropped != 0 {
					t.Errorf("%s: unchanged reload at frame %d dropped %d partials", name, i, dropped)
				}
			}
			eng.HandleFrame(r.at, r.frame)
		}
		mustMediaIndex(eng.CheckMediaIndex())
		compareToBaseline(t, name+" serial reload-vs-static", eng.Alerts(), eng.Events(), eng.Stats(),
			wantAlerts, wantEvents, wantStats)
	}
}

// TestReloadUnchangedShardedDifferential is the sharded analogue at 2 and
// 8 shards, with and without parallel ingest: mid-stream reloads of the
// unchanged ruleset must leave the output identical to the serial
// never-reloaded baseline, and every shard ledger must reconcile.
func TestReloadUnchangedShardedDifferential(t *testing.T) {
	frames := scenarioFrames(t, "bye", 7)
	wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
	for _, geo := range []struct{ shards, ingest int }{{2, 1}, {8, 1}, {8, 2}} {
		eng := core.NewShardedEngine(core.Config{IngestRouters: geo.ingest}, geo.shards, core.WithEventLog())
		points := reloadPoints(len(frames))
		next := 0
		for i, r := range frames {
			if next < len(points) && i == points[next] {
				next++
				dropped, err := eng.ReloadRules(core.DefaultRuleset())
				if err != nil {
					t.Fatalf("shards=%d ingest=%d: reload at frame %d: %v", geo.shards, geo.ingest, i, err)
				}
				if dropped != 0 {
					t.Errorf("shards=%d ingest=%d: unchanged reload at frame %d dropped %d partials",
						geo.shards, geo.ingest, i, dropped)
				}
			}
			eng.HandleFrame(r.at, r.frame)
		}
		mustMediaIndex(eng.CheckMediaIndex()) // flushes
		for _, h := range eng.ShardHealth() {
			if h.FramesRouted != h.FramesProcessed+h.FramesShed {
				t.Errorf("shards=%d ingest=%d: shard %d ledger does not reconcile after reloads: routed=%d processed=%d shed=%d",
					geo.shards, geo.ingest, h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed)
			}
		}
		compareToBaseline(t, fmt.Sprintf("shards=%d ingest=%d reload-vs-static", geo.shards, geo.ingest),
			eng.Alerts(), eng.Events(), eng.Stats(), wantAlerts, wantEvents, wantStats)
		eng.Close()
	}
}

// withoutRule returns the ruleset minus the named rule.
func withoutRule(rules []core.Rule, name string) []core.Rule {
	out := make([]core.Rule, 0, len(rules))
	for _, r := range rules {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

// TestReloadDropsPartialsOfRemovedRule removes the bye-attack rule at
// every frame boundary (one fresh run per boundary): wherever a partial
// match was in flight the reload must report it dropped and raise the
// rule-reload self-alert, the bye attack must no longer fire, and serial
// and sharded engines must agree on all of it at every boundary.
func TestReloadDropsPartialsOfRemovedRule(t *testing.T) {
	frames, _ := byeCallSession(t)
	edited := withoutRule(core.DefaultRuleset(), core.RuleByeAttack)
	sawDrop := false
	for k := 1; k < len(frames); k++ {
		serial := core.NewEngine(core.Config{}, core.WithEventLog())
		for _, r := range frames[:k] {
			serial.HandleFrame(r.at, r.frame)
		}
		sDropped, err := serial.ReloadRules(edited)
		if err != nil {
			t.Fatalf("serial reload at frame %d: %v", k, err)
		}
		for _, r := range frames[k:] {
			serial.HandleFrame(r.at, r.frame)
		}

		sharded := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
		for _, r := range frames[:k] {
			sharded.HandleFrame(r.at, r.frame)
		}
		shDropped, err := sharded.ReloadRules(edited)
		if err != nil {
			sharded.Close()
			t.Fatalf("sharded reload at frame %d: %v", k, err)
		}
		for _, r := range frames[k:] {
			sharded.HandleFrame(r.at, r.frame)
		}
		sharded.Flush()

		if sDropped != shDropped {
			t.Errorf("reload at frame %d: serial dropped %d partials, sharded dropped %d", k, sDropped, shDropped)
		}
		for _, run := range []struct {
			label   string
			dropped int
			alerts  []core.Alert
		}{{"serial", sDropped, serial.Alerts()}, {"sharded", shDropped, sharded.Alerts()}} {
			if _, ok := findAlert(run.alerts, core.RuleByeAttack); ok && run.dropped > 0 {
				t.Errorf("%s reload at frame %d: bye-attack fired after its rule was removed", run.label, k)
			}
			reloadAlert, ok := findAlert(run.alerts, core.RuleRuleReload)
			if run.dropped > 0 {
				sawDrop = true
				if !ok {
					t.Errorf("%s reload at frame %d dropped %d partials but raised no rule-reload alert", run.label, k, run.dropped)
				} else {
					if reloadAlert.Session != "rules" {
						t.Errorf("%s rule-reload alert session = %q, want \"rules\"", run.label, reloadAlert.Session)
					}
					if !strings.Contains(reloadAlert.Detail, fmt.Sprintf("%d in-flight", run.dropped)) {
						t.Errorf("%s rule-reload alert detail %q does not carry the drop count %d",
							run.label, reloadAlert.Detail, run.dropped)
					}
				}
			} else if ok {
				t.Errorf("%s reload at frame %d dropped nothing but raised a rule-reload alert", run.label, k)
			}
		}
		sharded.Close()
		if t.Failed() {
			return
		}
	}
	if !sawDrop {
		t.Error("no reload boundary had a bye-attack partial in flight; the drop path went unexercised")
	}
}

// TestReloadAddsRuleMidStream starts with a ruleset that cannot see the
// bye attack and hot-adds the full default ruleset mid-dialog: the
// detection fires if (and only if) the rule arrives before the attack
// sequence begins — rules added mid-stream start matching from their
// arrival, they do not rewrite history.
func TestReloadAddsRuleMidStream(t *testing.T) {
	frames, _ := byeCallSession(t)
	reduced := withoutRule(core.DefaultRuleset(), core.RuleByeAttack)

	eng := core.NewEngine(core.Config{Rules: reduced}, core.WithEventLog())
	if _, err := eng.ReloadRules(core.DefaultRuleset()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	if _, ok := findAlert(eng.Alerts(), core.RuleByeAttack); !ok {
		t.Errorf("bye-attack rule added before any traffic never fired: %v", alertKeys(eng.Alerts()))
	}

	late := core.NewEngine(core.Config{Rules: reduced}, core.WithEventLog())
	for _, r := range frames {
		late.HandleFrame(r.at, r.frame)
	}
	if _, ok := findAlert(late.Alerts(), core.RuleByeAttack); ok {
		t.Error("bye-attack fired without its rule ever being loaded")
	}
}

// TestRuleReloadHammer is the reload race storm: 100+ reloads (alternating
// the unchanged default ruleset with an edited one) concurrent with
// multi-goroutine feeding, flushing, and stats reads on an 8-shard engine
// with 4 ingest lanes. Run under -race in CI. Afterwards every delivered
// frame must be accounted for — routed == processed + shed on every shard
// and zero shed with no shed budget configured: reloads never lose a
// frame.
func TestRuleReloadHammer(t *testing.T) {
	reloads := 100
	if testing.Short() {
		reloads = 25
	}
	var corpus [][]rec
	for _, name := range []string{"benign", "bye", "rtp"} {
		corpus = append(corpus, scenarioFrames(t, name, 11))
	}
	eng := core.NewShardedEngine(core.Config{IngestRouters: 4}, 8, core.WithEventLog())
	defer eng.Close()

	edited := withoutRule(core.DefaultRuleset(), core.RuleByeAttack)
	total := 0
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for _, r := range corpus[(f+round)%len(corpus)] {
					eng.HandleFrame(r.at, r.frame)
				}
			}
		}(f)
		for round := 0; round < 4; round++ {
			total += len(corpus[(f+round)%len(corpus)])
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.Flush()
			_ = eng.Stats()
			_ = eng.Alerts()
		}
	}()
	for i := 0; i < reloads; i++ {
		rules := core.DefaultRuleset()
		if i%2 == 1 {
			rules = edited
		}
		if _, err := eng.ReloadRules(rules); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	eng.Flush()

	st := eng.Stats()
	if st.Frames != total {
		t.Errorf("engine processed %d frames, %d were delivered: the reload storm lost frames", st.Frames, total)
	}
	if st.FramesShed != 0 || st.BatchesShed != 0 {
		t.Errorf("frames shed with no shed budget configured: %+v", st)
	}
	for _, h := range eng.ShardHealth() {
		if h.FramesRouted != h.FramesProcessed+h.FramesShed {
			t.Errorf("shard %d ledger does not reconcile after the reload storm: routed=%d processed=%d shed=%d",
				h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed)
		}
	}
}

// FuzzRulesetReload feeds arbitrary bytes through the rules DSL and, when
// they parse, hot-reloads the result into engines mid-stream: no rules
// file — however malformed or adversarial — may ever panic the parser or
// the reload path.
func FuzzRulesetReload(f *testing.F) {
	f.Add(core.FormatRules(core.DefaultRuleset()))
	f.Add("rule custom-bye critical cross stateful {\n    seq sip-bye, rtp-after-bye\n}\n")
	f.Add("")
	f.Add("rule broken nope {\n    seq sip-bye\n")
	f.Add("rule a info sip stateless {\n    on sip-bye\n}\nrule a info sip stateless {\n    on sip-bye\n}\n")

	var frames []rec
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := core.ParseRules(text)
		if err != nil {
			return // a rejected ruleset is the parser doing its job
		}
		if frames == nil {
			frames = scenarioFrames(t, "bye", 7)
		}
		k := len(frames) / 2
		eng := core.NewEngine(core.Config{}, core.WithEventLog())
		for _, r := range frames[:k] {
			eng.HandleFrame(r.at, r.frame)
		}
		if _, err := eng.ReloadRules(rules); err != nil {
			t.Fatalf("serial reload of parsed ruleset: %v", err)
		}
		for _, r := range frames[k:] {
			eng.HandleFrame(r.at, r.frame)
		}
		sh := core.NewShardedEngine(core.Config{}, 2, core.WithEventLog())
		defer sh.Close()
		for _, r := range frames[:k] {
			sh.HandleFrame(r.at, r.frame)
		}
		if _, err := sh.ReloadRules(rules); err != nil {
			t.Fatalf("sharded reload of parsed ruleset: %v", err)
		}
		for _, r := range frames[k:] {
			sh.HandleFrame(r.at, r.frame)
		}
		sh.Flush()
	})
}
