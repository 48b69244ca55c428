package core_test

// Full-pipeline hostile-input suite: the evasion scenarios and the
// torture corpus replayed through the serial and sharded engines must
// never panic, must account every frame in the distiller's terminal
// ledger, and must classify identically at every shard count.

import (
	"fmt"
	"testing"
	"time"

	"scidive/internal/chaoscore"
	"scidive/internal/core"
)

// engineLedger checks the distiller's never-silently-dropped invariant:
// every frame and every stream-extracted message lands in exactly one
// terminal counter.
func engineLedger(t *testing.T, label string, st core.DistillerStats) {
	t.Helper()
	terminal := st.DecodeError + st.Fragments + st.Ignored + st.Streamed +
		st.SIP + st.RTP + st.RTCP + st.Acct + st.Raw + st.Mismatched
	if terminal != st.Frames+st.StreamMsgs {
		t.Errorf("%s: ledger broken: terminal counters sum to %d, inputs %d (%+v)",
			label, terminal, st.Frames+st.StreamMsgs, st)
	}
}

// TestStreamArmLedger pins the stream-arm accounting fix: TCP segments
// accepted into the stream arm count as Streamed (terminal for the
// segment) and each extracted message as a StreamMsgs input — without
// either, stream traffic vanishes from the ledger.
func TestStreamArmLedger(t *testing.T) {
	frames := scenarioFrames(t, "tcptrunk", 7)
	eng := core.NewEngine(core.Config{})
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	st := eng.DistillerStats()
	if st.Streamed == 0 {
		t.Error("TCP trunk scenario accepted no segments into the stream arm")
	}
	if st.StreamMsgs == 0 {
		t.Error("TCP trunk scenario extracted no stream messages")
	}
	engineLedger(t, "tcptrunk", st)
}

// TestTortureReplayPipeline replays the torture scenarios — the RFC
// 4475-style corpus fired at both the signaling path and the media port,
// over UDP datagrams and the TCP trunk — through the full pipeline. The
// serial engine's ledger must balance exactly, and every shard count must
// classify shipped traffic identically to the serial engine.
func TestTortureReplayPipeline(t *testing.T) {
	for _, name := range []string{"evasion-torture", "evasion-torture-tcp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)

			serial := core.NewEngine(core.Config{})
			for _, r := range frames {
				serial.HandleFrame(r.at, r.frame)
			}
			ss := serial.DistillerStats()
			engineLedger(t, name+" serial", ss)
			if ss.Mismatched == 0 {
				t.Errorf("%s: no frames reclassified; the corpus never hit the ladder", name)
			}
			if ss.Raw == 0 {
				t.Errorf("%s: no raw footprints; the broken corpus entries vanished", name)
			}

			for _, shards := range diffShardCounts {
				eng := core.NewShardedEngine(core.Config{}, shards)
				for _, r := range frames {
					eng.HandleFrame(r.at, r.frame)
				}
				eng.Flush()
				gs := eng.DistillerStats()
				eng.Close()
				// The router drops unclaimed and undecodable traffic before
				// any shard hears of it, so only the classification counters
				// are serial-comparable — and those must match exactly.
				diffClassification(t, fmt.Sprintf("%s shards=%d", name, shards), gs, ss)
			}
		})
	}
}

// TestEvasionScenarioDifferentials holds every evasion scenario to the
// serial engine's exact alerts, events, and stats at each shard count —
// the self-alert streams the goldens pin must survive sharding.
func TestEvasionScenarioDifferentials(t *testing.T) {
	for _, name := range []string{
		"evasion-rtptunnel", "evasion-rtptunnel-tcp",
		"evasion-sipinrtp", "evasion-sipinrtp-tcp",
		"evasion-torture", "evasion-torture-tcp",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffRuns(t, name, scenarioFrames(t, name, 7))
		})
	}
}

// TestHostileReplayChaos replays the evasion scenarios through the
// corrupting tap: hostile traffic with random byte flips on top must
// still never crash either engine, must keep serial and sharded
// byte-equal, and must keep the serial ledger balanced.
func TestHostileReplayChaos(t *testing.T) {
	for _, name := range []string{
		"evasion-rtptunnel", "evasion-sipinrtp", "evasion-torture", "evasion-torture-tcp",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			var corrupted []rec
			tap := chaoscore.CorruptingTap(42, 3, func(at time.Duration, frame []byte) {
				corrupted = append(corrupted, rec{at: at, frame: frame})
			})
			for _, r := range frames {
				tap(r.at, r.frame)
			}
			diffRuns(t, "corrupted "+name, corrupted)

			eng := core.NewEngine(core.Config{})
			for _, r := range corrupted {
				eng.HandleFrame(r.at, r.frame)
			}
			engineLedger(t, "corrupted "+name, eng.DistillerStats())
		})
	}
}
