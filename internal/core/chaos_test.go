package core_test

// Chaos suite: drives the sharded engine through injected worker panics,
// stalls, and wire corruption, asserting the failure-containment
// guarantees — quarantine without collateral damage, exact shed/evict
// accounting, self-monitoring alerts, and no deadlocks (the suite runs
// under -race in CI).

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"scidive/internal/chaoscore"
	"scidive/internal/core"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// findAlert returns the first alert with the given rule, if any.
func findAlert(alerts []core.Alert, rule string) (core.Alert, bool) {
	for _, a := range alerts {
		if a.Rule == rule {
			return a, true
		}
	}
	return core.Alert{}, false
}

// byeCallSession runs the bye scenario serially and returns its frames
// plus the session the bye-attack rule fires on.
func byeCallSession(t *testing.T) ([]rec, string) {
	t.Helper()
	frames := scenarioFrames(t, "bye", 7)
	wantAlerts, _, _ := runSerial(frames)
	bye, ok := findAlert(wantAlerts, core.RuleByeAttack)
	if !ok {
		t.Fatalf("bye scenario raised no bye-attack alert serially: %v", alertKeys(wantAlerts))
	}
	return frames, bye.Session
}

// settleHealth polls until every shard's ledger balances (routed ==
// processed + shed), failing the test if it never does — an imbalance
// means frames were lost without accounting.
func settleHealth(t *testing.T, eng *core.ShardedEngine) []core.ShardHealth {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		health := eng.ShardHealth()
		balanced := true
		for _, h := range health {
			if h.FramesRouted != h.FramesProcessed+h.FramesShed {
				balanced = false
			}
		}
		if balanced {
			return health
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard ledgers never balanced: %+v", health)
		}
		time.Sleep(time.Millisecond)
	}
}

func sortedAlertKeys(alerts []core.Alert) []string {
	keys := alertKeys(alerts)
	sort.Strings(keys)
	return keys
}

// TestShardPanicQuarantine panics one shard at its first frame and
// asserts: the bye-attack detection on the OTHER shard survives, the
// failure and the resulting frame loss raise self-alerts, every dropped
// frame is accounted, and the whole outcome is run-to-run deterministic.
func TestShardPanicQuarantine(t *testing.T) {
	frames, session := byeCallSession(t)
	const shards = 2
	victimShard := core.ShardOf(session, shards)
	panicShard := 1 - victimShard

	run := func(pause time.Duration) ([]core.Alert, core.EngineStats, []core.ShardHealth) {
		inj := new(chaoscore.ScriptedInjector).PanicAt(panicShard, 0)
		eng := core.NewShardedEngine(core.Config{}, shards, core.WithFaultInjector(inj))
		for _, r := range frames {
			eng.HandleFrame(r.at, r.frame)
			if pause > 0 {
				time.Sleep(pause)
			}
		}
		eng.Close()
		health := settleHealth(t, eng)
		return eng.Alerts(), eng.Stats(), health
	}

	alerts, stats, health := run(0)

	if _, ok := findAlert(alerts, core.RuleByeAttack); !ok {
		t.Errorf("bye-attack detection on shard %d lost to shard %d's panic: %v",
			victimShard, panicShard, alertKeys(alerts))
	}
	sf, ok := findAlert(alerts, core.RuleShardFailure)
	if !ok {
		t.Fatalf("no shard-failure alert after injected panic: %v", alertKeys(alerts))
	}
	if want := fmt.Sprintf("shard:%d", panicShard); sf.Session != want {
		t.Errorf("shard-failure session = %q, want %q", sf.Session, want)
	}
	if stats.ShardsFailed != 1 || stats.ShardsRestarted != 0 {
		t.Errorf("ShardsFailed=%d ShardsRestarted=%d, want 1/0", stats.ShardsFailed, stats.ShardsRestarted)
	}
	if health[panicShard].State != "panicked" {
		t.Errorf("shard %d state = %q, want panicked", panicShard, health[panicShard].State)
	}
	if health[victimShard].State != "healthy" {
		t.Errorf("shard %d state = %q, want healthy", victimShard, health[victimShard].State)
	}
	if health[panicShard].FramesShed == 0 {
		t.Errorf("panicked shard shed no frames: %+v", health[panicShard])
	}
	if health[victimShard].FramesShed != 0 {
		t.Errorf("healthy shard shed %d frames", health[victimShard].FramesShed)
	}
	var totalShed, totalBatches uint64
	for _, h := range health {
		totalShed += h.FramesShed
		totalBatches += h.BatchesShed
	}
	if uint64(stats.FramesShed) != totalShed || uint64(stats.BatchesShed) != totalBatches {
		t.Errorf("Stats shed %d/%d, ShardHealth sums %d/%d",
			stats.FramesShed, stats.BatchesShed, totalShed, totalBatches)
	}
	if totalBatches > 0 {
		if _, ok := findAlert(alerts, core.RuleIDSOverload); !ok {
			t.Errorf("batches shed but no ids-overload alert: %v", alertKeys(alerts))
		}
	}

	// Exact determinism: identical input, identical injection, identical
	// alerts and accounting — regardless of goroutine scheduling.
	alerts2, stats2, health2 := run(0)
	if got, want := sortedAlertKeys(alerts2), sortedAlertKeys(alerts); !equalStrings(got, want) {
		t.Errorf("second run alerts differ:\n got %v\nwant %v", got, want)
	}
	if stats2 != stats {
		t.Errorf("second run stats %+v, first %+v", stats2, stats)
	}
	for i := range health {
		if health2[i] != health[i] {
			t.Errorf("second run shard %d health %+v, first %+v", i, health2[i], health[i])
		}
	}

	// Batch boundaries depend on timing: a partial batch leaves once it
	// outlives the router's linger (100µs), or on the backstop tick (1ms)
	// once the feed goes quiet. Pausing 2ms after every frame cuts every
	// batch to one item, and the outcome must still be the unpaused one —
	// alert for alert, counter for counter.
	t.Run("paused", func(t *testing.T) {
		alerts3, stats3, health3 := run(2 * time.Millisecond)
		if !reflect.DeepEqual(alerts3, alerts) {
			t.Errorf("paused run alerts differ:\n got %+v\nwant %+v", alerts3, alerts)
		}
		if stats3 != stats {
			t.Errorf("paused run stats %+v, unpaused %+v", stats3, stats)
		}
		if !reflect.DeepEqual(health3, health) {
			t.Errorf("paused run health %+v, unpaused %+v", health3, health)
		}
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardPanicRestart enables RestartFailedShards: a shard panics in
// the middle of one call's traffic, restarts with fresh state, and a
// second call arriving at the same shard afterwards must still be fully
// detected. The failure stays visible in alerts and counters.
func TestShardPanicRestart(t *testing.T) {
	const shards = 2
	id1 := callIDForShard(0, shards)
	var id2 string
	for i := 0; ; i++ {
		id2 = fmt.Sprintf("chaos-restart-%d@test", i)
		if core.ShardOf(id2, shards) == 0 {
			break
		}
	}
	g1 := &chaosGen{}
	g1.byeAttackCall(id1,
		netip.AddrFrom4([4]byte{10, 0, 0, 3}), netip.AddrFrom4([4]byte{10, 0, 0, 4}),
		10004, 10006)
	g2 := &chaosGen{now: g1.now}
	g2.byeAttackCall(id2,
		netip.AddrFrom4([4]byte{10, 0, 0, 5}), netip.AddrFrom4([4]byte{10, 0, 0, 6}),
		10008, 10010)

	inj := new(chaoscore.ScriptedInjector).PanicAt(0, 6) // mid-call-1 media
	cfg := core.Config{Limits: core.Limits{RestartFailedShards: true}}
	eng := core.NewShardedEngine(cfg, shards, core.WithFaultInjector(inj))
	for _, r := range g1.frames {
		eng.HandleFrame(r.at, r.frame)
	}
	eng.Flush() // batch boundary: the panic lands in call 1's batch only
	for _, r := range g2.frames {
		eng.HandleFrame(r.at, r.frame)
	}
	eng.Close()
	health := settleHealth(t, eng)
	alerts := eng.Alerts()
	stats := eng.Stats()

	bye, ok := findAlert(alerts, core.RuleByeAttack)
	if !ok {
		t.Fatalf("no bye-attack detected after shard restart: %v", alertKeys(alerts))
	}
	if bye.Session != id2 {
		t.Errorf("bye-attack session = %q, want post-restart call %q", bye.Session, id2)
	}
	if _, ok := findAlert(alerts, core.RuleShardFailure); !ok {
		t.Errorf("restarted shard raised no shard-failure alert: %v", alertKeys(alerts))
	}
	if stats.ShardsFailed != 1 || stats.ShardsRestarted != 1 {
		t.Errorf("ShardsFailed=%d ShardsRestarted=%d, want 1/1", stats.ShardsFailed, stats.ShardsRestarted)
	}
	h := health[0]
	if h.State != "healthy" {
		t.Errorf("restarted shard state = %q, want healthy", h.State)
	}
	if h.FramesShed == 0 {
		t.Errorf("panicking batch remainder not accounted as shed: %+v", h)
	}
	// The post-restart call is 16 frames; everything processed must cover
	// at least it plus the pre-panic frames.
	if h.FramesProcessed < uint64(len(g2.frames)) {
		t.Errorf("restarted shard processed %d frames, want at least the %d post-restart ones",
			h.FramesProcessed, len(g2.frames))
	}
}

// chaosGen builds hand-routed traffic: calls whose Call-IDs are chosen
// to land on specific shards, plus RTP spam pinned to one shard.
type chaosGen struct {
	now    time.Duration
	ipid   uint16
	frames []rec
}

func (g *chaosGen) emit(srcIP, dstIP netip.Addr, srcPort, dstPort uint16, payload []byte) {
	g.ipid++
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: macFor(srcIP), DstMAC: macFor(dstIP),
		SrcIP: srcIP, DstIP: dstIP,
		SrcPort: srcPort, DstPort: dstPort,
		IPID: g.ipid, Payload: payload,
	}, 0)
	if err != nil {
		panic(err)
	}
	for _, fr := range frames {
		g.frames = append(g.frames, rec{at: g.now, frame: fr})
		g.now += time.Millisecond
	}
}

func (g *chaosGen) rtp(srcIP, dstIP netip.Addr, srcPort, dstPort uint16, seq uint16, ssrc uint32) {
	p := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: seq, Timestamp: uint32(seq) * 160, SSRC: ssrc},
		Payload: []byte("0123456789abcdef0123"),
	}
	buf, err := p.Marshal()
	if err != nil {
		panic(err)
	}
	g.emit(srcIP, dstIP, srcPort, dstPort, buf)
}

func chAddr(a sip.Address, tag string) sip.Address {
	if tag != "" {
		a = a.WithTag(tag)
	}
	return a
}

// byeAttackCall appends a full established call on callID followed by a
// BYE and orphan RTP from the BYE sender — the Figure 5 detection.
func (g *chaosGen) byeAttackCall(callID string, callerIP, calleeIP netip.Addr, callerPort, calleePort uint16) {
	g.byeEndedCall(callID, callerIP, calleeIP, callerPort, calleePort, 3)
}

// byeEndedCall appends a full established call on callID ended by a BYE,
// then orphans RTP packets from the BYE sender (0 = a benign teardown).
func (g *chaosGen) byeEndedCall(callID string, callerIP, calleeIP netip.Addr, callerPort, calleePort uint16, orphans int) {
	callerMedia := netip.AddrPortFrom(callerIP, callerPort)
	calleeMedia := netip.AddrPortFrom(calleeIP, calleePort)
	caller := sip.Address{URI: sip.URI{User: "chaos-a", Host: callerIP.String()}}
	callee := sip.Address{URI: sip.URI{User: "chaos-b", Host: calleeIP.String()}}
	via := func(ip netip.Addr) sip.Via {
		return sip.Via{Transport: "UDP", SentBy: ip.String(), Params: map[string]string{"branch": "z9hG4bK" + callID}}
	}
	inv := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: callee.URI.String(),
		From:       chAddr(caller, "tA"),
		To:         callee,
		CallID:     callID,
		CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:        via(callerIP),
		Body:       sdp.NewAudioSession("a", callerMedia.Addr(), callerMedia.Port()).Marshal(),
		BodyType:   "application/sdp",
	})
	g.emit(callerIP, calleeIP, sip.DefaultPort, sip.DefaultPort, inv.Marshal())
	ok := sip.NewResponse(inv, sip.StatusOK, "tB")
	ok.Headers.Add(sip.HdrContentType, "application/sdp")
	ok.Body = sdp.NewAudioSession("b", calleeMedia.Addr(), calleeMedia.Port()).Marshal()
	g.emit(calleeIP, callerIP, sip.DefaultPort, sip.DefaultPort, ok.Marshal())
	for i := 0; i < 4; i++ {
		g.rtp(callerIP, calleeIP, callerPort, calleePort, uint16(100+i), 0xA0A0)
		g.rtp(calleeIP, callerIP, calleePort, callerPort, uint16(200+i), 0xB0B0)
	}
	bye := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodBye,
		RequestURI: callee.URI.String(),
		From:       chAddr(caller, "tA"),
		To:         chAddr(callee, "tB"),
		CallID:     callID,
		CSeq:       sip.CSeq{Seq: 2, Method: sip.MethodBye},
		Via:        via(callerIP),
	})
	g.emit(callerIP, calleeIP, sip.DefaultPort, sip.DefaultPort, bye.Marshal())
	for i := 0; i < orphans; i++ {
		g.rtp(callerIP, calleeIP, callerPort, calleePort, uint16(110+i), 0xA0A0) // orphan media after BYE
	}
}

// callIDForShard finds a Call-ID that routes to the wanted shard.
func callIDForShard(want, shards int) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("chaos-call-%d@test", i)
		if core.ShardOf(id, shards) == want {
			return id
		}
	}
}

// TestStallWatchdogQuarantine stalls one shard mid-stream with load
// shedding and the watchdog enabled: the router must never block past
// ShedAfter, the watchdog must quarantine the stalled shard and say so,
// the bye-attack on the other shard must still fire, and once the stall
// clears every frame must be accounted processed or shed.
func TestStallWatchdogQuarantine(t *testing.T) {
	const shards = 2
	spamDst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 10000)
	spamShard := core.ShardOf("rtp:"+spamDst.String(), shards)
	goodShard := 1 - spamShard
	callID := callIDForShard(goodShard, shards)

	g := &chaosGen{}
	g.byeAttackCall(callID,
		netip.AddrFrom4([4]byte{10, 0, 0, 3}), netip.AddrFrom4([4]byte{10, 0, 0, 4}),
		10004, 10006)
	spamSrc := netip.AddrFrom4([4]byte{10, 0, 0, 66})
	// Enough spam that feeding outlasts the watchdog: once the stalled
	// shard's queue is full every batch waits out ShedAfter, and Close
	// stops the watchdog, so the feed (~85 shed batches x 2ms) must run
	// well past StallTimeout plus one watchdog tick (75ms + 19ms). At
	// 3000 frames it ran ~76ms and the alert was lost about 1 run in 12.
	const spamFrames = 6000
	for i := 0; i < spamFrames; i++ {
		g.rtp(spamSrc, spamDst.Addr(), 40000, spamDst.Port(), uint16(i), 0x5BAD)
	}

	// The stall must comfortably exceed StallTimeout, and StallTimeout
	// must comfortably exceed race-detector scheduling jitter so a slow
	// but healthy worker is never misread as stuck.
	inj := new(chaoscore.ScriptedInjector).StallAt(spamShard, 40, 400*time.Millisecond)
	cfg := core.Config{Limits: core.Limits{
		ShedAfter:    2 * time.Millisecond,
		StallTimeout: 75 * time.Millisecond,
	}}
	eng := core.NewShardedEngine(cfg, shards, core.WithFaultInjector(inj))

	start := time.Now()
	for _, r := range g.frames {
		eng.HandleFrame(r.at, r.frame)
	}
	feedTime := time.Since(start)
	// The router's worst case is one ShedAfter wait per batch — far from
	// the 300ms the shard itself is stuck for. Generous bound to stay
	// robust on slow CI, while still catching an unbounded block.
	if feedTime > 2*time.Second {
		t.Errorf("feeding took %v; router appears to have blocked on the stalled shard", feedTime)
	}

	alerts := eng.Alerts() // Flush gives up on quarantined-stalled shards
	if _, ok := findAlert(alerts, core.RuleByeAttack); !ok {
		t.Errorf("bye-attack on healthy shard %d lost during shard %d stall: %v",
			goodShard, spamShard, alertKeys(alerts))
	}
	eng.Close()
	health := settleHealth(t, eng)

	alerts = eng.Alerts()
	sf, ok := findAlert(alerts, core.RuleShardFailure)
	if !ok {
		t.Fatalf("watchdog raised no shard-failure alert: %v", alertKeys(alerts))
	}
	if want := fmt.Sprintf("shard:%d", spamShard); sf.Session != want {
		t.Errorf("shard-failure session = %q, want %q", sf.Session, want)
	}
	if _, ok := findAlert(alerts, core.RuleIDSOverload); !ok {
		t.Errorf("frames were shed but no ids-overload alert: %v", alertKeys(alerts))
	}
	if health[spamShard].State != "stalled" {
		t.Errorf("stalled shard state = %q, want stalled", health[spamShard].State)
	}
	if health[spamShard].FramesShed == 0 {
		t.Errorf("stalled shard shed nothing: %+v", health[spamShard])
	}
	stats := eng.Stats()
	if stats.ShardsFailed == 0 {
		t.Errorf("ShardsFailed = 0 after watchdog quarantine")
	}
	var routed, settled uint64
	for _, h := range health {
		routed += h.FramesRouted
		settled += h.FramesProcessed + h.FramesShed
	}
	if routed != settled {
		t.Errorf("accounting leak: %d routed, %d processed+shed", routed, settled)
	}
	if uint64(stats.FramesShed) != health[0].FramesShed+health[1].FramesShed {
		t.Errorf("Stats.FramesShed=%d disagrees with ShardHealth %+v", stats.FramesShed, health)
	}
}

// TestFramesAfterClose pins the fix for frames arriving after Close:
// they must be dropped AND counted, not silently ignored.
func TestFramesAfterClose(t *testing.T) {
	frames := scenarioFrames(t, "benign", 7)
	eng := core.NewShardedEngine(core.Config{}, 2)
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	eng.Close()
	before := eng.Stats()
	if before.FramesAfterClose != 0 {
		t.Fatalf("FramesAfterClose = %d before any late frame", before.FramesAfterClose)
	}
	for i, r := range frames {
		if i == 3 {
			break
		}
		eng.HandleFrame(r.at, r.frame)
	}
	after := eng.Stats()
	if after.FramesAfterClose != 3 {
		t.Errorf("FramesAfterClose = %d, want 3", after.FramesAfterClose)
	}
	if after.Frames != before.Frames {
		t.Errorf("late frames leaked into Frames: %d -> %d", before.Frames, after.Frames)
	}
	// Close is idempotent and late frames keep counting.
	eng.Close()
	eng.HandleFrame(0, frames[0].frame)
	if got := eng.Stats().FramesAfterClose; got != 4 {
		t.Errorf("FramesAfterClose = %d after repeat Close, want 4", got)
	}
}

// TestShardedDiffCorruptedFrames runs a scenario through the corrupting
// tap: random byte flips must degrade into parse errors and raw
// footprints — identically on both engines — never into a crash.
func TestShardedDiffCorruptedFrames(t *testing.T) {
	for _, name := range []string{"bye", "hijack", "fragflood"} {
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
		})
	}
}
