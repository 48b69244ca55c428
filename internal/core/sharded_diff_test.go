package core_test

// Differential harness: ShardedEngine must be alert- and event-equivalent
// to the serial Engine on every scenario the repo knows, plus a large
// corpus of seeded random interleavings that mix concurrent calls, media
// port reuse, attacks, fragmentation, and junk traffic.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/core"
	"scidive/internal/experiments"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

var diffShardCounts = []int{1, 2, 8}

type rec struct {
	at    time.Duration
	frame []byte
}

// scenarioFrames records the hub traffic of one named scenario.
func scenarioFrames(t *testing.T, name string, seed int64) []rec {
	t.Helper()
	var frames []rec
	tap := func(at time.Duration, frame []byte) {
		frames = append(frames, rec{at: at, frame: append([]byte(nil), frame...)})
	}
	if _, err := experiments.RunScenario(name, seed, tap); err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	if len(frames) == 0 {
		t.Fatalf("scenario %s captured no frames", name)
	}
	return frames
}

func runSerial(frames []rec) ([]core.Alert, []core.Event, core.EngineStats) {
	return runSerialCfg(frames, core.Config{})
}

func runSerialCfg(frames []rec, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats) {
	alerts, events, stats, _ := runSerialDistill(frames, cfg)
	return alerts, events, stats
}

// runSerialDistill is runSerialCfg plus the distiller's counters.
func runSerialDistill(frames []rec, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats, core.DistillerStats) {
	eng := core.NewEngine(cfg, core.WithEventLog())
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	mustMediaIndex(eng.CheckMediaIndex())
	return eng.Alerts(), eng.Events(), eng.Stats(), eng.DistillerStats()
}

// mustMediaIndex fails the run when an engine's reverse media index has
// drifted from its session table. Every differential goes through the run
// helpers here, so each sweep ends by checking the serial engine, or the
// router directory and every shard.
func mustMediaIndex(err error) {
	if err != nil {
		panic(fmt.Sprintf("media index invariant: %v", err))
	}
}

func runSharded(frames []rec, shards int) ([]core.Alert, []core.Event, core.EngineStats) {
	return runShardedCfg(frames, shards, core.Config{})
}

func runShardedCfg(frames []rec, shards int, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats) {
	alerts, events, stats, _ := runShardedDistill(frames, shards, cfg)
	return alerts, events, stats
}

// runShardedDistill is runShardedCfg plus the shards' summed distiller
// counters.
func runShardedDistill(frames []rec, shards int, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats, core.DistillerStats) {
	eng := core.NewShardedEngine(cfg, shards, core.WithEventLog())
	defer eng.Close()
	for _, r := range frames {
		eng.HandleFrame(r.at, r.frame)
	}
	mustMediaIndex(eng.CheckMediaIndex()) // flushes
	return eng.Alerts(), eng.Events(), eng.Stats(), eng.DistillerStats()
}

// diffClassification holds the sharded engine's classification counters
// to the serial distiller's, field by field. A shard does not decode: it
// derives them from the result the router (or a lane) shipped, so a view
// lost, duplicated or re-labelled in the handoff shows up here even when
// it raises no event. Fragments is the exception the router's position
// forces: a shard hears of a fragment only when its datagram completes
// and ships, so the sharded count is the serial one minus the fragments
// of groups that never did — bounded by it, and tied to the shipped
// datagrams by the ledger, which must balance on its own.
func diffClassification(t *testing.T, label string, got, want core.DistillerStats) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"SIP", got.SIP, want.SIP}, {"RTP", got.RTP, want.RTP}, {"RTCP", got.RTCP, want.RTCP},
		{"Acct", got.Acct, want.Acct}, {"Raw", got.Raw, want.Raw}, {"Mismatched", got.Mismatched, want.Mismatched},
		{"StreamMsgs", got.StreamMsgs, want.StreamMsgs},
	} {
		if f.got != f.want {
			t.Errorf("%s: distiller %s = %d, serial %d\nsharded %+v\nserial  %+v", label, f.name, f.got, f.want, got, want)
		}
	}
	if got.Fragments > want.Fragments {
		t.Errorf("%s: distiller Fragments = %d, more than the serial engine's %d", label, got.Fragments, want.Fragments)
	}
	engineLedger(t, label, got)
}

// alertKey is the comparable identity of an alert, including how many
// times it fired and how many events witnessed it.
func alertKey(a core.Alert) string {
	return fmt.Sprintf("%v|%s|%v|%s|%s|n=%d|ev=%d", a.At, a.Rule, a.Severity, a.Session, a.Detail, a.Count, len(a.Events))
}

func diffRuns(t *testing.T, label string, frames []rec) {
	t.Helper()
	diffRunsCfg(t, label, frames, core.Config{})
}

// diffRunsCfg is diffRuns with a shared engine configuration. State
// budgets (MaxSessions, MaxFragGroups, ...) are designed to evict
// deterministically at identical stream positions in both engines and may
// be set here; the per-shard retention caps (MaxRetainedAlerts/Events)
// are intentionally not serial-equivalent and must stay zero.
func diffRunsCfg(t *testing.T, label string, frames []rec, cfg core.Config) {
	t.Helper()
	wantAlerts, wantEvents, wantStats, wantDistill := runSerialDistill(frames, cfg)
	for _, shards := range diffShardCounts {
		gotAlerts, gotEvents, gotStats, gotDistill := runShardedDistill(frames, shards, cfg)
		diffClassification(t, fmt.Sprintf("%s shards=%d", label, shards), gotDistill, wantDistill)
		if len(gotEvents) != len(wantEvents) {
			t.Errorf("%s shards=%d: %d events, serial has %d", label, shards, len(gotEvents), len(wantEvents))
		} else {
			for i := range wantEvents {
				if gotEvents[i] != wantEvents[i] {
					t.Errorf("%s shards=%d: event %d = %+v, want %+v", label, shards, i, gotEvents[i], wantEvents[i])
					break
				}
			}
		}
		if len(gotAlerts) != len(wantAlerts) {
			t.Errorf("%s shards=%d: %d alerts, serial has %d\n got: %v\nwant: %v",
				label, shards, len(gotAlerts), len(wantAlerts), alertKeys(gotAlerts), alertKeys(wantAlerts))
		} else {
			for i := range wantAlerts {
				if alertKey(gotAlerts[i]) != alertKey(wantAlerts[i]) {
					t.Errorf("%s shards=%d: alert %d = %s, want %s", label, shards, i, alertKey(gotAlerts[i]), alertKey(wantAlerts[i]))
					break
				}
			}
		}
		if gotStats != wantStats {
			t.Errorf("%s shards=%d: stats %+v, serial %+v", label, shards, gotStats, wantStats)
		}
	}
}

func alertKeys(alerts []core.Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = alertKey(a)
	}
	return out
}

// TestShardedDiffScenarios replays every scenario in internal/scenario
// through both engines at 1, 2 and 8 shards.
func TestShardedDiffScenarios(t *testing.T) {
	for _, name := range experiments.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffRuns(t, name, scenarioFrames(t, name, 7))
		})
	}
}

// TestShardedDiffScenariosReseeded replays the scenarios under different
// simulation seeds (different timings and IDs).
func TestShardedDiffScenariosReseeded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: primary scenario diff covers this")
	}
	for _, seed := range []int64{1, 99, 4242} {
		for _, name := range experiments.ScenarioNames() {
			name, seed := name, seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				diffRuns(t, name, scenarioFrames(t, name, seed))
			})
		}
	}
}

// TestShardedDiffRandomInterleavings drives both engines with seeded
// random workloads: overlapping calls that reuse media ports, BYE/
// re-INVITE attacks, IM spoofing, floods, junk, and IP fragmentation.
func TestShardedDiffRandomInterleavings(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 60
	}
	workers := 8
	type job struct {
		seed   int64
		frames []rec
	}
	jobs := make(chan int64, seeds)
	for s := 0; s < seeds; s++ {
		jobs <- int64(s)
	}
	close(jobs)
	_ = job{}
	for w := 0; w < workers; w++ {
		t.Run(fmt.Sprintf("worker%d", w), func(t *testing.T) {
			t.Parallel()
			for seed := range jobs {
				frames := synthFrames(seed)
				diffRuns(t, fmt.Sprintf("seed %d", seed), frames)
				if t.Failed() {
					return
				}
			}
		})
	}
}

// --- synthetic interleaved workload ---

type synthCall struct {
	id          string
	callerIP    netip.Addr
	calleeIP    netip.Addr
	callerAOR   string
	calleeAOR   string
	callerTag   string
	calleeTag   string
	callerMedia netip.AddrPort
	calleeMedia netip.AddrPort
	cseq        uint32
	seqA, seqB  uint16
	established bool
	byed        bool
}

type synthGen struct {
	rng    *rand.Rand
	now    time.Duration
	frames []rec
	ipid   uint16
	calls  []*synthCall
	nCalls int
	nIM    int
}

func synthFrames(seed int64) []rec {
	g := &synthGen{rng: rand.New(rand.NewSource(seed)), now: time.Duration(seed%7) * time.Millisecond}
	steps := 30 + g.rng.Intn(50)
	for i := 0; i < steps; i++ {
		g.now += time.Duration(g.rng.Intn(80)) * time.Millisecond
		switch p := g.rng.Intn(100); {
		case p < 22:
			g.startCall()
		case p < 50:
			g.rtpBurst()
		case p < 62:
			g.endCall()
		case p < 68:
			g.reinvite()
		case p < 74:
			g.instantMessage()
		case p < 80:
			g.registerish()
		case p < 86:
			g.rtcpTraffic()
		case p < 91:
			g.garbage()
		case p < 94:
			g.accounting()
		case p < 97:
			g.billingFraud()
		default:
			g.junk()
		}
	}
	return g.frames
}

func (g *synthGen) ip(n int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + n%8)})
}

func (g *synthGen) tick() { g.now += time.Duration(1+g.rng.Intn(4)) * time.Millisecond }

// mediaPort draws from a small even-port pool so concurrent calls collide
// on ports, stressing flow attribution.
func (g *synthGen) mediaPort() uint16 { return uint16(10000 + 2*g.rng.Intn(6)) }

func (g *synthGen) emit(srcIP, dstIP netip.Addr, srcPort, dstPort uint16, payload []byte) {
	g.ipid++
	mtu := 0
	if len(payload) > 180 && g.rng.Intn(3) == 0 {
		mtu = 256 // force IP fragmentation
	}
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: macFor(srcIP), DstMAC: macFor(dstIP),
		SrcIP: srcIP, DstIP: dstIP,
		SrcPort: srcPort, DstPort: dstPort,
		IPID: g.ipid, Payload: payload,
	}, mtu)
	if err != nil {
		panic(err)
	}
	if len(frames) > 1 && g.rng.Intn(2) == 0 {
		g.rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	}
	for _, fr := range frames {
		g.frames = append(g.frames, rec{at: g.now, frame: fr})
		g.tick()
	}
}

func macFor(ip netip.Addr) packet.MAC {
	b := ip.As4()
	return packet.MAC{2, 0, 0, 0, 0, b[3]}
}

func (g *synthGen) emitSIP(srcIP, dstIP netip.Addr, m *sip.Message) {
	g.emit(srcIP, dstIP, sip.DefaultPort, sip.DefaultPort, m.Marshal())
}

func (g *synthGen) addr(user string, ip netip.Addr, tag string) sip.Address {
	a := sip.Address{URI: sip.URI{User: user, Host: ip.String()}}
	if tag != "" {
		a = a.WithTag(tag)
	}
	return a
}

func (g *synthGen) via(ip netip.Addr) sip.Via {
	return sip.Via{Transport: "UDP", SentBy: ip.String(), Params: map[string]string{"branch": fmt.Sprintf("z9hG4bK%08x", g.rng.Uint32())}}
}

func (g *synthGen) startCall() {
	g.nCalls++
	caller, callee := g.rng.Intn(8), g.rng.Intn(8)
	c := &synthCall{
		id:        fmt.Sprintf("call-%d-%08x@pbx", g.nCalls, g.rng.Uint32()),
		callerIP:  g.ip(caller),
		calleeIP:  g.ip(callee),
		callerAOR: fmt.Sprintf("user%d@pbx", caller),
		calleeAOR: fmt.Sprintf("user%d@pbx", callee),
		callerTag: fmt.Sprintf("t%08x", g.rng.Uint32()),
		cseq:      1,
		seqA:      uint16(g.rng.Intn(1 << 16)),
		seqB:      uint16(g.rng.Intn(1 << 16)),
	}
	c.callerMedia = netip.AddrPortFrom(c.callerIP, g.mediaPort())
	body := sdp.NewAudioSession("caller", c.callerMedia.Addr(), c.callerMedia.Port()).Marshal()
	inv := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: "sip:" + c.calleeAOR,
		From:       g.addr("caller", c.callerIP, c.callerTag),
		To:         g.addr("callee", c.calleeIP, ""),
		CallID:     c.id,
		CSeq:       sip.CSeq{Seq: c.cseq, Method: sip.MethodInvite},
		Via:        g.via(c.callerIP),
		Body:       body,
		BodyType:   "application/sdp",
	})
	// Occasionally malform the setup (duplicate CSeq header) — the
	// billing-fraud rule's first condition.
	if g.rng.Intn(5) == 0 {
		inv.Headers.Add(sip.HdrCSeq, sip.CSeq{Seq: c.cseq, Method: sip.MethodInvite}.String())
	}
	g.emitSIP(c.callerIP, c.calleeIP, inv)
	if g.rng.Intn(4) == 0 {
		// Relayed duplicate sighting from another hop.
		g.emitSIP(g.ip(g.rng.Intn(8)), c.calleeIP, inv)
	}
	g.calls = append(g.calls, c)
	if g.rng.Intn(5) == 0 {
		return // half-open: no answer
	}
	g.tick()
	c.calleeTag = fmt.Sprintf("t%08x", g.rng.Uint32())
	c.calleeMedia = netip.AddrPortFrom(c.calleeIP, g.mediaPort())
	ok := sip.NewResponse(inv, sip.StatusOK, c.calleeTag)
	ok.Headers.Add(sip.HdrContentType, "application/sdp")
	ok.Body = sdp.NewAudioSession("callee", c.calleeMedia.Addr(), c.calleeMedia.Port()).Marshal()
	g.emitSIP(c.calleeIP, c.callerIP, ok)
	c.established = true
}

func (g *synthGen) pickCall() *synthCall {
	if len(g.calls) == 0 {
		return nil
	}
	return g.calls[g.rng.Intn(len(g.calls))]
}

func (g *synthGen) rtpPacket(seq uint16, ssrc uint32) []byte {
	p := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: seq, Timestamp: uint32(g.now / time.Millisecond), SSRC: ssrc},
		Payload: []byte("0123456789abcdef0123"),
	}
	buf, err := p.Marshal()
	if err != nil {
		panic(err)
	}
	return buf
}

func (g *synthGen) rtpBurst() {
	c := g.pickCall()
	if c == nil || !c.established {
		return
	}
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		srcIP := c.callerIP
		if g.rng.Intn(10) == 0 {
			srcIP = g.ip(g.rng.Intn(8)) // wrong-source media
		}
		jump := uint16(1 + g.rng.Intn(3))
		if g.rng.Intn(12) == 0 {
			jump = 500 // discontinuity
		}
		if g.rng.Intn(2) == 0 {
			c.seqA += jump
			g.emit(srcIP, c.calleeMedia.Addr(), c.callerMedia.Port(), c.calleeMedia.Port(), g.rtpPacket(c.seqA, 0xAAAA0000))
		} else {
			c.seqB += jump
			g.emit(c.calleeIP, c.callerMedia.Addr(), c.calleeMedia.Port(), c.callerMedia.Port(), g.rtpPacket(c.seqB, 0xBBBB0000))
		}
		g.tick()
	}
}

func (g *synthGen) endCall() {
	c := g.pickCall()
	if c == nil || c.byed {
		return
	}
	fromCaller := g.rng.Intn(2) == 0
	from, to := g.addr("caller", c.callerIP, c.callerTag), g.addr("callee", c.calleeIP, c.calleeTag)
	srcIP := c.callerIP
	if !fromCaller {
		from, to = to, from
		srcIP = c.calleeIP
	}
	c.cseq++
	bye := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodBye,
		RequestURI: "sip:" + c.calleeAOR,
		From:       from, To: to,
		CallID: c.id,
		CSeq:   sip.CSeq{Seq: c.cseq, Method: sip.MethodBye},
		Via:    g.via(srcIP),
	})
	g.emitSIP(srcIP, c.calleeIP, bye)
	c.byed = true
	if g.rng.Intn(3) == 0 {
		g.tick()
		g.emitSIP(srcIP, c.calleeIP, bye) // duplicate BYE sighting
	}
	// Orphan media after BYE: the Figure 5 attack.
	if c.established && g.rng.Intn(2) == 0 {
		byeMedia := c.calleeMedia
		dst := c.callerMedia
		if fromCaller {
			byeMedia, dst = c.callerMedia, c.calleeMedia
		}
		for i := 0; i < 1+g.rng.Intn(3); i++ {
			g.tick()
			c.seqA++
			g.emit(byeMedia.Addr(), dst.Addr(), byeMedia.Port(), dst.Port(), g.rtpPacket(c.seqA, 0xCCCC0000))
		}
	}
}

func (g *synthGen) reinvite() {
	c := g.pickCall()
	if c == nil || !c.established || c.byed {
		return
	}
	c.cseq++
	newMedia := netip.AddrPortFrom(g.ip(g.rng.Intn(8)), g.mediaPort())
	oldMedia := c.callerMedia
	re := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: "sip:" + c.calleeAOR,
		From:       g.addr("caller", c.callerIP, c.callerTag),
		To:         g.addr("callee", c.calleeIP, c.calleeTag),
		CallID:     c.id,
		CSeq:       sip.CSeq{Seq: c.cseq, Method: sip.MethodInvite},
		Via:        g.via(c.callerIP),
		Body:       sdp.NewAudioSession("caller", newMedia.Addr(), newMedia.Port()).Marshal(),
		BodyType:   "application/sdp",
	})
	g.emitSIP(c.callerIP, c.calleeIP, re)
	c.callerMedia = newMedia
	// Media still flowing from the abandoned address: the Figure 7 attack.
	if g.rng.Intn(2) == 0 {
		g.now += 300 * time.Millisecond // beyond the reinvite grace
		for i := 0; i < 1+g.rng.Intn(3); i++ {
			c.seqA++
			g.emit(oldMedia.Addr(), c.calleeMedia.Addr(), oldMedia.Port(), c.calleeMedia.Port(), g.rtpPacket(c.seqA, 0xDDDD0000))
			g.tick()
		}
	}
}

func (g *synthGen) instantMessage() {
	g.nIM++
	sender := g.rng.Intn(4)
	aor := fmt.Sprintf("user%d@pbx", sender)
	srcIP := g.ip(sender)
	if g.rng.Intn(3) == 0 {
		srcIP = g.ip(g.rng.Intn(8)) // spoofed sender source
	}
	dstIP := g.ip(g.rng.Intn(3))
	msg := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodMessage,
		RequestURI: "sip:" + aor,
		From:       g.addr(fmt.Sprintf("user%d", sender), g.ip(sender), fmt.Sprintf("t%08x", g.rng.Uint32())),
		To:         g.addr("peer", dstIP, ""),
		CallID:     fmt.Sprintf("im-%d-%08x@pbx", g.nIM, g.rng.Uint32()),
		CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodMessage},
		Via:        g.via(srcIP),
		Body:       []byte("hello there"),
		BodyType:   "text/plain",
	})
	// The From AOR must be stable per sender for the rule to correlate:
	// rebuild From with the sender's canonical identity.
	msg.Headers.Set(sip.HdrFrom, g.addr(fmt.Sprintf("user%d", sender), netip.AddrFrom4([4]byte{10, 0, 0, byte(100)}), "imtag").String())
	g.emitSIP(srcIP, dstIP, msg)
}

func (g *synthGen) registerish() {
	user := g.rng.Intn(4)
	aor := fmt.Sprintf("user%d@pbx", user)
	_ = aor
	ip := g.ip(user)
	callID := fmt.Sprintf("reg-%08x@pbx", g.rng.Uint32())
	contact := g.addr(fmt.Sprintf("user%d", user), ip, "")
	mk := func(seq uint32, withAuth bool) *sip.Message {
		m := sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodRegister,
			RequestURI: "sip:pbx",
			From:       g.addr(fmt.Sprintf("user%d", user), ip, "rtag"),
			To:         g.addr(fmt.Sprintf("user%d", user), ip, ""),
			CallID:     callID,
			CSeq:       sip.CSeq{Seq: seq, Method: sip.MethodRegister},
			Via:        g.via(ip),
			Contact:    &contact,
		})
		if withAuth {
			m.Headers.Add(sip.HdrAuthorization, sip.Credentials{
				Username: fmt.Sprintf("user%d", user), Realm: "pbx", Nonce: "n1",
				URI: "sip:pbx", Response: fmt.Sprintf("%08x", g.rng.Uint32()),
			}.String())
		}
		return m
	}
	switch g.rng.Intn(3) {
	case 0: // clean registration
		m := mk(1, false)
		g.emitSIP(ip, g.ip(0), m)
		g.tick()
		g.emitSIP(g.ip(0), ip, sip.NewResponse(m, sip.StatusOK, "srvtag"))
	case 1: // auth flood: challenges until the DoS event fires
		for i := 0; i < 6; i++ {
			m := mk(uint32(i+1), false)
			g.emitSIP(ip, g.ip(0), m)
			g.tick()
			g.emitSIP(g.ip(0), ip, sip.NewResponse(m, sip.StatusUnauthorized, "srvtag"))
			g.tick()
		}
	default: // password guessing: distinct digest responses
		for i := 0; i < 4; i++ {
			m := mk(uint32(i+1), true)
			g.emitSIP(ip, g.ip(0), m)
			g.tick()
		}
	}
}

func (g *synthGen) rtcpTraffic() {
	c := g.pickCall()
	if c == nil || !c.established {
		return
	}
	var pkts []rtp.RTCPPacket
	pkts = append(pkts, &rtp.SenderReport{SSRC: 0xAAAA0000, PacketCount: 10, OctetCount: 1600})
	if g.rng.Intn(2) == 0 {
		pkts = append(pkts, &rtp.Bye{SSRCs: []uint32{0xAAAA0000}, Reason: "done"})
	}
	buf, err := rtp.MarshalCompound(pkts)
	if err != nil {
		panic(err)
	}
	g.emit(c.callerIP, c.calleeMedia.Addr(), c.callerMedia.Port()+1, c.calleeMedia.Port()+1, buf)
	// Follow-on media so the packet-driven spoofed-BYE check evaluates.
	if g.rng.Intn(2) == 0 {
		g.now += 300 * time.Millisecond
		c.seqB++
		g.emit(c.calleeIP, c.callerMedia.Addr(), c.calleeMedia.Port(), c.callerMedia.Port(), g.rtpPacket(c.seqB, 0xBBBB0000))
	}
}

func (g *synthGen) garbage() {
	dst := netip.AddrPortFrom(g.ip(g.rng.Intn(8)), uint16(10000+2*g.rng.Intn(6)))
	if c := g.pickCall(); c != nil && c.established && g.rng.Intn(2) == 0 {
		dst = c.calleeMedia
	}
	junk := make([]byte, 4+g.rng.Intn(40))
	g.rng.Read(junk)
	junk[0] = 0x00 // wrong RTP version: guaranteed undecodable
	g.emit(g.ip(g.rng.Intn(8)), dst.Addr(), 40000, dst.Port(), junk)
}

func (g *synthGen) accounting() {
	kind := accounting.TxnStart
	if g.rng.Intn(3) == 0 {
		kind = accounting.TxnStop
	}
	callID := fmt.Sprintf("ghost-%08x@pbx", g.rng.Uint32())
	from := fmt.Sprintf("user%d@pbx", g.rng.Intn(4))
	fromIP := g.ip(g.rng.Intn(8))
	if c := g.pickCall(); c != nil && g.rng.Intn(2) == 0 {
		callID, from, fromIP = c.id, c.callerAOR, c.callerIP
	}
	txn := accounting.Txn{Kind: kind, CallID: callID, From: from, To: "user9@pbx", FromIP: fromIP}
	g.emit(fromIP, g.ip(0), 30000, accounting.DefaultPort, txn.Marshal())
}

// billingFraud builds the full Section 3.2 chain on one Call-ID: a user
// registers from one address, then a malformed INVITE negotiates media
// elsewhere and an accounting START arrives from a third address.
func (g *synthGen) billingFraud() {
	n := g.rng.Intn(4)
	fraudster := sip.Address{URI: sip.URI{User: fmt.Sprintf("fraud%d", n), Host: "pbx"}}
	aor := fraudster.URI.AOR()
	homeIP, awayIP := g.ip(n), g.ip((n+3)%8)
	proxy := g.ip(0)

	regContact := sip.Address{URI: sip.URI{User: fraudster.URI.User, Host: homeIP.String()}}
	reg := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodRegister,
		RequestURI: "sip:pbx",
		From:       fraudster.WithTag("frtag"),
		To:         fraudster,
		CallID:     fmt.Sprintf("freg-%08x@pbx", g.rng.Uint32()),
		CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodRegister},
		Via:        g.via(homeIP),
		Contact:    &regContact,
	})
	g.emitSIP(homeIP, proxy, reg)
	g.tick()
	regOK := sip.NewResponse(reg, sip.StatusOK, "srvtag")
	regOK.Headers.Add(sip.HdrContact, regContact.String())
	g.emitSIP(proxy, homeIP, regOK)
	g.tick()

	callID := fmt.Sprintf("fraudcall-%08x@pbx", g.rng.Uint32())
	media := netip.AddrPortFrom(awayIP, g.mediaPort())
	inv := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: "sip:victim@pbx",
		From:       fraudster.WithTag("fctag"),
		To:         sip.Address{URI: sip.URI{User: "victim", Host: "pbx"}},
		CallID:     callID,
		CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:        g.via(awayIP),
		Body:       sdp.NewAudioSession("fraud", media.Addr(), media.Port()).Marshal(),
		BodyType:   "application/sdp",
	})
	inv.Headers.Add(sip.HdrCSeq, sip.CSeq{Seq: 1, Method: sip.MethodInvite}.String())
	g.emitSIP(awayIP, proxy, inv)
	g.tick()
	ok := sip.NewResponse(inv, sip.StatusOK, "vtag")
	ok.Headers.Add(sip.HdrContentType, "application/sdp")
	ok.Body = sdp.NewAudioSession("victim", proxy, g.mediaPort()).Marshal()
	g.emitSIP(proxy, awayIP, ok)
	g.tick()

	txn := accounting.Txn{Kind: accounting.TxnStart, CallID: callID, From: aor, To: "victim@pbx", FromIP: awayIP}
	g.emit(awayIP, proxy, 30000, accounting.DefaultPort, txn.Marshal())
	_ = aor
}

func (g *synthGen) junk() {
	switch g.rng.Intn(4) {
	case 0: // truncated ethernet
		b := make([]byte, g.rng.Intn(12))
		g.rng.Read(b)
		g.frames = append(g.frames, rec{at: g.now, frame: b})
	case 1: // unmonitored port
		g.emit(g.ip(1), g.ip(2), 9, 9, []byte("nothing to see"))
	case 2: // undecodable SIP on the SIP port
		g.emit(g.ip(1), g.ip(2), 5060, 5060, []byte("\x00\x01\x02 not sip\r\n"))
	default: // garbage on an RTCP (odd media) port
		junk := make([]byte, 6+g.rng.Intn(20))
		g.rng.Read(junk)
		junk[0] = 0x00
		g.emit(g.ip(3), g.ip(4), 40001, uint16(10001+2*g.rng.Intn(6)), junk)
	}
}

// TestShardedDiffFragmentFloodWithLimits replays the reassembly-
// exhaustion flood with tight state budgets: both engines must evict the
// same fragment groups (and sessions, histories, trackers) at the same
// stream positions and stay alert-, event- and stats-identical.
func TestShardedDiffFragmentFloodWithLimits(t *testing.T) {
	frames := scenarioFrames(t, "fragflood", 7)
	cfg := core.Config{Limits: core.Limits{
		MaxSessions:    32,
		MaxFragGroups:  8,
		MaxIMHistories: 4,
		MaxSeqTrackers: 8,
		MaxBindings:    4,
	}}
	diffRunsCfg(t, "fragflood+limits", frames, cfg)
	// The flood must actually exercise the fragment budget, or the test
	// proves nothing.
	_, _, stats := runSerialCfg(frames, cfg)
	if stats.FragGroupsEvicted == 0 {
		t.Fatalf("fragment flood evicted no fragment groups; stats %+v", stats)
	}
}

// TestShardedDiffFloodScenariosWithLimits replays the other flood
// scenarios under the same budgets.
func TestShardedDiffFloodScenariosWithLimits(t *testing.T) {
	cfg := core.Config{Limits: core.Limits{
		MaxSessions:    24,
		MaxFragGroups:  8,
		MaxIMHistories: 4,
		MaxSeqTrackers: 8,
	}}
	// Each flood must exhaust the budget it targets: inviteflood the
	// session directory, rtpblast the sequence trackers (spray RTP never
	// opens dialog state, so the session cap is not its pressure point).
	exercised := map[string]func(core.EngineStats) int{
		"inviteflood": func(s core.EngineStats) int { return s.SessionsCapEvicted },
		"rtpblast":    func(s core.EngineStats) int { return s.SeqTrackersEvicted },
	}
	for _, name := range []string{"inviteflood", "rtpblast"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			diffRunsCfg(t, name+"+limits", frames, cfg)
			_, _, stats := runSerialCfg(frames, cfg)
			if exercised[name](stats) == 0 {
				t.Fatalf("%s evicted nothing from its target budget; stats %+v", name, stats)
			}
		})
	}
}

// expiryFrames generates a long synthetic workload (over the engine's gc
// cadence) with periodic idle gaps, so ExpireSessions sweeps interleave
// with mid-dialog traffic: calls started before a gap expire while calls
// started after it keep exchanging SIP and RTP.
func expiryFrames(seed int64) []rec {
	g := &synthGen{rng: rand.New(rand.NewSource(seed))}
	// The sweep runs every gcEvery (4096) frames; generate comfortably
	// more so at least one sweep lands mid-workload.
	for i := 0; i < 3200; i++ {
		g.now += time.Duration(g.rng.Intn(40)) * time.Millisecond
		if i%100 == 99 {
			g.now += 5 * time.Second // idle gap: everything open goes stale
		}
		switch p := g.rng.Intn(100); {
		case p < 30:
			g.startCall()
		case p < 70:
			g.rtpBurst()
		case p < 85:
			g.endCall()
		case p < 92:
			g.reinvite()
		default:
			g.instantMessage()
		}
	}
	return g.frames
}

// TestShardedDiffExpiryInterleaved pins serial/sharded equivalence when
// the periodic session-expiry sweep interleaves with mid-dialog traffic:
// the broadcast sweep must evict shard tables at exactly the stream
// position the serial engine's sweep runs at.
func TestShardedDiffExpiryInterleaved(t *testing.T) {
	cfg := core.Config{SessionTimeout: 2 * time.Second}
	for _, seed := range []int64{3, 11} {
		frames := expiryFrames(seed)
		label := fmt.Sprintf("expiry seed %d", seed)
		diffRunsCfg(t, label, frames, cfg)
		_, _, stats := runSerialCfg(frames, cfg)
		if stats.SessionsEvicted == 0 {
			t.Fatalf("%s: no sessions expired (frames=%d); the test exercises nothing", label, len(frames))
		}
	}
}

// tcpSegments frames each payload as one in-order TCP segment of a single
// 10.0.0.1:5060 -> 10.0.0.2:5060 stream, 10 ms apart.
func tcpSegments(t testing.TB, payloads ...[]byte) []rec {
	t.Helper()
	var out []rec
	seq := uint32(1000)
	for i, payload := range payloads {
		frames, err := packet.BuildTCPFrames(packet.TCPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
			SrcPort: 5060, DstPort: 5060, Seq: seq, Flags: packet.TCPFlagACK,
			IPID: uint16(i + 1), Payload: payload,
		}, 0)
		if err != nil || len(frames) != 1 {
			t.Fatalf("segment %d: %d frames, err %v", i, len(frames), err)
		}
		out = append(out, rec{at: time.Duration(i+1) * 10 * time.Millisecond, frame: frames[0]})
		seq += uint32(len(payload))
	}
	return out
}

// streamLadderRTP is the stream-arm ladder divergence: a bare RTP packet
// on a SIP trunk (sniffed, tunnel chunk), then a keep-alive CRLF glued to
// a second RTP packet whose payload ends "\n\n" — the framer skips the
// keep-alive and frames the packet as a "SIP message", which only the
// ladder can file as RTP. A router that does not walk the ladder for
// framed messages leaves the shard to judge continuity alone, and the
// second packet raises a second rtp-new-flow.
func streamLadderRTP(t testing.TB) []rec {
	t.Helper()
	pkt := func(seq uint16, payload string) []byte {
		p := rtp.Packet{Header: rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: seq, Timestamp: 160 * uint32(seq), SSRC: 9}, Payload: []byte(payload)}
		buf, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	return tcpSegments(t, pkt(100, "media"), append([]byte("\r\n"), pkt(101, "media\n\n")...))
}

// streamLadderRTCP is the RTCP analogue: a bare receiver report, then a
// keep-alive CRLF glued to a BYE compound that tiles exactly and whose
// reason text ends "\n\n". RTCP carries no router-side verdict beyond the
// session attribution the shard can redo, so this shape never diverged;
// it is kept as a plain equivalence case.
func streamLadderRTCP(t testing.TB) []rec {
	t.Helper()
	compound := func(pkts ...rtp.RTCPPacket) []byte {
		buf, err := rtp.MarshalCompound(pkts)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	return tcpSegments(t,
		compound(&rtp.ReceiverReport{SSRC: 9}),
		append([]byte("\r\n"), compound(&rtp.Bye{SSRCs: []uint32{9}, Reason: "a\n\n"})...))
}

// TestShardedDiffStreamLadder holds serial ≡ sharded on framed stream
// messages that only the reclassification ladder can decode: the router
// must classify them with the same decode stage the shard's distiller
// runs, or its hints and the shard's verdict part ways.
func TestShardedDiffStreamLadder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []rec
	}{
		{"rtp", streamLadderRTP(t)},
		{"rtcp", streamLadderRTCP(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diffIngestRunsCfg(t, "stream-ladder-"+tc.name, tc.frames, core.Config{}, []int{1, 2}, diffShardCounts)
			// Both segments must have reached the content protocol's
			// correlator as reclassified stream messages, or the case
			// pins nothing.
			eng := core.NewEngine(core.Config{})
			for _, r := range tc.frames {
				eng.HandleFrame(r.at, r.frame)
			}
			if st := eng.DistillerStats(); st.Streamed != 2 || st.StreamMsgs != 2 || st.Mismatched != 2 {
				t.Fatalf("stream messages not reclassified: %+v", st)
			}
		})
	}
}
