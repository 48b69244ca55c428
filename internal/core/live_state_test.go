package core_test

// Memory follows what is live. Correlator state keyed by endpoint or by
// sender — RTP continuity trackers, IM source histories — ends on the
// same deterministic sweep clock that ends sessions, at the same frame
// position in the serial engine and the sharded router, so the engine's
// heap is bounded by the traffic's live window and not by its history.

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// liveTimeout is Config.SessionTimeout's default.
const liveTimeout = 10 * time.Minute

// One generation's traffic, by kind.
const (
	liveShortCalls = 100 // RTP both ways to fresh media endpoints, no BYE
	liveByeCalls   = 40  // benign BYE-ended calls
	liveUsers      = 50  // a fixed population, each REGISTERing once
	liveIMs        = 200 // MESSAGEs, each from a sender never seen before
	livePingers    = 50  // OPTIONS pingers, each under the scan threshold
	livePings      = 3   // pings per pinger
)

var liveProxy = netip.AddrFrom4([4]byte{10, 0, 0, 10})

func liveIP(a, b, c int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(a), byte(b), byte(c)})
}

// liveLead is the undecodable lead-in (it creates no state) that puts a
// session-expiry sweep halfway through every generation: each sweep finds
// the generation before idle past every clock and half of its own live,
// so, as on any busy tap, the session table never empties.
func liveLead() []rec {
	lead := make([]rec, core.GCEvery/2)
	for i := range lead {
		lead[i] = rec{frame: []byte{0xff}}
	}
	return lead
}

// liveGeneration builds generation gen (from 1): exactly one sweep
// interval of frames, starting gen × (session timeout + 1 min) into the
// capture, so the sweep inside a generation finds every session, tracker
// and IM history of the one before idle past its clock. Only the
// REGISTERs repeat across generations: a binding is a live registration,
// not history.
func liveGeneration(gen int) []rec {
	g := &chaosGen{now: time.Duration(gen) * (liveTimeout + time.Minute)}
	sipTo := func(src, dst netip.Addr, m *sip.Message) {
		g.emit(src, dst, sip.DefaultPort, sip.DefaultPort, m.Marshal())
	}
	via := func(ip netip.Addr, branch string) sip.Via {
		return sip.Via{Transport: "UDP", SentBy: ip.String(), Params: map[string]string{"branch": "z9hG4bK" + branch}}
	}
	user := func(name string, host string) sip.Address {
		return sip.Address{URI: sip.URI{User: name, Host: host}}
	}

	type leg struct {
		caller, callee netip.AddrPort
		seq            [2]uint16
	}
	calls := make([]leg, liveShortCalls)
	for c := range calls {
		l := &calls[c]
		l.caller = netip.AddrPortFrom(liveIP(1, gen, c), uint16(20000+2*c))
		l.callee = netip.AddrPortFrom(liveIP(2, gen, c), uint16(30000+2*c))
		l.seq = [2]uint16{uint16(1000 * c), uint16(1000*c + 500)}
		id := fmt.Sprintf("short-%d-%d@pbx", gen, c)
		inv := sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodInvite,
			RequestURI: "sip:callee@pbx",
			From:       user("caller", "pbx").WithTag("tA"),
			To:         user("callee", "pbx"),
			CallID:     id,
			CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
			Via:        via(l.caller.Addr(), id),
			Body:       sdp.NewAudioSession("a", l.caller.Addr(), l.caller.Port()).Marshal(),
			BodyType:   "application/sdp",
		})
		sipTo(l.caller.Addr(), l.callee.Addr(), inv)
		ok := sip.NewResponse(inv, sip.StatusOK, "tB")
		ok.Headers.Add(sip.HdrContentType, "application/sdp")
		ok.Body = sdp.NewAudioSession("b", l.callee.Addr(), l.callee.Port()).Marshal()
		sipTo(l.callee.Addr(), l.caller.Addr(), ok)
	}
	for c := 0; c < liveByeCalls; c++ {
		g.byeEndedCall(fmt.Sprintf("bye-%d-%d@pbx", gen, c), liveIP(3, gen, c), liveIP(4, gen, c), 20000, 30000, 0)
	}
	for u := 0; u < liveUsers; u++ {
		ip := liveIP(5, 0, u)
		name := fmt.Sprintf("user%d", u)
		contact := user(name, ip.String())
		id := fmt.Sprintf("reg-%d-%d@pbx", gen, u)
		reg := sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodRegister,
			RequestURI: "sip:pbx",
			From:       user(name, "pbx").WithTag("rt"),
			To:         user(name, "pbx"),
			CallID:     id,
			CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodRegister},
			Via:        via(ip, id),
			Contact:    &contact,
		})
		sipTo(ip, liveProxy, reg)
		sipTo(liveProxy, ip, sip.NewResponse(reg, sip.StatusOK, "st"))
	}
	for i := 0; i < liveIMs; i++ {
		ip := liveIP(6, gen, i)
		id := fmt.Sprintf("im-%d-%d@pbx", gen, i)
		msg := sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodMessage,
			RequestURI: "sip:peer@pbx",
			From:       user(fmt.Sprintf("im%d", gen*liveIMs+i), "pbx").WithTag("it"),
			To:         user("peer", "pbx"),
			CallID:     id,
			CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodMessage},
			Via:        via(ip, id),
			Body:       []byte("hello"),
			BodyType:   "text/plain",
		})
		sipTo(ip, liveProxy, msg)
		sipTo(liveProxy, ip, sip.NewResponse(msg, sip.StatusOK, "mt"))
	}
	for p := 0; p < livePingers; p++ {
		ip := liveIP(7, 0, p)
		for k := 0; k < livePings; k++ {
			id := fmt.Sprintf("ping-%d-%d-%d@pbx", gen, p, k)
			ping := sip.NewRequest(sip.RequestSpec{
				Method:     sip.MethodOptions,
				RequestURI: "sip:pbx",
				From:       user("monitor", ip.String()).WithTag("pt"),
				To:         user("pbx", "pbx"),
				CallID:     id,
				CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodOptions},
				Via:        via(ip, id),
			})
			sipTo(ip, liveProxy, ping)
			sipTo(liveProxy, ip, sip.NewResponse(ping, sip.StatusOK, "pt"))
		}
	}
	// Media on the short calls, both ways, fills the generation.
	for i := 0; len(g.frames) < core.GCEvery; i++ {
		l, way := &calls[(i/2)%len(calls)], i%2
		src, dst := l.caller, l.callee
		if way == 1 {
			src, dst = dst, src
		}
		l.seq[way]++
		g.rtp(src.Addr(), dst.Addr(), src.Port(), dst.Port(), l.seq[way], 0xC0DE0000+uint32(way))
	}
	if len(g.frames) != core.GCEvery {
		panic(fmt.Sprintf("generation holds %d frames, want %d", len(g.frames), core.GCEvery))
	}
	return g.frames
}

// ownedEngine is what the lifetime tests drive: the serial engine or the
// sharded one.
type ownedEngine interface {
	HandleFrame(time.Duration, []byte)
	Owners() []core.Owner
}

// settledHeap collects twice and reads the live heap.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// liveHeap replays gens generations into a fresh engine and returns the
// heap the engine holds at the end (HeapAlloc with it, less HeapAlloc
// before it was built; each after two GCs) and its table sizes. One
// generation is built at a time, so the test holds no capture.
func liveHeap(mk func() (ownedEngine, func()), gens int) (uint64, []core.Owner) {
	before := settledHeap()
	eng, done := mk()
	defer done()
	for _, r := range liveLead() {
		eng.HandleFrame(r.at, r.frame)
	}
	for gen := 1; gen <= gens; gen++ {
		for _, r := range liveGeneration(gen) {
			eng.HandleFrame(r.at, r.frame)
		}
	}
	owners := eng.Owners() // flushes a sharded engine
	after := settledHeap()
	runtime.KeepAlive(eng)
	if after < before {
		return 0, owners
	}
	return after - before, owners
}

// grownOwners names the tables holding more than 15 % (plus a few
// entries) more after the long replay than after the short one.
func grownOwners(short, long []core.Owner) string {
	var grown []string
	for i, o := range long {
		if was := short[i].N; o.N > was+was*15/100+8 {
			grown = append(grown, fmt.Sprintf("%s %d → %d", o.Name, was, o.N))
		}
	}
	return strings.Join(grown, ", ")
}

// liveHeapSlack absorbs what the runtime itself allocates between two
// readings (timers, stack growth bookkeeping, scheduler structures).
const liveHeapSlack = 64 << 10

// TestHeapFollowsLive replays k and then 4k generations of signalling
// churn — short calls with media to fresh endpoints, BYE-ended calls,
// REGISTERs from a fixed population, MESSAGEs from rotating senders and
// OPTIONS pings — each generation a session timeout past the last, with
// retained alerts and events capped. Only the last generation is live at
// the end of either replay, so the engine's heap and every table it
// holds must come out the same size, serial and with 2 shards. A table
// that grew is named.
func TestHeapFollowsLive(t *testing.T) {
	const k = 4
	cfg := core.Config{Limits: core.Limits{MaxRetainedAlerts: 64, MaxRetainedEvents: 256}}
	for _, run := range []struct {
		name string
		mk   func() (ownedEngine, func())
	}{
		{"serial", func() (ownedEngine, func()) { return core.NewEngine(cfg, core.WithEventLog()), func() {} }},
		{"sharded2", func() (ownedEngine, func()) {
			s := core.NewShardedEngine(cfg, 2, core.WithEventLog())
			return s, s.Close
		}},
	} {
		heapK, ownK := liveHeap(run.mk, k)
		heap4K, own4K := liveHeap(run.mk, 4*k)
		t.Logf("%s: engine heap %d B after %d generations, %d B after %d", run.name, heapK, k, heap4K, 4*k)
		grown := grownOwners(ownK, own4K)
		if heap4K > heapK+heapK*15/100+liveHeapSlack || grown != "" {
			if grown == "" {
				grown = "no table in entries (look for capacity a churned map keeps, or a cache pinning dropped state)"
			}
			t.Errorf("%s: engine heap %d B after %d generations, %d B after %d: memory follows history; grew: %s",
				run.name, heapK, k, heap4K, 4*k, grown)
		}
	}
}

// rtpTo builds one RTP frame toward dst at the given time.
func rtpTo(at time.Duration, dst netip.AddrPort, seq uint16) rec {
	g := &chaosGen{now: at}
	g.rtp(liveIP(9, 0, 1), dst.Addr(), 40000, dst.Port(), seq, 0x5EED)
	return g.frames[0]
}

// TestSeqTrackerEndsAfterSessionTimeout silences one endpoint for just
// under and just over a session timeout, with a sweep landing on the
// packet that breaks the silence. Under it, the tracker survives and the
// sequence jump is judged; over it, the tracker has ended and the packet
// opens exactly one new flow. Serial and 1, 2 and 8 shards agree event
// for event.
func TestSeqTrackerEndsAfterSessionTimeout(t *testing.T) {
	dst := netip.AddrPortFrom(liveIP(8, 0, 1), 20000)
	filler := netip.AddrPortFrom(liveIP(8, 0, 2), 20000)
	for _, tc := range []struct {
		silence      time.Duration
		flows, jumps int
	}{
		{liveTimeout - time.Millisecond, 1, 1},
		{liveTimeout + time.Millisecond, 2, 0},
	} {
		start := time.Second
		frames := []rec{rtpTo(start, dst, 100)}
		// Filler keeps frames flowing (and the sweep clock turning) while
		// dst is silent; the packet breaking the silence is the one the
		// sweep runs before.
		for i := 1; i < core.GCEvery-1; i++ {
			frames = append(frames, rtpTo(start+time.Duration(i)*(tc.silence/core.GCEvery), filler, uint16(i)))
		}
		frames = append(frames, rtpTo(start+tc.silence, dst, 5000))
		label := fmt.Sprintf("silent %v", tc.silence)
		diffRuns(t, label, frames)
		_, events, _ := runSerial(frames)
		flows, jumps := 0, 0
		for _, ev := range events {
			if ev.Session != "rtp:"+dst.String() {
				continue
			}
			switch ev.Type {
			case core.EvRTPNewFlow:
				flows++
			case core.EvRTPSeqJump:
				jumps++
			}
		}
		if flows != tc.flows || jumps != tc.jumps {
			t.Errorf("%s: %d new flows and %d sequence jumps toward %v, want %d and %d",
				label, flows, jumps, dst, tc.flows, tc.jumps)
		}
	}
}

// floodLifetime feeds n frames, spaced step apart, into a serial and a
// 2-shard engine, and after every sweep interval holds the named table to
// the keys seen within the last window plus one sweep interval, and (with
// no cap) to at least the keys seen within the last window. It returns
// both engines' final stats.
func floodLifetime(t *testing.T, table string, cfg core.Config, capped bool, n int, step, window time.Duration, frame func(i int) rec) (serial, sharded core.EngineStats) {
	t.Helper()
	s := core.NewEngine(cfg)
	sh := core.NewShardedEngine(cfg, 2)
	defer sh.Close()
	count := func(eng ownedEngine) int {
		for _, o := range eng.Owners() {
			if o.Name == table {
				return o.N
			}
		}
		t.Fatalf("no owner %q", table)
		return 0
	}
	perWindow := int(window / step)
	upper := perWindow + core.GCEvery + 1
	for i := 0; i < n; i++ {
		r := frame(i)
		s.HandleFrame(r.at, r.frame)
		sh.HandleFrame(r.at, r.frame)
		// Check where the table is fullest: on the frame before a sweep.
		if (i+2)%core.GCEvery != 0 && i != n-1 {
			continue
		}
		seen := i + 1
		got, gotSharded := count(s), count(sh)
		if got != gotSharded {
			t.Fatalf("after %d frames: serial holds %d %s, sharded2 %d", seen, got, table, gotSharded)
		}
		if got > upper {
			t.Fatalf("after %d frames: %d %s, want at most %d (those seen within %v plus a sweep interval)",
				seen, got, table, upper, window)
		}
		if lower := min(seen, perWindow); !capped && got < lower {
			t.Fatalf("after %d frames: %d %s, want at least the %d seen within %v", seen, got, table, lower, window)
		}
	}
	return s.Stats(), sh.Stats()
}

// TestSeqTrackersFollowLiveEndpoints floods 40 000 unsolicited RTP
// packets, each to an endpoint never seen before, over four session
// timeouts: the trackers stay within the endpoints of the last timeout
// plus one sweep interval. With MaxSeqTrackers just below that, the cap
// evicts too (each eviction scans the table, so only a few), and both
// engines count the same evictions.
func TestSeqTrackersFollowLiveEndpoints(t *testing.T) {
	const n = 40000
	step := 4 * liveTimeout / n
	frame := func(i int) rec {
		return rtpTo(time.Duration(i+1)*step, netip.AddrPortFrom(liveIP(10, i/250, i%250), 20000), 1)
	}
	for _, maxTrackers := range []int{0, 14000} {
		cfg := core.Config{Limits: core.Limits{MaxSeqTrackers: maxTrackers}}
		serial, sharded := floodLifetime(t, "rtp trackers", cfg, maxTrackers > 0, n, step, liveTimeout, frame)
		if serial.SeqTrackersEvicted != sharded.SeqTrackersEvicted {
			t.Errorf("MaxSeqTrackers %d: serial evicted %d trackers, sharded2 %d",
				maxTrackers, serial.SeqTrackersEvicted, sharded.SeqTrackersEvicted)
		}
		if maxTrackers > 0 && serial.SeqTrackersEvicted == 0 {
			t.Errorf("MaxSeqTrackers %d never evicted: the flood does not reach the cap", maxTrackers)
		}
	}
}

// TestIMHistoriesFollowLiveSenders floods MESSAGEs, each from a sender
// never seen before, over four IM periods: the source histories stay
// within the senders of the last period plus one sweep interval. With
// MaxIMHistories just below that, the cap evicts too, and both engines
// count the same evictions.
func TestIMHistoriesFollowLiveSenders(t *testing.T) {
	const n = 20000
	const period = time.Minute
	step := 4 * period / n
	frame := func(i int) rec {
		g := &chaosGen{now: time.Duration(i+1) * step}
		ip := liveIP(11, i/250, i%250)
		id := fmt.Sprintf("flood-%d@pbx", i)
		g.emit(ip, liveProxy, sip.DefaultPort, sip.DefaultPort, sip.NewRequest(sip.RequestSpec{
			Method:     sip.MethodMessage,
			RequestURI: "sip:peer@pbx",
			From:       sip.Address{URI: sip.URI{User: fmt.Sprintf("flood%d", i), Host: "pbx"}}.WithTag("ft"),
			To:         sip.Address{URI: sip.URI{User: "peer", Host: "pbx"}},
			CallID:     id,
			CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodMessage},
			Via:        sip.Via{Transport: "UDP", SentBy: ip.String(), Params: map[string]string{"branch": "z9hG4bK" + id}},
			Body:       []byte("hi"),
			BodyType:   "text/plain",
		}).Marshal())
		return g.frames[0]
	}
	for _, maxIMs := range []int{0, 9000} {
		cfg := core.Config{Gen: core.GenConfig{IMPeriod: period}, SessionTimeout: 30 * time.Second,
			Limits: core.Limits{MaxIMHistories: maxIMs}}
		serial, sharded := floodLifetime(t, "im histories", cfg, maxIMs > 0, n, step, period, frame)
		if serial.IMHistoriesEvicted != sharded.IMHistoriesEvicted {
			t.Errorf("MaxIMHistories %d: serial evicted %d histories, sharded2 %d",
				maxIMs, serial.IMHistoriesEvicted, sharded.IMHistoriesEvicted)
		}
		if maxIMs > 0 && serial.IMHistoriesEvicted == 0 {
			t.Errorf("MaxIMHistories %d never evicted: the flood does not reach the cap", maxIMs)
		}
	}
}
