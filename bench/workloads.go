package main

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"scidive/internal/packet"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// sizes scales the four workloads. fullSizes is what the benchmark
// measures; testSizes keeps every code path at a size `go test` can
// afford.
type sizes struct {
	// media-steady: lanes calls are live at a time; one generation of
	// longPackets G.711 packets each way, then gens generations of packets.
	mediaLanes, mediaLongPackets, mediaGens, mediaPackets int
	// callmix-wide: calls live at once exchange rounds of two-way RTP,
	// then are torn down over teardownRounds more.
	wideCalls, wideRounds, wideTeardownRounds int
	// signalling-churn: benign dialogs of each kind, and attacks of each
	// of the five kinds.
	churnCalls, churnRegs, churnIMs, churnPings, churnAttacks int
	// trunk-hostile.
	trunks, trunkCalls, trunkPings, fragCalls, tunnels, smuggled, embedded, tortureRounds, bgCalls int
}

var fullSizes = sizes{
	mediaLanes: 8, mediaLongPackets: 12000, mediaGens: 100, mediaPackets: 125,
	wideCalls: 1024, wideRounds: 40, wideTeardownRounds: 16,
	churnCalls: 11000, churnRegs: 5000, churnIMs: 5000, churnPings: 3000, churnAttacks: 210,
	trunks: 8, trunkCalls: 1024, trunkPings: 12000, fragCalls: 3000, tunnels: 256, smuggled: 512, embedded: 128, tortureRounds: 100, bgCalls: 16,
}

var testSizes = sizes{
	mediaLanes: 8, mediaLongPackets: 300, mediaGens: 3, mediaPackets: 40,
	wideCalls: 64, wideRounds: 6, wideTeardownRounds: 4,
	churnCalls: 220, churnRegs: 100, churnIMs: 100, churnPings: 60, churnAttacks: 6,
	trunks: 4, trunkCalls: 48, trunkPings: 160, fragCalls: 48, tunnels: 8, smuggled: 12, embedded: 6, tortureRounds: 2, bgCalls: 2,
}

// Paced rates of the open-loop run, frames per second. Each leaves the
// serial engine well under full load on a 2-CPU host so no backlog grows.
const (
	mediaSteadyRate     = 100_000
	callmixWideRate     = 20_000
	signallingChurnRate = 50_000
	trunkHostileRate    = 50_000
)

// sessionTimeout and sweepEvery are the engine's defaults the generators
// plan around: idle sessions are reclaimed after sessionTimeout, by a
// sweep that runs every sweepEvery frames.
const (
	sessionTimeout = 10 * time.Minute
	sweepEvery     = 4096
)

type workloadGen struct {
	name string
	why  string
	gen  func(seed int64, z sizes) *workload
}

var workloadGens = []workloadGen{
	{"media-steady", "8 G.711 calls at a time, >98% RTP, lag paced at 100k frames/s: the per-packet fast path (decode, checksum, RTP peek, trail append) does nearly all the work; session count and SIP parsing almost none", genMediaSteady},
	{"callmix-wide", "1024 calls live at once, round-robin RTP, each ended by the BYE attack, lag paced at 20k frames/s: per-frame session attribution and working-set size dominate", genCallmixWide},
	{"signalling-churn", ">70% UDP SIP, ~25k short dialogs over a virtual day, five kinds of attack, lag paced at 50k frames/s: SIP/SDP parse, dialog state, correlators, rules and session open/expire dominate", genSignallingChurn},
	{"trunk-hostile", "SIP on TCP trunks (split, coalesced, out of order), fragmented INVITEs, tunnelled and smuggled traffic, torture corpus, lag paced at 50k frames/s: reassembly, framing and the classify ladder dominate", genTrunkHostile},
}

func findWorkload(name string) (workloadGen, bool) {
	for _, wg := range workloadGens {
		if wg.name == name {
			return wg, true
		}
	}
	return workloadGen{}, false
}

const ms = time.Millisecond

// udpCall plays one ordinary UDP-signalled call: setup, packets of
// two-way media with periodic RTCP, and the caller's BYE. It returns the
// two media streams and the time the caller's last packet left.
func (g *gen) udpCall(t time.Duration, c *call, proxy netip.Addr, packets int) (ab, ba *rtpStream, end time.Duration) {
	g.sip(t, c.aIP, proxy, c.invite())
	g.sip(t+30*ms, c.bIP, c.aIP, c.reply(sip.StatusRinging, false))
	g.sip(t+800*ms, c.bIP, c.aIP, c.reply(sip.StatusOK, true))
	g.sip(t+820*ms, c.aIP, c.bIP, c.inDialog(sip.MethodAck, nil))
	ab, ba = g.stream(c.aMedia, c.bMedia), g.stream(c.bMedia, c.aMedia)
	media := t + 850*ms
	for k := 0; k < packets; k++ {
		at := media + time.Duration(k)*20*ms
		g.rtp(at, ab)
		g.rtp(at+7*ms, ba)
		if k%250 == 125 {
			g.rtcp(at+1*ms, ab, ba, true)
			g.rtcp(at+8*ms, ba, ab, k%500 == 125)
		}
	}
	end = media + time.Duration(packets-1)*20*ms
	bye := c.inDialog(sip.MethodBye, nil)
	g.sip(end+10*ms, c.aIP, c.bIP, bye)
	g.sip(end+25*ms, c.bIP, c.aIP, sip.NewResponse(bye, sip.StatusOK, ""))
	return ab, ba, end
}

func genMediaSteady(seed int64, z sizes) *workload {
	g := newGen(seed, 1)
	proxy := g.ip(0, 0)
	nCalls := z.mediaLanes * (1 + z.mediaGens)
	orphan := make([]bool, nCalls)
	for _, i := range g.rng.Perm(nCalls)[:nCalls*3/4] {
		orphan[i] = true
	}
	// The first generation is the long calls: their trails fill and turn
	// into rings, the allocation-free steady state. The generations after
	// it are short calls, so that the paced part of the run holds enough
	// alerts for a percentile. Calls last their nominal length give or
	// take a fifth, so they neither end nor grow their trails in step.
	// Generations are separated by more than the session timeout: the
	// expiry sweep reclaims the previous calls and the session table stays
	// at one generation, because session count must not be what this
	// workload measures.
	firstBye := time.Duration(1 << 62)
	var start time.Duration
	n := 0
	for gn := 0; gn <= z.mediaGens; gn++ {
		packets := z.mediaPackets
		if gn == 0 {
			packets = z.mediaLongPackets
		}
		for lane := 0; lane < z.mediaLanes; lane++ {
			t := start + time.Duration(lane)*2500*time.Microsecond + time.Duration(g.rng.Intn(1000))*time.Microsecond
			c := g.newCall(n, g.ip(1+n/250, n), g.ip(8+n/250, n), uint16(10000+2*n), uint16(30000+2*n))
			first := len(g.frames)
			ab, _, end := g.udpCall(t, c, proxy, packets*4/5+g.rng.Intn(packets*2/5+1))
			if gn == 0 && end < firstBye {
				firstBye = end
			}
			if lane == 0 && gn == 1 {
				g.frames[first].mark |= markPaced
			}
			if orphan[n] {
				// The caller's media keeps flowing after "its" BYE: Fig. 5.
				for k := 1; k <= 3; k++ {
					g.rtp(end+time.Duration(k)*20*ms, ab)
					if k == 1 {
						g.expect(ruleByeAttack, c.id)
					}
				}
			} else {
				g.benign++
			}
			n++
		}
		start += time.Duration(packets*6/5)*20*ms + sessionTimeout + time.Minute
	}
	w := g.finish(&workload{pacedRate: mediaSteadyRate, udpOnly: true})
	// All the long calls are live, trails full, just before the first BYE.
	for i, r := range w.recs {
		if r.Time >= firstBye {
			w.peakIndex, w.peakLive = i, z.mediaLanes
			break
		}
	}
	return w
}

func genCallmixWide(seed int64, z sizes) *workload {
	g := newGen(seed, 2)
	proxy := g.ip(0, 0)
	now := time.Duration(0)
	// 1024 calls of 50 packets/s each way put a frame on the wire every
	// 10 us; a round of the whole mix is one 20 ms packet interval.
	tick := func() time.Duration { now += 10 * time.Microsecond; return now }
	type wideCall struct {
		*call
		ab, ba   *rtpStream
		teardown int // round in which the forged BYE arrives
		state    int // 0 live, 1 BYE seen (one more orphan packet due), 2 silent
	}
	calls := make([]*wideCall, z.wideCalls)
	for i := range calls {
		c := g.newCall(i, g.ip(1+i/250, i), g.ip(8+i/250, i), uint16(10000+2*i), uint16(30000+2*i))
		calls[i] = &wideCall{call: c}
		g.sip(tick(), c.aIP, proxy, c.invite())
		g.sip(tick(), c.bIP, c.aIP, c.reply(sip.StatusOK, true))
		g.sip(tick(), c.aIP, c.bIP, c.inDialog(sip.MethodAck, nil))
		calls[i].ab, calls[i].ba = g.stream(c.aMedia, c.bMedia), g.stream(c.bMedia, c.aMedia)
	}
	for k, i := range g.rng.Perm(len(calls)) {
		calls[i].teardown = z.wideRounds + k*z.wideTeardownRounds/len(calls)
	}
	order := g.rng.Perm(len(calls)) // the seeded round-robin visiting order
	for round := 0; round <= z.wideRounds+z.wideTeardownRounds; round++ {
		for k, i := range order {
			c := calls[i]
			switch {
			case c.state == 0 && round == c.teardown:
				// Forged BYE in the caller's name; the caller, unaware,
				// keeps talking (Fig. 5).
				g.sip(tick(), c.aIP, c.bIP, c.inDialog(sip.MethodBye, nil))
				g.rtp(tick(), c.ab)
				g.expect(ruleByeAttack, c.id)
				g.rtp(tick(), c.ba)
				c.state = 1
			case c.state == 1:
				g.rtp(tick(), c.ab)
				c.state = 2
			case c.state == 0:
				g.rtp(tick(), c.ab)
				if k == 0 && round == z.wideRounds-2 {
					g.mark(markPaced)
				}
				g.rtp(tick(), c.ba)
			}
		}
		if round == z.wideRounds-1 {
			g.mark(markPeak)
		}
	}
	return g.finish(&workload{pacedRate: callmixWideRate, peakLive: z.wideCalls, udpOnly: true})
}

// spread hands out start times: n scripts evenly over span, each jittered
// inside its own slot so no two kinds of script move in step.
func (g *gen) spread(n int, span time.Duration) []time.Duration {
	slot := span / time.Duration(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i)*slot + time.Duration(g.rng.Int63n(int64(slot)))
	}
	return out
}

// peakBeforeSweep picks the heap-measurement point of a churning
// workload: three quarters in, just before an expiry sweep, when the
// session table is fullest. Live sessions are the dialogs that begin in
// one session timeout, of the dialogs spread evenly over span: the same
// number for every seed, so the heap metric does not inherit a count's
// jitter.
func (w *workload) peakBeforeSweep(dialogs int, span time.Duration) {
	w.peakIndex = len(w.recs) * 3 / 4
	if w.peakIndex >= sweepEvery {
		w.peakIndex = w.peakIndex/sweepEvery*sweepEvery - 1
	}
	w.peakLive = int(time.Duration(dialogs) * sessionTimeout / span)
	if w.peakLive < 1 {
		w.peakLive = 1
	}
}

func genSignallingChurn(seed int64, z sizes) *workload {
	g := newGen(seed, 3)
	proxy := g.ip(0, 0)
	realm := "pbx"

	register := func(user string, ip netip.Addr, id string, seq uint32, response string) *sip.Message {
		aor := sip.Address{URI: sip.URI{User: user, Host: realm}}
		m := sip.NewRequest(sip.RequestSpec{
			Method: sip.MethodRegister, RequestURI: "sip:" + realm, From: aor.WithTag("r" + id[:6]), To: aor,
			CallID: id, CSeq: sip.CSeq{Seq: seq, Method: sip.MethodRegister},
			Via:     sip.Via{Transport: "UDP", SentBy: ip.String()},
			Contact: &sip.Address{URI: sip.URI{User: user, Host: ip.String()}},
		})
		if response != "" {
			m.Headers.Add(sip.HdrAuthorization, sip.Credentials{
				Username: user, Realm: realm, Nonce: "n" + id[:8], URI: "sip:" + realm, Response: response,
			}.String())
		}
		return m
	}
	challenge := func(req *sip.Message, id string) *sip.Message {
		m := sip.NewResponse(req, sip.StatusUnauthorized, "")
		m.Headers.Add(sip.HdrWWWAuth, sip.Challenge{Realm: realm, Nonce: "n" + id[:8]}.String())
		return m
	}
	message := func(user string, ip netip.Addr, peer int) *sip.Message {
		return sip.NewRequest(sip.RequestSpec{
			Method: sip.MethodMessage, RequestURI: fmt.Sprintf("sip:peer%d@%s", peer, realm),
			From:   sip.Address{URI: sip.URI{User: user, Host: realm}}.WithTag(g.ids.Tag()),
			To:     sip.Address{URI: sip.URI{User: fmt.Sprintf("peer%d", peer), Host: realm}},
			CallID: g.ids.CallID(realm), CSeq: sip.CSeq{Seq: 1, Method: sip.MethodMessage},
			Via:  sip.Via{Transport: "UDP", SentBy: ip.String()},
			Body: []byte("running late, start without me"), BodyType: "text/plain",
		})
	}
	options := func(ip netip.Addr) *sip.Message {
		return sip.NewRequest(sip.RequestSpec{
			Method: sip.MethodOptions, RequestURI: "sip:" + realm,
			From:   sip.Address{URI: sip.URI{User: "probe", Host: ip.String()}}.WithTag(g.ids.Tag()),
			To:     sip.Address{URI: sip.URI{Host: realm}},
			CallID: g.ids.CallID(realm), CSeq: sip.CSeq{Seq: 1, Method: sip.MethodOptions},
			Via: sip.Via{Transport: "UDP", SentBy: ip.String()},
		})
	}
	// exchange sends a request to the proxy and the proxy's reply.
	exchange := func(t time.Duration, ip netip.Addr, req *sip.Message, code int) {
		g.sip(t, ip, proxy, req)
		g.sip(t+15*ms, proxy, ip, sip.NewResponse(req, code, ""))
	}
	// shortCall is INVITE/180/200/ACK and two packets of media each way;
	// it returns the caller's stream and when the media ended.
	nCalls := 0
	shortCall := func(t time.Duration) (*call, *rtpStream, time.Duration) {
		n := nCalls
		nCalls++
		c := g.newCall(n, g.ip(10+n%2000/250, n), g.ip(20+n%2000/250, n), uint16(10000+2*(n%10000)), uint16(40000+2*(n%10000)))
		g.sip(t, c.aIP, proxy, c.invite())
		g.sip(t+40*ms, c.bIP, c.aIP, c.reply(sip.StatusRinging, false))
		g.sip(t+1200*ms, c.bIP, c.aIP, c.reply(sip.StatusOK, true))
		g.sip(t+1230*ms, c.aIP, c.bIP, c.inDialog(sip.MethodAck, nil))
		ab, ba := g.stream(c.aMedia, c.bMedia), g.stream(c.bMedia, c.aMedia)
		for k := 0; k < 2; k++ {
			g.rtp(t+1300*ms+time.Duration(k)*20*ms, ab)
			g.rtp(t+1307*ms+time.Duration(k)*20*ms, ba)
		}
		return c, ab, t + 1327*ms
	}
	hangUp := func(t time.Duration, c *call) {
		bye := c.inDialog(sip.MethodBye, nil)
		g.sip(t, c.aIP, c.bIP, bye)
		g.sip(t+20*ms, c.bIP, c.aIP, sip.NewResponse(bye, sip.StatusOK, ""))
	}

	var regs, ims, pings, attackers int
	scripts := []struct {
		count int
		play  func(t time.Duration)
	}{
		{z.churnCalls, func(t time.Duration) {
			c, _, end := shortCall(t)
			hangUp(end+1700*ms, c)
			g.benign++
		}},
		{z.churnRegs, func(t time.Duration) {
			user, ip, id := fmt.Sprintf("user%d", regs%2000), g.ip(30+regs%2000/250, regs), g.ids.CallID(realm)
			regs++
			first := register(user, ip, id, 1, "")
			g.sip(t, ip, proxy, first)
			g.sip(t+15*ms, proxy, ip, challenge(first, id))
			second := register(user, ip, id, 2, sip.DigestResponse(user, realm, "secret", "n"+id[:8], sip.MethodRegister, "sip:"+realm))
			g.sip(t+40*ms, ip, proxy, second)
			ok := sip.NewResponse(second, sip.StatusOK, "")
			ok.Headers.Add(sip.HdrContact, second.Headers.Get(sip.HdrContact))
			g.sip(t+55*ms, proxy, ip, ok)
			g.benign++
		}},
		{z.churnIMs, func(t time.Duration) {
			exchange(t, g.ip(40+ims%1000/250, ims), message(fmt.Sprintf("im%d", ims%1000), g.ip(40+ims%1000/250, ims), ims%97), sip.StatusOK)
			ims++
			g.benign++
		}},
		{z.churnPings, func(t time.Duration) {
			// One keep-alive per source at a time: far below the scan
			// threshold of five dialogs in ten seconds.
			ip := g.ip(50+pings%500/250, pings)
			pings++
			exchange(t, ip, options(ip), sip.StatusOK)
			g.benign++
		}},
		// Call hijack (Fig. 7): a forged re-INVITE moves the caller's
		// media to the attacker, and the real caller keeps sending.
		{z.churnAttacks, func(t time.Duration) {
			c, ab, end := shortCall(t)
			thief := netip.AddrPortFrom(g.ip(60+attackers/250, attackers), 46000)
			attackers++
			re := c.inDialog(sip.MethodInvite, sdp.NewAudioSession("caller", thief.Addr(), thief.Port()).Marshal())
			g.sip(end+500*ms, thief.Addr(), c.bIP, re)
			g.sip(end+520*ms, c.bIP, thief.Addr(), sip.NewResponse(re, sip.StatusOK, ""))
			g.rtp(end+800*ms, ab)
			g.expect(ruleCallHijack, c.id)
			g.expect(ruleBadSource, c.id)
			g.rtp(end+820*ms, ab)
			hangUp(end+2000*ms, c)
		}},
		// Fake instant message (Fig. 6): the victim's name from a second
		// address inside the mobility allowance.
		{z.churnAttacks, func(t time.Duration) {
			user := fmt.Sprintf("vip%d", attackers)
			home, fake := g.ip(70+attackers/250, attackers), g.ip(80+attackers/250, attackers)
			attackers++
			exchange(t, home, message(user, home, 1), sip.StatusOK)
			g.sip(t+5*time.Second, fake, proxy, message(user, fake, 1))
			g.expect(ruleFakeIM, "im:"+user+"@"+realm)
		}},
		// Password guessing: one registration session trying three
		// different digest responses.
		{z.churnAttacks, func(t time.Duration) {
			user, ip, id := fmt.Sprintf("user%d", attackers%2000), g.ip(90+attackers/250, attackers), g.ids.CallID(realm)
			attackers++
			req := register(user, ip, id, 1, "")
			g.sip(t, ip, proxy, req)
			for try := 1; try <= 3; try++ {
				at := t + time.Duration(try)*100*ms
				g.sip(at-50*ms, proxy, ip, challenge(req, id))
				guess := sip.DigestResponse(user, realm, fmt.Sprintf("guess%d", try), "n"+id[:8], sip.MethodRegister, "sip:"+realm)
				req = register(user, ip, id, uint32(try+1), guess)
				g.sip(at, ip, proxy, req)
			}
			g.expect(rulePasswordGuess, id)
		}},
		// Register flood: the same unauthenticated REGISTER drawing five
		// 401s in one session.
		{z.churnAttacks, func(t time.Duration) {
			user, ip, id := fmt.Sprintf("user%d", attackers%2000), g.ip(100+attackers/250, attackers), g.ids.CallID(realm)
			attackers++
			for try := 0; try < 5; try++ {
				at := t + time.Duration(try)*60*ms
				req := register(user, ip, id, uint32(try+1), "")
				g.sip(at, ip, proxy, req)
				g.sip(at+15*ms, proxy, ip, challenge(req, id))
			}
			g.expect(ruleRegisterFlood, id)
		}},
		// OPTIONS scan: one source probing five dialogs inside a second.
		{z.churnAttacks, func(t time.Duration) {
			ip := g.ip(110+attackers/250, attackers)
			attackers++
			for probe := 0; probe < 5; probe++ {
				at := t + time.Duration(probe)*200*ms
				req := options(ip)
				g.sip(at, ip, proxy, req)
				if probe == 4 {
					g.expect(ruleOptionsScan, "scan:"+ip.String())
				}
				g.sip(at+15*ms, proxy, ip, sip.NewResponse(req, sip.StatusNotFound, ""))
			}
		}},
	}
	var kinds []int
	for k, s := range scripts {
		for i := 0; i < s.count; i++ {
			kinds = append(kinds, k)
		}
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// One dialog every four virtual seconds on average: a day at a
	// branch-office PBX. The session table then holds the few hundred
	// dialogs of the last timeout-plus-sweep interval rather than all of
	// them, so session open/expire is exercised and per-frame attribution
	// does not swamp the parsing this workload is about.
	span := time.Duration(len(kinds)) * 4 * time.Second
	starts := g.spread(len(kinds), span)
	for i, k := range kinds {
		scripts[k].play(starts[i])
	}
	w := g.finish(&workload{pacedRate: signallingChurnRate, udpOnly: true})
	w.peakBeforeSweep(len(kinds), span)
	return w
}

// tcpTrunk is one long-lived SIP-over-TCP connection between two PBXs.
// Sends are collected per trunk and realized in time order, because a
// direction's sequence numbers must follow its emission order.
type tcpTrunk struct {
	ends  [2]netip.AddrPort // 0 dials 1
	seq   [2]uint32
	last  [2]time.Duration
	sends []trunkSend
}

type trunkSend struct {
	at      time.Duration
	dir     int // index of the sending end
	payload []byte
}

func (tr *tcpTrunk) send(at time.Duration, dir int, msgs ...*sip.Message) {
	var payload []byte
	for _, m := range msgs {
		payload = append(payload, m.Marshal()...) // several messages coalesce into one write
	}
	tr.sends = append(tr.sends, trunkSend{at, dir, payload})
}

// segment puts one TCP segment of the given direction on the wire.
func (g *gen) segment(at time.Duration, tr *tcpTrunk, dir int, seq uint32, flags uint8, payload []byte) {
	g.ipid++
	src, dst := tr.ends[dir], tr.ends[1-dir]
	frames, err := packet.BuildTCPFrames(packet.TCPFrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
		Seq: seq, Ack: tr.seq[1-dir], Flags: flags, IPID: g.ipid, Payload: payload,
	}, 0)
	if err != nil {
		panic(err)
	}
	for i, f := range frames {
		g.add(at+time.Duration(i)*20*time.Microsecond, f, clsTCPSeg)
	}
}

// realize turns the trunk's sends into segments. Most writes travel
// whole; a fifth are split mid-header across two segments, and a tenth
// arrive with the second half first or with a retransmission overlapping
// bytes already delivered, so about 5% of all segments reach the
// reassembler out of order or overlapping.
func (g *gen) realize(tr *tcpTrunk) {
	sort.SliceStable(tr.sends, func(i, j int) bool { return tr.sends[i].at < tr.sends[j].at })
	const data = packet.TCPFlagACK | packet.TCPFlagPSH
	tr.seq = [2]uint32{g.rng.Uint32(), g.rng.Uint32()}
	open := tr.sends[0].at - 30*ms
	g.segment(open, tr, 0, tr.seq[0], packet.TCPFlagSYN, nil)
	tr.seq[0]++
	g.segment(open+10*ms, tr, 1, tr.seq[1], packet.TCPFlagSYN|packet.TCPFlagACK, nil)
	tr.seq[1]++
	g.segment(open+20*ms, tr, 0, tr.seq[0], packet.TCPFlagACK, nil)
	for _, s := range tr.sends {
		at := s.at
		if floor := tr.last[s.dir] + 50*time.Microsecond; at < floor {
			at = floor
		}
		seq, p := tr.seq[s.dir], s.payload
		cut := len(p) / 3
		later := at + 200*time.Microsecond
		switch shape := g.rng.Intn(20); {
		case len(p) < 64 || shape < 14:
			g.segment(at, tr, s.dir, seq, data, p)
			later = at
		case shape < 18:
			g.segment(at, tr, s.dir, seq, data, p[:cut])
			g.segment(later, tr, s.dir, seq+uint32(cut), data, p[cut:])
		case shape < 19:
			g.segment(at, tr, s.dir, seq+uint32(cut), data, p[cut:])
			g.segment(later, tr, s.dir, seq, data, p[:cut])
		default:
			g.segment(at, tr, s.dir, seq, data, p[:cut])
			g.segment(later, tr, s.dir, seq+uint32(cut-16), data, p[cut-16:])
		}
		tr.seq[s.dir] += uint32(len(p))
		tr.last[s.dir] = later
		if g.rng.Intn(2) == 0 {
			g.segment(later+100*time.Microsecond, tr, 1-s.dir, tr.seq[1-s.dir], packet.TCPFlagACK, nil)
		}
	}
}

func genTrunkHostile(seed int64, z sizes) *workload {
	g := newGen(seed, 4)
	proxy := g.ip(0, 0)
	// Long enough that expiry sweeps keep the session table at a few
	// hundred of the ~4.5k dialogs (see genSignallingChurn).
	span := time.Duration(z.trunkCalls+z.fragCalls) * 3700 * ms

	// The trunks, plus one more that carries only torture messages so a
	// framing desync there cannot swallow a call's signalling.
	trunks := make([]*tcpTrunk, z.trunks+1)
	for k := range trunks {
		trunks[k] = &tcpTrunk{ends: [2]netip.AddrPort{
			netip.AddrPortFrom(g.ip(100, k), uint16(40000+k)), sipPort(g.ip(101, k)),
		}}
	}

	// TCP-signalled calls, media on UDP, each ended by a forged BYE on
	// the trunk while the caller's media keeps flowing.
	for n, t := range g.spread(z.trunkCalls, span) {
		tr := trunks[n%z.trunks]
		c := g.newCall(n, tr.ends[0].Addr(), tr.ends[1].Addr(), 0, 0)
		c.transport = "TCP"
		c.aMedia = netip.AddrPortFrom(g.ip(102+n%2000/250, n), uint16(10000+2*(n%8000)))
		c.bMedia = netip.AddrPortFrom(g.ip(110+n%2000/250, n), uint16(30000+2*(n%8000)))
		tr.send(t, 0, c.invite())
		tr.send(t+20*ms, 1, c.reply(sip.StatusTrying, false), c.reply(sip.StatusRinging, false))
		tr.send(t+1000*ms, 1, c.reply(sip.StatusOK, true))
		tr.send(t+1020*ms, 0, c.inDialog(sip.MethodAck, nil))
		ab, ba := g.stream(c.aMedia, c.bMedia), g.stream(c.bMedia, c.aMedia)
		for k := 0; k < 6; k++ {
			g.rtp(t+1100*ms+time.Duration(k)*20*ms, ab)
			g.rtp(t+1107*ms+time.Duration(k)*20*ms, ba)
		}
		bye := c.inDialog(sip.MethodBye, nil)
		tr.send(t+1210*ms, 0, bye)
		g.rtp(t+1220*ms, ab)
		g.expect(ruleByeAttack, c.id)
		g.rtp(t+1240*ms, ab)
		tr.send(t+1250*ms, 1, sip.NewResponse(bye, sip.StatusOK, ""))
	}

	// Trunk housekeeping: OPTIONS pings in one long-lived dialog per
	// trunk, and RFC 5626 CRLF keep-alives often enough that neither
	// direction idles past the reassembler's 30 s stream timeout.
	for k, tr := range trunks[:z.trunks] {
		a, b := tr.ends[0].Addr(), tr.ends[1].Addr()
		id, tag := g.ids.CallID("trunk"), g.ids.Tag()
		for i, t := range g.spread(z.trunkPings/z.trunks, span) {
			ping := sip.NewRequest(sip.RequestSpec{
				Method: sip.MethodOptions, RequestURI: "sip:" + b.String(),
				From:   sip.Address{URI: sip.URI{User: fmt.Sprintf("trunk%d", k), Host: a.String()}}.WithTag(tag),
				To:     sip.Address{URI: sip.URI{Host: b.String()}},
				CallID: id, CSeq: sip.CSeq{Seq: uint32(i + 1), Method: sip.MethodOptions},
				Via: sip.Via{Transport: "TCP", SentBy: a.String()},
			})
			tr.send(t, 0, ping)
			tr.send(t+5*ms, 1, sip.NewResponse(ping, sip.StatusOK, ""))
		}
		for t := time.Duration(k) * time.Second; t < span; t += 25 * time.Second {
			tr.sends = append(tr.sends, trunkSend{t, 0, []byte("\r\n\r\n")}, trunkSend{t + 2*ms, 1, []byte("\r\n")})
		}
	}

	// UDP calls whose offers and answers carry ICE-sized SDP: at a 576
	// byte MTU each becomes three fragments, and the fragments of four
	// calls that start together interleave (a fifth arrive reversed).
	fragged := func(t time.Duration, lane int, from, to netip.Addr, m *sip.Message) {
		frames := g.udpFrames(sipPort(from), sipPort(to), m.Marshal(), 576)
		if g.rng.Intn(5) == 0 {
			for i, j := 0, len(frames)-1; i < j; i, j = i+1, j-1 {
				frames[i], frames[j] = frames[j], frames[i]
			}
		}
		for i, f := range frames {
			g.add(t+time.Duration(i*4+lane)*100*time.Microsecond, f, clsFrag)
		}
	}
	for n, t := range g.spread((z.fragCalls+3)/4, span) {
		for lane := 0; lane < 4 && n*4+lane < z.fragCalls; lane++ {
			i := n*4 + lane
			c := g.newCall(z.trunkCalls+i, g.ip(120+i%2000/250, i), g.ip(130+i%2000/250, i), uint16(10000+2*(i%8000)), uint16(30000+2*(i%8000)))
			c.sdpLines = 13
			fragged(t, lane, c.aIP, proxy, c.invite())
			fragged(t+500*ms, lane, c.bIP, c.aIP, c.reply(sip.StatusOK, true))
			at := t + time.Duration(lane)*100*time.Microsecond
			g.sip(at+520*ms, c.aIP, c.bIP, c.inDialog(sip.MethodAck, nil))
			bye := c.inDialog(sip.MethodBye, nil)
			g.sip(at+2000*ms, c.aIP, c.bIP, bye)
			g.sip(at+2020*ms, c.bIP, c.aIP, sip.NewResponse(bye, sip.StatusOK, ""))
			g.benign++
		}
	}

	// RTP tunnelled between signalling ports: decodes as media, not as
	// what port 5060 promised.
	for k, t := range g.spread(z.tunnels, span) {
		s := g.stream(sipPort(g.ip(140+k/250, k)), sipPort(g.ip(144+k/250, k)))
		for p := 0; p < 12; p++ {
			g.udp(t+time.Duration(p)*20*ms, s.src, s.dst, g.packetBytes(s), clsMismatch)
			if p == 0 {
				g.expect(ruleMismatch, "rtp:"+s.dst.String())
				g.expect(ruleEvasion, "rtp:"+s.dst.String())
			}
		}
	}

	// SIP sent to media ports, and SIP start lines hidden in RTP payloads.
	for k, t := range g.spread(z.smuggled, span) {
		c := g.newCall(z.trunkCalls+z.fragCalls+k, g.ip(150+k/250, k), proxy, 0, 0)
		src, dst := netip.AddrPortFrom(c.aIP, 40000), netip.AddrPortFrom(proxy, uint16(20000+2*(k%1000)))
		m := sip.NewRequest(sip.RequestSpec{
			Method: sip.MethodInvite, RequestURI: c.b.URI.String(), From: c.a, To: c.b, CallID: c.id,
			CSeq: sip.CSeq{Seq: 1, Method: sip.MethodInvite}, Via: c.via(c.aIP),
		}).Marshal()
		g.udp(t, src, dst, m, clsMismatch)
		g.expect(ruleMismatch, c.id)
		g.expect(ruleEvasion, c.id)
		g.udp(t+500*ms, src, dst, m, clsMismatch)
	}
	hidden := []byte("INVITE sip:covert@pbx SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.9\r\n\r\n")
	for k, t := range g.spread(z.embedded, span) {
		s := g.stream(netip.AddrPortFrom(g.ip(154, k), uint16(24000+2*k)), netip.AddrPortFrom(g.ip(155, k), uint16(26000+2*k)))
		for p := 0; p < 4; p++ {
			pkt := g.packetBytes(s)
			copy(pkt[12:], hidden)
			g.udp(t+time.Duration(p)*20*ms, s.src, s.dst, pkt, clsRTP)
			if p == 0 {
				g.expect(ruleEvasion, "rtp:"+s.dst.String())
			}
		}
	}

	// The torture corpus, legal and broken, as datagrams and on its own
	// trunk. None of it may raise an alert or stall the pipeline.
	torture, tortureSrc := trunks[z.trunks], g.ip(160, 0)
	for _, t := range g.spread(z.tortureRounds, span) {
		for i, e := range sip.TortureCorpus() {
			at := t + time.Duration(i)*10*ms
			g.udp(at, sipPort(tortureSrc), sipPort(proxy), e.Raw, clsSIP)
			torture.sends = append(torture.sends, trunkSend{at, 0, e.Raw})
		}
	}

	// Ordinary calls in the background.
	for n, t := range g.spread(z.bgCalls, span-20*time.Second) {
		i := z.trunkCalls + z.fragCalls + z.smuggled + n
		c := g.newCall(i, g.ip(170, n), g.ip(171, n), uint16(50000+2*n), uint16(52000+2*n))
		g.udpCall(t, c, proxy, 500)
		g.benign++
	}

	for _, tr := range trunks {
		g.realize(tr)
	}
	w := g.finish(&workload{pacedRate: trunkHostileRate})
	w.peakBeforeSweep(z.trunkCalls+z.fragCalls+z.smuggled+z.bgCalls, span)
	return w
}
