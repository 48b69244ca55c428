package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"scidive/internal/capture"
	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// frameClass is what the generator knows a frame to be; the traced run
// times the engine per class.
type frameClass uint8

const (
	clsRTP frameClass = iota
	clsRTCP
	clsSIP
	clsFrag
	clsTCPSeg
	clsMismatch
	numClasses
)

var classNames = [numClasses]string{"rtp", "rtcp", "sip", "frag", "tcpseg", "mismatch"}

// alertKey identifies an alert the way the rule engine dedups them.
type alertKey struct{ Rule, Session string }

// expectedAlert is one alert the default ruleset must raise on a
// workload, with the index of the frame whose processing raises it.
type expectedAlert struct {
	alertKey
	Trigger int
}

// Rule names of the default ruleset the workloads provoke.
const (
	ruleByeAttack     = "bye-attack"
	ruleCallHijack    = "call-hijack"
	ruleBadSource     = "rtp-attack-source"
	ruleFakeIM        = "fake-im"
	ruleRegisterFlood = "register-flood"
	rulePasswordGuess = "password-guess"
	ruleOptionsScan   = "sip-options-scan"
	ruleMismatch      = "protocol-mismatch"
	ruleEvasion       = "evasion-suspect"
)

// workload is one generated input: the capture the engines replay and
// what a correct engine must report on it.
type workload struct {
	name     string
	scap     []byte           // the capture, SCAP-encoded
	recs     []capture.Record // its frames, aliasing scap
	class    []frameClass
	expected []expectedAlert
	benign   int // sessions that must raise nothing

	// Replaying frames [0, peakIndex) leaves peakLive sessions live.
	peakIndex, peakLive int

	// The open-loop run feeds frames [0, pacedFrom) as fast as the
	// engine takes them and the rest at pacedRate frames per second.
	pacedRate, pacedFrom int

	// udpOnly workloads can be replayed through a distiller built
	// outside an engine, which has no TCP stream arm.
	udpOnly bool
}

// hash identifies the capture bytes (determinism tests, output record).
func (w *workload) hash() string {
	sum := sha256.Sum256(w.scap)
	return hex.EncodeToString(sum[:8])
}

// Marks a generator can put on a frame; finish turns them into indices.
const (
	markPeak uint8 = 1 << iota
	markPaced
)

type genFrame struct {
	at     time.Duration
	data   []byte
	class  frameClass
	alerts []alertKey
	mark   uint8
}

// gen collects timed frames from independent scripts (calls, trunks,
// attacks); finish merges them into capture order by virtual time.
type gen struct {
	rng    *rand.Rand
	ids    *sip.IDGen
	frames []genFrame
	ipid   uint16
	voice  []byte // pseudo-voice bytes RTP payloads are cut from
	benign int
	net    byte // second octet of every generated address, from the seed
}

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
)

func newGen(seed, salt int64) *gen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	g := &gen{rng: rng, ids: sip.NewIDGen(rng), voice: make([]byte, 4096), net: byte(1 + rng.Intn(200))}
	rng.Read(g.voice)
	return g
}

// ip returns a host address in one of the generator's /16s.
func (g *gen) ip(subnet, host int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, g.net, byte(subnet), byte(1 + host%250)})
}

func (g *gen) add(at time.Duration, data []byte, class frameClass) {
	g.frames = append(g.frames, genFrame{at: at, data: data, class: class})
}

// expect records that the frame added last raises the given alert.
func (g *gen) expect(rule, session string) {
	f := &g.frames[len(g.frames)-1]
	f.alerts = append(f.alerts, alertKey{rule, session})
}

func (g *gen) mark(m uint8) { g.frames[len(g.frames)-1].mark |= m }

// udpFrames wraps one datagram, fragmenting at mtu (0 = Ethernet's 1500).
func (g *gen) udpFrames(src, dst netip.AddrPort, payload []byte, mtu int) [][]byte {
	g.ipid++
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
		IPID: g.ipid, Payload: payload,
	}, mtu)
	if err != nil {
		panic(err) // generator inputs are valid by construction
	}
	return frames
}

func (g *gen) udp(at time.Duration, src, dst netip.AddrPort, payload []byte, class frameClass) {
	g.add(at, g.udpFrames(src, dst, payload, 0)[0], class)
}

func sipPort(ip netip.Addr) netip.AddrPort { return netip.AddrPortFrom(ip, sip.DefaultPort) }

// sip sends one SIP message as a UDP datagram between the well-known ports.
func (g *gen) sip(at time.Duration, from, to netip.Addr, m *sip.Message) {
	g.udp(at, sipPort(from), sipPort(to), m.Marshal(), clsSIP)
}

// rtpStream is one direction of a call's media.
type rtpStream struct {
	src, dst netip.AddrPort
	seq      uint16
	ts, ssrc uint32
	sent     uint32
}

func (g *gen) stream(src, dst netip.AddrPort) *rtpStream {
	return &rtpStream{src: src, dst: dst, seq: uint16(g.rng.Intn(1 << 15)), ts: g.rng.Uint32(), ssrc: g.rng.Uint32() | 1}
}

// packetBytes returns the stream's next G.711 packet (20 ms, 160 bytes).
func (g *gen) packetBytes(s *rtpStream) []byte {
	off := int(s.sent*160) % (len(g.voice) - 160)
	p := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Marker: s.sent == 0, Seq: s.seq, Timestamp: s.ts, SSRC: s.ssrc},
		Payload: g.voice[off : off+160],
	}
	buf, err := p.Marshal()
	if err != nil {
		panic(err)
	}
	s.seq++
	s.ts += 160
	s.sent++
	return buf
}

func (g *gen) rtp(at time.Duration, s *rtpStream) {
	g.udp(at, s.src, s.dst, g.packetBytes(s), clsRTP)
}

func rtcpPort(ap netip.AddrPort) netip.AddrPort { return netip.AddrPortFrom(ap.Addr(), ap.Port()+1) }

// rtcp sends the stream's sender report (odd ports of rounds) or a
// receiver report about the peer stream, on the media ports plus one.
func (g *gen) rtcp(at time.Duration, s *rtpStream, peer *rtpStream, sender bool) {
	var pkts []rtp.RTCPPacket
	block := rtp.ReportBlock{SSRC: peer.ssrc, HighestSeq: uint32(peer.seq), Jitter: uint32(g.rng.Intn(40))}
	if sender {
		pkts = append(pkts, &rtp.SenderReport{
			SSRC: s.ssrc, NTPSec: uint32(at / time.Second), RTPTime: s.ts,
			PacketCount: s.sent, OctetCount: s.sent * 160, Reports: []rtp.ReportBlock{block},
		})
	} else {
		pkts = append(pkts, &rtp.ReceiverReport{SSRC: s.ssrc, Reports: []rtp.ReportBlock{block}})
	}
	pkts = append(pkts, &rtp.SourceDescription{SSRC: s.ssrc, CNAME: "ua@" + s.src.Addr().String()})
	buf, err := rtp.MarshalCompound(pkts)
	if err != nil {
		panic(err)
	}
	g.udp(at, rtcpPort(s.src), rtcpPort(s.dst), buf, clsRTCP)
}

// call scripts one SIP dialog between a caller (a) and a callee (b).
type call struct {
	id             string
	a, b           sip.Address // a carries its tag; b gets bTag once answered
	bTag           string
	aIP, bIP       netip.Addr
	aMedia, bMedia netip.AddrPort
	transport      string
	sdpLines       int // extra a= lines, for bodies larger than one MTU
	inv            *sip.Message
	cseq           uint32
}

func (g *gen) newCall(n int, aIP, bIP netip.Addr, aPort, bPort uint16) *call {
	return &call{
		id:  g.ids.CallID("pbx"),
		a:   sip.Address{URI: sip.URI{User: fmt.Sprintf("alice%d", n), Host: "pbx"}}.WithTag(g.ids.Tag()),
		b:   sip.Address{URI: sip.URI{User: fmt.Sprintf("bob%d", n), Host: "pbx"}},
		aIP: aIP, bIP: bIP, bTag: g.ids.Tag(),
		aMedia:    netip.AddrPortFrom(aIP, aPort),
		bMedia:    netip.AddrPortFrom(bIP, bPort),
		transport: "UDP",
		cseq:      1,
	}
}

func (c *call) via(ip netip.Addr) sip.Via {
	return sip.Via{Transport: c.transport, SentBy: ip.String()}
}

func (c *call) body(user string, media netip.AddrPort) []byte {
	s := sdp.NewAudioSession(user, media.Addr(), media.Port())
	for i := 0; i < c.sdpLines; i++ {
		s.Media[0].Attributes = append(s.Media[0].Attributes,
			fmt.Sprintf("candidate:%d 1 UDP %d %s %d typ host generation 0", i+1, 2130706431-i, media.Addr(), media.Port()))
	}
	return s.Marshal()
}

func (c *call) invite() *sip.Message {
	c.inv = sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodInvite, RequestURI: c.b.URI.String(), From: c.a, To: c.b,
		CallID: c.id, CSeq: sip.CSeq{Seq: c.cseq, Method: sip.MethodInvite}, Via: c.via(c.aIP),
		Body: c.body("caller", c.aMedia), BodyType: "application/sdp",
	})
	return c.inv
}

func (c *call) reply(code int, withSDP bool) *sip.Message {
	m := sip.NewResponse(c.inv, code, c.bTag)
	if withSDP {
		m.Headers.Add(sip.HdrContentType, "application/sdp")
		m.Body = c.body("callee", c.bMedia)
	}
	return m
}

// inDialog builds a caller request inside the established dialog.
func (c *call) inDialog(method sip.Method, body []byte) *sip.Message {
	seq := c.cseq
	if method != sip.MethodAck {
		c.cseq++
		seq = c.cseq
	}
	spec := sip.RequestSpec{
		Method: method, RequestURI: c.b.URI.String(), From: c.a, To: c.b.WithTag(c.bTag),
		CallID: c.id, CSeq: sip.CSeq{Seq: seq, Method: method}, Via: c.via(c.aIP), Body: body,
	}
	if body != nil {
		spec.BodyType = "application/sdp"
	}
	return sip.NewRequest(spec)
}

// finish merges the scripts into capture order, encodes the capture and
// resolves marks and expected alerts to frame indices.
func (g *gen) finish(w *workload) *workload {
	sort.SliceStable(g.frames, func(i, j int) bool { return g.frames[i].at < g.frames[j].at })
	total := 6
	for i := range g.frames {
		total += 12 + len(g.frames[i].data)
	}
	var buf bytes.Buffer
	buf.Grow(total)
	cw := capture.NewWriter(&buf)
	for i := range g.frames {
		if err := cw.WriteFrame(g.frames[i].at, g.frames[i].data); err != nil {
			panic(err)
		}
	}
	if err := cw.Close(); err != nil {
		panic(err)
	}
	w.scap = buf.Bytes()
	w.recs = make([]capture.Record, len(g.frames))
	w.class = make([]frameClass, len(g.frames))
	w.benign = g.benign
	// SCAP layout (capture package doc): 6-byte header, then per record
	// an 8-byte time, a 4-byte length and the frame. The records alias the
	// encoded bytes so a workload is resident once.
	off := 6
	for i := range g.frames {
		f := &g.frames[i]
		off += 12
		w.recs[i] = capture.Record{Time: f.at, Frame: w.scap[off : off+len(f.data) : off+len(f.data)]}
		off += len(f.data)
		w.class[i] = f.class
		for _, k := range f.alerts {
			w.expected = append(w.expected, expectedAlert{k, i})
		}
		if f.mark&markPeak != 0 {
			w.peakIndex = i + 1
		}
		if f.mark&markPaced != 0 {
			w.pacedFrom = i
		}
	}
	g.frames = nil
	return w
}
