package core

import (
	"net/netip"
	"time"

	"scidive/internal/packet"
	"scidive/internal/sip"
)

// streamKind distinguishes what a stream-extracted queue entry carries.
type streamKind uint8

const (
	// streamKindMsg is a complete framed SIP message.
	streamKindMsg streamKind = iota
	// streamKindTunnel is a reassembled chunk whose content confirmed as
	// a media packet (RTP/RTCP) tunneled over the SIP-claimed stream —
	// the chunk bypassed SIP framing entirely (see classifyLadder's
	// tunnelSniff).
	streamKindTunnel
)

// streamMsg is one complete SIP message (or tunneled media chunk)
// extracted from a TCP stream. The payload aliases the flow framer's (or
// reassembler's) internal buffer, so it is only valid until that flow's
// next Push — both consumers decode it before then (decodeStream), and
// the decoded view aliases nothing. key is the flow's routing key
// (streamFlowKey), worded once per stream direction.
type streamMsg struct {
	at       time.Duration
	src, dst netip.AddrPort
	payload  []byte
	key      string
	kind     streamKind
}

// streamDir is the mux's state for one stream direction: its SIP framer
// and the flow's routing key, worded when the direction is first seen.
type streamDir struct {
	framer sip.StreamFramer
	key    string
}

func newStreamDir(id packet.StreamID) *streamDir {
	return &streamDir{key: streamFlowKey(id.Src, id.Dst)}
}

// streamMux is the stream-transport demux: a TCP stream reassembler plus
// one SIP message framer per stream direction. TCP segments go in; zero
// or more complete SIP messages come out on the queue, in stream order.
// The serial engine's distiller owns one, and the sharded engine's router
// owns one — shard-local engines hold none (TCP frames never reach a
// shard; the router ships the decoded messages instead), which is what
// keeps stream expiry and eviction identical at every shard count.
type streamMux struct {
	reasm *packet.StreamReassembler
	dirs  map[packet.StreamID]*streamDir
	queue []streamMsg
	qhead int // consumed prefix of queue, reset when it empties

	// now is the current push's clock, captured so the reassembler's
	// eviction callback can stamp self-alerts with the eviction time.
	now     time.Duration
	onEvict func(id packet.StreamID, at time.Duration)

	// sniff, when set, inspects each reassembled chunk arriving while the
	// direction's framer holds no partial message: a chunk confirming as
	// media content (RTP/RTCP tunneled over the SIP stream) is queued as a
	// streamKindTunnel entry instead of being fed to the SIP framer, where
	// its binary bytes would only poison the framing buffer.
	sniff func(chunk []byte) (Protocol, bool)
}

func newStreamMux() *streamMux {
	m := &streamMux{
		reasm: packet.NewStreamReassembler(0),
		dirs:  make(map[packet.StreamID]*streamDir),
	}
	// Reassembler teardown (capacity eviction or idle expiry) discards the
	// direction's framing buffer too: a stream that lost reassembly state
	// mid-message can never complete that message.
	m.reasm.OnEvict(func(id packet.StreamID) {
		delete(m.dirs, id)
		if m.onEvict != nil {
			m.onEvict(id, m.now)
		}
	})
	m.reasm.OnExpire(func(id packet.StreamID) {
		delete(m.dirs, id)
	})
	return m
}

// push feeds one TCP segment through reassembly and framing. Extracted
// messages accumulate on the queue for drain.
func (m *streamMux) push(at time.Duration, src, dst netip.AddrPort, h packet.TCPHeader, payload []byte) {
	m.now = at
	if m.qhead == len(m.queue) {
		m.queue, m.qhead = m.queue[:0], 0
	}
	id := packet.StreamID{Src: src, Dst: dst}
	dir := m.dirs[id]
	if dir == nil {
		dir = newStreamDir(id)
		m.dirs[id] = dir
	}
	closed := m.reasm.Push(id, h, payload, at, func(b []byte) {
		if m.sniff != nil && dir.framer.PendingBytes() == 0 {
			if _, ok := m.sniff(b); ok {
				m.queue = append(m.queue, streamMsg{at: at, src: src, dst: dst, payload: b, key: dir.key, kind: streamKindTunnel})
				return
			}
		}
		dir.framer.Push(b, func(msg []byte) {
			m.queue = append(m.queue, streamMsg{at: at, src: src, dst: dst, payload: msg, key: dir.key})
		})
	})
	if closed {
		delete(m.dirs, id)
	}
}

// drain returns the extracted messages pending since the last drain. The
// returned slice (and each payload) is valid until the next push.
func (m *streamMux) drain() []streamMsg {
	out := m.queue[m.qhead:]
	m.qhead = len(m.queue)
	return out
}

// next pops the oldest pending message, reporting ok=false when none are
// pending. The message payload is valid until the flow's next push.
func (m *streamMux) next() (streamMsg, bool) {
	if m.qhead == len(m.queue) {
		return streamMsg{}, false
	}
	msg := m.queue[m.qhead]
	m.qhead++
	return msg, true
}

// streamFlowKey is the routing key for stream-carried SIP: the canonical
// (direction-independent) TCP 4-tuple. Routing by flow rather than by
// Call-ID keeps every segment — and therefore every extracted message —
// of one stream on one shard, so merge tags of coalesced messages stay
// ordered; the sticky table then pins each dialog's media to the same
// key.
func streamFlowKey(a, b netip.AddrPort) string {
	if addrPortLess(b, a) {
		a, b = b, a
	}
	return "tcp:" + a.String() + "|" + b.String()
}

func addrPortLess(a, b netip.AddrPort) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Port() < b.Port()
}
