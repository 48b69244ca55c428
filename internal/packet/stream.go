package packet

import (
	"net/netip"
	"sort"
	"time"
)

// StreamID identifies one direction of a TCP flow. Each direction has its
// own sequence space, so each is reassembled as its own stream.
type StreamID struct {
	Src, Dst netip.AddrPort
}

// less orders stream identities deterministically (eviction tie-breaks
// and snapshot export order).
func (a StreamID) less(b StreamID) bool {
	if c := a.Src.Addr().Compare(b.Src.Addr()); c != 0 {
		return c < 0
	}
	if a.Src.Port() != b.Src.Port() {
		return a.Src.Port() < b.Src.Port()
	}
	if c := a.Dst.Addr().Compare(b.Dst.Addr()); c != 0 {
		return c < 0
	}
	return a.Dst.Port() < b.Dst.Port()
}

// maxStreamPending bounds the out-of-order bytes buffered per stream;
// segments that would exceed it are dropped (a real stack's receive
// window closes the same way).
const maxStreamPending = 1 << 18

// streamSeg is one out-of-order byte range waiting for its gap to fill.
type streamSeg struct {
	seq  uint32
	data []byte
}

// streamState is the reassembly state of one stream direction.
type streamState struct {
	next         uint32 // next in-order sequence number expected
	fin          bool   // FIN seen; finSeq is the sequence number past the last byte
	finSeq       uint32
	pending      []streamSeg // out-of-order segments, sorted by seq, non-overlapping
	pendingBytes int
	first        time.Duration // creation time (eviction order)
	last         time.Duration // last activity (expiry)
}

// StreamReassembler reconstructs the in-order byte streams of TCP flows
// from segments observed on the wire. It is the stream-transport sibling
// of the IPv4 fragment Reassembler and follows the same conventions: a
// caller-supplied virtual clock, expiry of idle streams at the top of
// every Push, an optional capacity limit with oldest-first eviction
// (ties broken by stream identity) reported through OnEvict, and
// deterministic state export/import for checkpoints.
//
// Overlap policy: the earlier arrival wins. Bytes already delivered or
// already buffered are never overwritten by a later segment, so a
// retransmission that disagrees with the original cannot rewrite what
// the analyzer saw.
type StreamReassembler struct {
	timeout  time.Duration
	streams  map[StreamID]*streamState
	limit    int // max concurrent streams retained; 0 means unbounded
	evicted  int // streams dropped to respect limit (not timeouts)
	onEvict  func(StreamID)
	onExpire func(StreamID)

	// floor is a lower bound on every tracked stream's last activity, so
	// Expire only ranges over the table once now has passed it by the
	// timeout. Every activity lowers it (capture time can step back), and
	// a scan raises it to the exact minimum.
	floor time.Duration
}

// NewStreamReassembler returns a StreamReassembler that discards streams
// idle longer than timeout. A non-positive timeout uses
// DefaultReassemblyTimeout.
func NewStreamReassembler(timeout time.Duration) *StreamReassembler {
	if timeout <= 0 {
		timeout = DefaultReassemblyTimeout
	}
	return &StreamReassembler{timeout: timeout, streams: make(map[StreamID]*streamState)}
}

// Pending returns the number of streams currently tracked.
func (r *StreamReassembler) Pending() int { return len(r.streams) }

// SetLimit caps the number of concurrent streams retained at once. When a
// new stream would exceed the cap, the oldest stream is evicted (ties
// broken by stream identity). A non-positive limit means unbounded.
func (r *StreamReassembler) SetLimit(n int) { r.limit = n }

// OnEvict registers a callback invoked with the identity of every stream
// dropped to respect the capacity limit (timeout expiry does not fire it:
// callers track timeouts themselves via the shared virtual clock).
func (r *StreamReassembler) OnEvict(fn func(StreamID)) { r.onEvict = fn }

// OnExpire registers a callback invoked with the identity of every stream
// dropped by idle-timeout expiry, so callers can discard per-stream state
// of their own (framing buffers) on the same deterministic clock.
func (r *StreamReassembler) OnExpire(fn func(StreamID)) { r.onExpire = fn }

// CapacityEvicted reports how many streams were dropped to respect the
// capacity limit.
func (r *StreamReassembler) CapacityEvicted() int { return r.evicted }

func (r *StreamReassembler) evictOldest(keep StreamID) {
	var victim StreamID
	found := false
	for k, st := range r.streams {
		if k == keep {
			continue
		}
		if !found || st.first < r.streams[victim].first ||
			(st.first == r.streams[victim].first && k.less(victim)) {
			victim, found = k, true
		}
	}
	if !found {
		return
	}
	delete(r.streams, victim)
	r.evicted++
	if r.onEvict != nil {
		r.onEvict(victim)
	}
}

// Expire drops streams idle longer than the timeout as of now. It costs
// one comparison until some stream can have gone idle that long.
func (r *StreamReassembler) Expire(now time.Duration) {
	if now-r.floor <= r.timeout {
		return
	}
	floor := now
	for k, st := range r.streams {
		if now-st.last > r.timeout {
			delete(r.streams, k)
			if r.onExpire != nil {
				r.onExpire(k)
			}
		} else {
			floor = min(floor, st.last)
		}
	}
	r.floor = floor
}

// Push feeds one TCP segment into the stream identified by id. In-order
// payload bytes — including previously buffered out-of-order segments
// whose gap this segment fills — are handed to deliver in sequence order
// (the slices alias the segment or internal buffers and are only valid
// during the call). Push returns closed=true when the segment tears the
// stream down: an RST, or a FIN whose preceding bytes have all been
// delivered. The caller's per-flow framing state should be discarded when
// a stream closes.
//
// A SYN (re)establishes the stream's initial sequence number; a segment
// for an unknown stream adopts its sequence number as the starting point,
// so monitoring can attach mid-flow.
func (r *StreamReassembler) Push(id StreamID, h TCPHeader, payload []byte, now time.Duration, deliver func([]byte)) (closed bool) {
	r.Expire(now)
	if h.RST() {
		delete(r.streams, id)
		return true
	}
	st, ok := r.streams[id]
	switch {
	case !ok:
		if r.limit > 0 && len(r.streams) >= r.limit {
			r.evictOldest(id)
		}
		st = &streamState{first: now}
		if h.SYN() {
			st.next = h.Seq + 1
		} else {
			st.next = h.Seq
		}
		r.streams[id] = st
	case h.SYN():
		// A fresh SYN resets the direction (new connection reusing the
		// 4-tuple); buffered bytes of the old incarnation are dropped.
		st.next = h.Seq + 1
		st.fin = false
		st.pending = st.pending[:0]
		st.pendingBytes = 0
	}
	st.last = now
	r.floor = min(r.floor, now)
	seq := h.Seq
	if h.SYN() {
		seq++ // SYN occupies one sequence number
	}
	if len(payload) > 0 {
		// Trim bytes already delivered.
		if d := int32(st.next - seq); d > 0 {
			if int(d) >= len(payload) {
				payload = nil
			} else {
				payload = payload[d:]
				seq = st.next
			}
		}
	}
	if len(payload) > 0 {
		if seq == st.next && len(st.pending) == 0 {
			// In-order fast path: no buffering, no copy.
			deliver(payload)
			st.next += uint32(len(payload))
		} else if int32(seq-st.next) > 0 {
			r.buffer(st, seq, payload)
		} else {
			// seq == st.next with buffered segments ahead: insert then
			// flush so overlaps resolve against the earlier arrivals.
			r.buffer(st, seq, payload)
		}
		r.flush(st, deliver)
	}
	if h.FIN() {
		st.fin = true
		st.finSeq = seq + uint32(len(payload))
	}
	if st.fin && int32(st.next-st.finSeq) >= 0 {
		delete(r.streams, id)
		return true
	}
	return false
}

// buffer inserts payload at seq into the pending list, trimming it to the
// gaps left by already-buffered segments (earlier arrival wins). The
// bytes are copied; payload may alias a caller buffer.
func (r *StreamReassembler) buffer(st *streamState, seq uint32, payload []byte) {
	for len(payload) > 0 {
		// Find the first existing segment ending after seq.
		i := sort.Search(len(st.pending), func(i int) bool {
			p := st.pending[i]
			return int32(p.seq+uint32(len(p.data))-seq) > 0
		})
		end := seq + uint32(len(payload))
		if i < len(st.pending) && int32(st.pending[i].seq-seq) <= 0 {
			// seq falls inside pending[i]: skip the covered prefix.
			skip := st.pending[i].seq + uint32(len(st.pending[i].data)) - seq
			if int(skip) >= len(payload) {
				return
			}
			payload = payload[skip:]
			seq += skip
			continue
		}
		// seq is in a gap; clip the piece at the next segment's start.
		pieceEnd := end
		if i < len(st.pending) && int32(st.pending[i].seq-pieceEnd) < 0 {
			pieceEnd = st.pending[i].seq
		}
		n := int(pieceEnd - seq)
		if st.pendingBytes+n > maxStreamPending {
			return // over budget: drop, as a closed receive window would
		}
		seg := streamSeg{seq: seq, data: append([]byte(nil), payload[:n]...)}
		st.pending = append(st.pending, streamSeg{})
		copy(st.pending[i+1:], st.pending[i:])
		st.pending[i] = seg
		st.pendingBytes += n
		payload = payload[n:]
		seq = pieceEnd
	}
}

// flush delivers buffered segments that have become in-order.
func (r *StreamReassembler) flush(st *streamState, deliver func([]byte)) {
	for len(st.pending) > 0 {
		p := st.pending[0]
		if d := int32(st.next - p.seq); d > 0 {
			// Head overlaps delivered bytes (possible after a SYN reset).
			if int(d) >= len(p.data) {
				st.pendingBytes -= len(p.data)
				st.pending = st.pending[1:]
				continue
			}
			p.data = p.data[d:]
			p.seq = st.next
		}
		if p.seq != st.next {
			return
		}
		deliver(p.data)
		st.next += uint32(len(p.data))
		st.pendingBytes -= len(st.pending[0].data)
		st.pending = st.pending[1:]
	}
}

// TCPStreamSeg is one exported out-of-order byte range.
type TCPStreamSeg struct {
	Seq  uint32
	Data []byte
}

// TCPStreamState is the exported state of one tracked stream direction,
// used to checkpoint and restore reassembly across process restarts.
type TCPStreamState struct {
	ID     StreamID
	Next   uint32
	Fin    bool
	FinSeq uint32
	First  time.Duration
	Last   time.Duration
	Segs   []TCPStreamSeg
}

// ExportStreams returns every tracked stream in deterministic order
// (sorted by identity). Buffered bytes are copied.
func (r *StreamReassembler) ExportStreams() []TCPStreamState {
	keys := make([]StreamID, 0, len(r.streams))
	for k := range r.streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	out := make([]TCPStreamState, len(keys))
	for i, k := range keys {
		st := r.streams[k]
		es := TCPStreamState{
			ID: k, Next: st.next, Fin: st.fin, FinSeq: st.finSeq,
			First: st.first, Last: st.last,
		}
		for _, p := range st.pending {
			es.Segs = append(es.Segs, TCPStreamSeg{Seq: p.seq, Data: append([]byte(nil), p.data...)})
		}
		out[i] = es
	}
	return out
}

// ImportStreams replaces the stream table with the given exported state
// and sets the capacity-eviction counter (both usually from a snapshot).
// Segments are re-inserted through the overlap-trimming path, so a
// hand-crafted state that violates the sorted/non-overlapping invariant
// is sanitized rather than trusted.
func (r *StreamReassembler) ImportStreams(streams []TCPStreamState, evicted int) {
	clear(r.streams)
	r.floor = 0
	for i, es := range streams {
		if i == 0 || es.Last < r.floor {
			r.floor = es.Last
		}
		st := &streamState{
			next: es.Next, fin: es.Fin, finSeq: es.FinSeq,
			first: es.First, last: es.Last,
		}
		for _, sg := range es.Segs {
			if len(sg.Data) == 0 {
				continue
			}
			seq, data := sg.Seq, sg.Data
			if d := int32(st.next - seq); d > 0 {
				if int(d) >= len(data) {
					continue
				}
				seq, data = st.next, data[d:]
			}
			r.buffer(st, seq, data)
		}
		r.streams[es.ID] = st
	}
	r.evicted = evicted
}
