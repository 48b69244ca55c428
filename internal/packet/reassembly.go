package packet

import (
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// fragKey identifies a fragment stream per RFC 791: source, destination,
// protocol, and identification.
type fragKey struct {
	src, dst netip.Addr
	proto    uint8
	id       uint16
}

// FragID is the exported identity of a fragment stream, handed to
// eviction callbacks so callers mirroring reassembly state can drop the
// same stream.
type FragID struct {
	Src, Dst netip.Addr
	Proto    uint8
	ID       uint16
}

func (k fragKey) exported() FragID {
	return FragID{Src: k.src, Dst: k.dst, Proto: k.proto, ID: k.id}
}

// less orders fragment streams deterministically (oldest-eviction
// tie-break): by source, destination, protocol, then identification.
func (k fragKey) less(o fragKey) bool {
	if c := k.src.Compare(o.src); c != 0 {
		return c < 0
	}
	if c := k.dst.Compare(o.dst); c != 0 {
		return c < 0
	}
	if k.proto != o.proto {
		return k.proto < o.proto
	}
	return k.id < o.id
}

// fragBuf accumulates the fragments of one packet.
type fragBuf struct {
	data     []byte // reassembled payload, grown as fragments arrive
	have     []bool // per-8-byte-unit coverage map
	totalLen int    // payload length, known once the last fragment arrives (-1 until then)
	first    time.Duration
}

// Reassembler reassembles fragmented IPv4 packets. It is keyed on
// (src, dst, protocol, ID) and evicts incomplete packets that exceed the
// configured timeout. Time is supplied by the caller (the simulation's
// virtual clock) rather than read from the wall clock.
//
// The zero value is not ready for use; call NewReassembler.
type Reassembler struct {
	timeout time.Duration
	bufs    map[fragKey]*fragBuf
	limit   int // max incomplete streams retained; 0 means unbounded
	evicted int // streams dropped to respect limit (not timeouts)
	onEvict func(FragID)

	// floor is a lower bound on every buffered stream's first arrival, so
	// Expire only ranges over the table once now has passed it by the
	// timeout. A new stream lowers it (capture time can step back) or, in
	// an empty table, sets it; a scan raises it to the exact minimum.
	floor time.Duration
}

// DefaultReassemblyTimeout is how long an incomplete packet is retained.
const DefaultReassemblyTimeout = 30 * time.Second

// NewReassembler returns a Reassembler that discards incomplete packets
// older than timeout. A non-positive timeout uses DefaultReassemblyTimeout.
func NewReassembler(timeout time.Duration) *Reassembler {
	if timeout <= 0 {
		timeout = DefaultReassemblyTimeout
	}
	return &Reassembler{timeout: timeout, bufs: make(map[fragKey]*fragBuf)}
}

// Pending returns the number of incomplete packets currently buffered.
func (r *Reassembler) Pending() int { return len(r.bufs) }

// SetLimit caps the number of incomplete fragment streams retained at
// once. When a new stream would exceed the cap, the oldest incomplete
// stream is evicted (ties broken by stream identity). A non-positive
// limit means unbounded.
func (r *Reassembler) SetLimit(n int) { r.limit = n }

// OnEvict registers a callback invoked with the identity of every stream
// dropped to respect the capacity limit (timeout expiry does not fire
// it: callers track timeouts themselves via the shared virtual clock).
func (r *Reassembler) OnEvict(fn func(FragID)) { r.onEvict = fn }

// CapacityEvicted reports how many incomplete streams were dropped to
// respect the capacity limit.
func (r *Reassembler) CapacityEvicted() int { return r.evicted }

// evictOldest drops the oldest incomplete stream other than keep.
func (r *Reassembler) evictOldest(keep fragKey) {
	var victim fragKey
	found := false
	for k, fb := range r.bufs {
		if k == keep {
			continue
		}
		if !found || fb.first < r.bufs[victim].first ||
			(fb.first == r.bufs[victim].first && k.less(victim)) {
			victim, found = k, true
		}
	}
	if !found {
		return
	}
	delete(r.bufs, victim)
	r.evicted++
	if r.onEvict != nil {
		r.onEvict(victim.exported())
	}
}

// Insert adds one IPv4 packet (possibly a fragment) observed at the given
// virtual time. If the packet is unfragmented, or completes a fragment
// set, Insert returns the header and full payload with done=true. The
// returned payload is owned by the caller for fragmented packets but
// aliases payload for unfragmented ones.
func (r *Reassembler) Insert(h IPv4Header, payload []byte, now time.Duration) (IPv4Header, []byte, bool, error) {
	r.Expire(now)
	if h.FragOffset == 0 && !h.MoreFragments() {
		return h, payload, true, nil
	}
	if h.FragOffset != 0 && len(payload)%8 != 0 && h.MoreFragments() {
		return IPv4Header{}, nil, false, fmt.Errorf("ipv4 reassembly: non-final fragment payload %d not a multiple of 8", len(payload))
	}
	key := fragKey{src: h.Src, dst: h.Dst, proto: h.Protocol, id: h.ID}
	fb, ok := r.bufs[key]
	if !ok {
		if r.limit > 0 && len(r.bufs) >= r.limit {
			r.evictOldest(key)
		}
		if len(r.bufs) == 0 || now < r.floor {
			r.floor = now
		}
		fb = &fragBuf{totalLen: -1, first: now}
		r.bufs[key] = fb
	}
	off := int(h.FragOffset) * 8
	end := off + len(payload)
	if end > 0xffff {
		return IPv4Header{}, nil, false, fmt.Errorf("ipv4 reassembly: fragment end %d exceeds maximum packet size", end)
	}
	if end > len(fb.data) {
		grown := make([]byte, end)
		copy(grown, fb.data)
		fb.data = grown
		units := (end + 7) / 8
		grownHave := make([]bool, units)
		copy(grownHave, fb.have)
		fb.have = grownHave
	}
	copy(fb.data[off:end], payload)
	for u := off / 8; u < (end+7)/8; u++ {
		fb.have[u] = true
	}
	if !h.MoreFragments() {
		fb.totalLen = end
	}
	if fb.totalLen < 0 || len(fb.data) < fb.totalLen {
		return IPv4Header{}, nil, false, nil
	}
	for u := 0; u < (fb.totalLen+7)/8; u++ {
		if !fb.have[u] {
			return IPv4Header{}, nil, false, nil
		}
	}
	delete(r.bufs, key)
	hh := h
	hh.Flags &^= FlagMF
	hh.FragOffset = 0
	hh.TotalLen = uint16(IPv4HeaderLen + fb.totalLen)
	return hh, fb.data[:fb.totalLen], true, nil
}

// Expire drops incomplete packets older than the timeout as of now.
// Callers expire on every frame, so until some packet can be that old it
// costs one comparison.
func (r *Reassembler) Expire(now time.Duration) {
	if len(r.bufs) == 0 || now-r.floor <= r.timeout {
		return
	}
	floor := now
	for k, fb := range r.bufs {
		if now-fb.first > r.timeout {
			delete(r.bufs, k)
		} else {
			floor = min(floor, fb.first)
		}
	}
	r.floor = floor
}

// FragStream is the exported state of one incomplete fragment stream, used
// by checkpoint/restore to carry reassembly buffers across a process
// restart.
type FragStream struct {
	ID       FragID
	Data     []byte
	Have     []bool
	TotalLen int
	First    time.Duration
}

// ExportStreams returns every incomplete stream in deterministic order
// (the eviction tie-break order), with buffers copied so the caller may
// retain them.
func (r *Reassembler) ExportStreams() []FragStream {
	keys := make([]fragKey, 0, len(r.bufs))
	for k := range r.bufs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	out := make([]FragStream, len(keys))
	for i, k := range keys {
		fb := r.bufs[k]
		out[i] = FragStream{
			ID:       k.exported(),
			Data:     append([]byte(nil), fb.data...),
			Have:     append([]bool(nil), fb.have...),
			TotalLen: fb.totalLen,
			First:    fb.first,
		}
	}
	return out
}

// ImportStreams replaces the incomplete-stream table with the given
// exported streams (checkpoint restore). The capacity-eviction counter is
// set to evicted so restored stats reconcile.
func (r *Reassembler) ImportStreams(streams []FragStream, evicted int) {
	clear(r.bufs)
	r.floor = 0
	for i, st := range streams {
		if i == 0 || st.First < r.floor {
			r.floor = st.First
		}
		k := fragKey{src: st.ID.Src, dst: st.ID.Dst, proto: st.ID.Proto, id: st.ID.ID}
		r.bufs[k] = &fragBuf{
			data:     append([]byte(nil), st.Data...),
			have:     append([]bool(nil), st.Have...),
			totalLen: st.TotalLen,
			first:    st.First,
		}
	}
	r.evicted = evicted
}
