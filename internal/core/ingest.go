package core

// The parallel ingest front end for ShardedEngine.
//
// With a single router goroutine, every frame's Ethernet/IPv4/UDP decode
// and protocol peek (SIP parse, RTP/RTCP header peek, accounting parse)
// runs under the routing lock — the ingest bottleneck that flattens
// shard scaling. The ingest tier splits that work in two:
//
//	HandleFrame ──▶ feeder ──▶ lane 0 ┐
//	               (deals 64-  lane 1 ├──▶ sequencer ──▶ shard queues
//	                frame      …      │   (arrival-order
//	                blocks     lane N ┘    stateful routing)
//	                round-robin)
//
//   - N decode lanes each own an instance of the decode stage
//     (classify.go) and run that *stateless* per-frame work — the
//     expensive part — fully in parallel, summarizing each frame into a
//     small digest.
//   - One sequencer consumes the digest batches in the exact order the
//     feeder dealt them and runs only the *stateful* route stage
//     (directory transitions, hinter verdicts, sticky-key pinning, shard
//     handoff) under the routing lock, batch-at-a-time — the same stage
//     the synchronous router runs on the digest it decodes inline.
//
// Determinism argument: the feeder deals whole batches to lanes in strict
// rotation while holding feedMu, so the global batch order is the arrival
// order. Each lane is FIFO, and the sequencer reads lane outputs in the
// same strict rotation, so it observes batches — and therefore frames —
// in exactly the order HandleFrame accepted them. All order-sensitive
// state (session directory, reassembler clocks, hinter correlators,
// sticky keys, frame indices and merge tags) is touched only by the
// sequencer, single-threaded, so the routing decisions are byte-for-byte
// the decisions the synchronous router would have made. The differential
// tests in ingest_diff_test.go hold every (ingesters × shards) point to
// byte-identical output with the serial engine.
//
// The only work a lane performs against shared state is the registry's
// port claims and content confirmers, which are pure functions of the
// port numbers and payload bytes (see correlator.go, classify.go) — safe
// to call concurrently with the sequencer.
//
// Deadlock freedom: the stages form a DAG (feeder → lane.in → lane.out →
// sequencer → shard queues) with every edge a bounded channel and no
// back-edges; the batch pool's free list is refilled by the sequencer,
// which never blocks on the feeder. Backpressure propagates cleanly:
// a full shard queue stalls the sequencer, then the lanes, then
// HandleFrame — exactly the synchronous router's behavior.
//
// Steady-state frames allocate nothing: batches come from a fixed
// recycled pool, digests are written in place, and the lane's parser and
// message slots are lane-owned. TestSteadyStateAllocs holds the RTP/RTCP
// path with ingest lanes to 0 allocs/op.

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/sip"
)

const (
	// ingBatchSize frames are dealt to a lane per rotation turn. Matches
	// shardBatchSize so one ingest batch amortizes the routing lock the
	// same way a shard batch amortizes a queue send.
	ingBatchSize = 64
	// ingQueueDepth bounds each lane's input and output channels.
	ingQueueDepth = 2
)

// ingDigest is one frame's decode summary — the few scalars the route
// stage needs from a decoded view — written in place by a lane (or on
// the synchronous router's stack) and consumed once by the router.
type ingDigest struct {
	// pre is how far the prelude got, which is exactly what the sequencer
	// must replay to keep the router's clocks and state serial-identical:
	// nothing (preDrop), the reassembly clocks (preClock), the whole
	// frame through the stateful reassembly of routeLocked (preFrag,
	// preTCP), or the clocks plus the route stage (preDatagram).
	pre      preludeKind
	at       time.Duration
	frame    []byte
	src, dst netip.AddrPort
	// The decode result (preDatagram): the protocol the payload
	// dispatches under, and ok=false for a raw payload no decoder took.
	proto  Protocol
	ok     bool
	seq    uint16       // RTP sequence number
	msg    *sip.Message // parsed SIP message (aliases the frame)
	callID string       // accounting Call-ID
	start  bool         // accounting START transaction
}

// digest runs decode for a caller that keeps no view — the router and
// the lanes, which want a routing decision and not a footprint — and
// summarizes the result into d.
func (dc *decoder) digest(claimed Protocol, sniffed bool, payload []byte, msg *sip.Message, d *ingDigest) {
	var v FrameView
	dc.decode(claimed, sniffed, payload, msg, &v)
	d.proto, d.ok = v.dispatchProto(), v.Proto != ProtoOther
	d.seq, d.msg = v.RTP.Seq, v.Msg
	d.callID, d.start = v.Txn.CallID, v.Txn.Kind == accounting.TxnStart
}

// ingBatch carries ingBatchSize consecutive frames from the feeder
// through one lane to the sequencer. A frame that decodes as SIP parses
// into the batch's message slot of the same index; the parsed views
// alias the retained frames, which outlive the batch's trip through the
// sequencer.
type ingBatch struct {
	lane int
	n    int
	dig  [ingBatchSize]ingDigest
	msgs [ingBatchSize]sip.Message
}

// reset clears the frame references of a consumed batch before it
// returns to the free pool. The SIP message slots keep their internal
// buffers (that reuse is what makes lane parsing cheap), mirroring the
// synchronous router's single scratch message.
func (b *ingBatch) reset() {
	clear(b.dig[:b.n])
	b.n = 0
}

// ingMsg is one unit on a lane's channels: a digest batch, or a drain
// marker the sequencer acks by closing it.
type ingMsg struct {
	batch  *ingBatch
	marker chan struct{}
}

// ingLane is one decode worker: a goroutine with a private decode stage,
// fed batches over in, forwarding them decoded over out.
type ingLane struct {
	in  chan ingMsg
	out chan ingMsg
	dec decoder

	fed       atomic.Uint64
	decoded   atomic.Uint64
	sequenced atomic.Uint64
}

// ingestTier owns the decode lanes and the sequencer.
type ingestTier struct {
	owner *ShardedEngine
	lanes []*ingLane

	feedMu sync.Mutex // serializes feeding: arrival order is feed order
	closed bool
	fill   *ingBatch // partially filled batch not yet dealt to a lane
	rot    int       // next lane in the deal rotation

	free    chan *ingBatch // fixed recycled batch pool
	seqDone chan struct{}
}

func newIngestTier(s *ShardedEngine, n int) *ingestTier {
	t := &ingestTier{
		owner:   s,
		lanes:   make([]*ingLane, n),
		seqDone: make(chan struct{}),
	}
	// Fixed pool: every batch that can be in flight at once (per lane:
	// in-queue, out-queue, one being decoded) plus the feeder's fill
	// batch and the sequencer's current batch, with one spare so the
	// feeder rarely waits.
	poolSize := n*(2*ingQueueDepth+1) + 3
	t.free = make(chan *ingBatch, poolSize)
	for i := 0; i < poolSize; i++ {
		t.free <- new(ingBatch)
	}
	for i := range t.lanes {
		l := &ingLane{
			in:  make(chan ingMsg, ingQueueDepth),
			out: make(chan ingMsg, ingQueueDepth),
			dec: newDecoder(s.correlators),
		}
		t.lanes[i] = l
		go l.run()
	}
	go t.sequence()
	return t
}

// feed accepts one frame in arrival order. It appends to the fill batch
// and deals the batch to the next lane in rotation when full. Blocking
// on a full lane (or an empty pool) is the backpressure path.
func (t *ingestTier) feed(at time.Duration, frame []byte) {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		t.owner.framesAfterClose.Add(1)
		return
	}
	b := t.fill
	if b == nil {
		b = <-t.free
		t.fill = b
	}
	b.dig[b.n] = ingDigest{at: at, frame: frame}
	b.n++
	if b.n == ingBatchSize {
		t.fill = nil
		t.dealLocked(b)
	}
	t.feedMu.Unlock()
}

// dealLocked hands a filled batch to the next lane in rotation. Called
// with feedMu held: the rotation position is the batch's global order.
func (t *ingestTier) dealLocked(b *ingBatch) {
	lane := t.rot % len(t.lanes)
	t.rot++
	b.lane = lane
	t.lanes[lane].fed.Add(uint64(b.n))
	t.lanes[lane].in <- ingMsg{batch: b}
}

// drain flushes the fill batch and sends one marker through every lane
// in rotation, then waits until the sequencer has consumed the last
// marker — at which point every frame fed before the call has been
// sequenced into its shard queue. Safe to call concurrently; no-op after
// close.
func (t *ingestTier) drain() {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		return
	}
	if t.fill != nil && t.fill.n > 0 {
		b := t.fill
		t.fill = nil
		t.dealLocked(b)
	}
	// One marker per lane, dealt through the same rotation as data
	// batches; only the rotation's last marker carries the ack channel
	// (the sequencer reaches it strictly after the other N-1).
	done := make(chan struct{})
	for i := 0; i < len(t.lanes); i++ {
		var m ingMsg
		if i == len(t.lanes)-1 {
			m.marker = done
		}
		lane := t.rot % len(t.lanes)
		t.rot++
		t.lanes[lane].in <- m
	}
	t.feedMu.Unlock()
	// The sequencer closes done when it consumes the rotation's last
	// marker; per-lane FIFO plus strict rotation mean everything dealt
	// before the markers has been sequenced by then.
	<-done
}

// close drains in-flight work and stops the lane and sequencer
// goroutines. Subsequent feeds count as after-close. Idempotent.
func (t *ingestTier) close() {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		return
	}
	t.closed = true
	if t.fill != nil && t.fill.n > 0 {
		b := t.fill
		t.fill = nil
		t.dealLocked(b)
	}
	for _, l := range t.lanes {
		close(l.in)
	}
	t.feedMu.Unlock()
	<-t.seqDone
}

func (l *ingLane) run() {
	defer close(l.out)
	for m := range l.in {
		if b := m.batch; b != nil {
			for i := 0; i < b.n; i++ {
				l.decodeOne(&b.dig[i], &b.msgs[i])
			}
			l.decoded.Add(uint64(b.n))
		}
		l.out <- m
	}
}

// decodeOne runs the decode stage for one frame. Fragments and TCP
// segments stop at the prelude: what follows for them is stateful.
func (l *ingLane) decodeOne(d *ingDigest, msg *sip.Message) {
	var p prelude
	l.dec.prelude(d.frame, &p)
	if d.pre = p.kind; d.pre == preDatagram {
		d.src, d.dst = p.src, p.dst
		l.dec.digest(p.proto, false, p.payload, msg, d)
	}
}

// sequence is the single consumer of every lane's output. Reading lanes
// in the same strict rotation the feeder dealt them restores the global
// arrival order; each batch is replayed into the routing path under the
// routing lock, one lock acquisition per 64 frames.
func (t *ingestTier) sequence() {
	defer close(t.seqDone)
	s := t.owner
	for r := 0; ; r++ {
		m, ok := <-t.lanes[r%len(t.lanes)].out
		if !ok {
			// Lanes close in-rotation once the feeder closed their
			// inputs; a closed lane at this rotation slot means nothing
			// was dealt here or later.
			return
		}
		if m.batch == nil {
			if m.marker != nil {
				close(m.marker)
			}
			continue
		}
		b := m.batch
		s.mu.Lock()
		for i := 0; i < b.n; i++ {
			d := &b.dig[i]
			s.frames.Add(1)
			s.frameIdx++
			if s.frameIdx%gcEvery == 0 {
				s.expireLocked(d.at)
			}
			s.sequenceDigestLocked(s.frameIdx, d)
		}
		s.mu.Unlock()
		t.lanes[b.lane].sequenced.Add(uint64(b.n))
		b.reset()
		t.free <- b
	}
}

// sequenceDigestLocked replays what the synchronous routeLocked does
// after the point the lane's digest captured.
func (s *ShardedEngine) sequenceDigestLocked(idx uint64, d *ingDigest) {
	switch d.pre {
	case preFrag, preTCP:
		s.routeLocked(idx, d.at, d.frame)
	case preClock, preDatagram:
		// Unfragmented past IPv4 decode: the reassembly clocks advance
		// (reassemble's default arm), then a datagram routes.
		s.frags.expire(s.reasm, d.at)
		if d.pre == preDatagram {
			s.shipLocked(idx, d, nil)
		}
	}
}
