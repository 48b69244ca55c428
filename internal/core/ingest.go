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
//     expensive part — fully in parallel, leaving each datagram's decoded
//     result in its digest in the form it will travel to a shard.
//   - One sequencer consumes the digest batches in the exact order the
//     feeder dealt them and runs only the *stateful* route stage
//     (directory transitions, hinter verdicts, sticky-key pinning, shard
//     handoff) under the routing lock, batch-at-a-time — the same stage
//     the synchronous router runs on the result it decodes inline.
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
// Steady-state media frames allocate nothing: batches come from a fixed
// recycled pool and a media packet's 64-byte slot is packed into its
// digest in place (TestSteadyStateAllocs holds RTP/RTCP through the lanes
// to 0 allocs/op). A SIP frame costs what it costs the serial distiller:
// the owned Message its shard's trail will retain, parsed here, once.
//
// A lane decodes on another goroutine than the feeder, so unlike the
// synchronous router the tier keeps each fed frame until its batch has
// been sequenced: feeders must not reuse frame buffers.

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// ingBatchSize frames are dealt to a lane per rotation turn. Matches
	// shardBatchSize so one ingest batch amortizes the routing lock the
	// same way a shard batch amortizes a queue send. A partial batch is
	// dealt under the same linger rule as a shard batch (linger.go).
	ingBatchSize = 64
	// ingQueueDepth bounds each lane's input and output channels.
	ingQueueDepth = 2
)

// decoded is what the decode stage hands the route stage for one
// datagram, in the form it travels to a shard: an RTP or RTCP packet as
// its packed slot (msg nil), anything else — SIP, accounting, raw — as an
// owned view whose hints the route stage fills in. Neither aliases bytes.
type decoded struct {
	media mediaSlot
	msg   *shippedMsg
}

// decodeDatagram runs decode for a caller that ships the result instead
// of keeping a view: the router and the lanes.
func (dc *decoder) decodeDatagram(at time.Duration, src, dst netip.AddrPort, claimed Protocol, payload []byte, d *decoded) {
	var v FrameView
	v.At, v.Src, v.Dst = at, src, dst
	dc.decode(claimed, false, payload, &v)
	if v.Proto == ProtoRTP || v.Proto == ProtoRTCP {
		d.media.pack(&v)
		d.msg = nil
		return
	}
	d.msg = &shippedMsg{view: v}
}

// ingDigest is one frame's trip through the tier: fed as (at, frame),
// decoded in place by a lane, consumed once by the sequencer.
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
	// The decode result (preDatagram).
	decoded
}

// ingBatch carries ingBatchSize consecutive frames from the feeder
// through one lane to the sequencer.
type ingBatch struct {
	lane int
	n    int
	dig  [ingBatchSize]ingDigest
}

// reset clears the frame and message references of a consumed batch
// before it returns to the free pool.
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

	feedMu  sync.Mutex // serializes feeding: arrival order is feed order
	closed  bool
	fill    *ingBatch     // partially filled batch not yet dealt to a lane
	opened  batchStamp    // when fill took its first frame (linger clock)
	rot     int           // next lane in the deal rotation
	lg      linger        // the age bound on fill
	offered atomic.Uint64 // frames HandleFrame fed (the backstops' activity count)

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
	t.lg.init(t.offered.Load, t.lingerIdle)
	go t.sequence()
	return t
}

// feed accepts one frame in arrival order. It appends to the fill batch
// and deals the batch to the next lane in rotation when full, or when the
// linger says it has waited long enough. Blocking on a full lane (or an empty pool) is
// the backpressure path.
func (t *ingestTier) feed(at time.Duration, frame []byte) {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		t.owner.framesAfterClose.Add(1)
		return
	}
	t.offered.Add(1)
	t.lg.frame()
	b := t.fill
	if b == nil {
		b = <-t.free
		t.fill = b
		t.opened = t.lg.open()
	}
	b.dig[b.n] = ingDigest{at: at, frame: frame}
	b.n++
	if b.n == ingBatchSize {
		t.lg.filled()
		t.fill = nil
		t.dealLocked(b)
	} else if t.lg.due() {
		if now, measuring := t.lg.check(); t.lg.expired(t.opened, now, measuring) {
			t.fill = nil
			t.dealLocked(b)
		}
	}
	t.lg.done()
	t.feedMu.Unlock()
}

// lingerIdle is the backstop's quiet-tap deal: no frame was fed for a
// whole tick, so the fill batch goes to its lane now.
func (t *ingestTier) lingerIdle() {
	t.feedMu.Lock()
	defer t.feedMu.Unlock()
	if !t.closed && t.fill != nil && t.fill.n > 0 {
		b := t.fill
		t.fill = nil
		t.dealLocked(b)
	}
	t.lg.armed = false
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
	t.lg.stop()
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
				l.decodeOne(&b.dig[i])
			}
			l.decoded.Add(uint64(b.n))
		}
		l.out <- m
	}
}

// decodeOne runs the decode stage for one frame. Fragments and TCP
// segments stop at the prelude: what follows for them is stateful.
func (l *ingLane) decodeOne(d *ingDigest) {
	var p prelude
	l.dec.prelude(d.frame, &p)
	if d.pre = p.kind; d.pre == preDatagram {
		d.src, d.dst = p.src, p.dst
		l.dec.decodeDatagram(d.at, p.src, p.dst, p.proto, p.payload, &d.decoded)
	}
}

// sequence is the single consumer of every lane's output. Reading lanes
// in the same strict rotation the feeder dealt them restores the global
// arrival order; each batch is replayed into the routing path under the
// routing lock, one lock acquisition (and, while the router's linger is
// due, one age check) per digest batch.
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
		s.lg.frame()
		for i := 0; i < b.n; i++ {
			d := &b.dig[i]
			s.frames.Add(1)
			s.frameIdx++
			if s.frameIdx%gcEvery == 0 {
				s.expireLocked(d.at)
			}
			s.sequenceDigestLocked(s.frameIdx, d)
		}
		if s.lg.due() {
			s.lingerLocked()
		}
		s.lg.done()
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
			s.shipLocked(idx, d.at, d.src, d.dst, &d.decoded, 1)
		}
	}
}
