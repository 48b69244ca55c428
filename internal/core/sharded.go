package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/capture"
	"scidive/internal/netsim"
	"scidive/internal/packet"
	"scidive/internal/sip"
)

// ShardedEngine runs the SCIDIVE pipeline across N worker shards, each
// owning a private TrailStore, EventGenerator and RuleEngine. A single
// router stage decodes every frame — the one decode stage (classify.go),
// run once — computes its session key, the same key the serial engine
// files trails under, and ships the decoded result to shard hash(key): a
// media packet as a packed 64-byte mediaSlot, anything else as an owned
// view. A shard never sees frame bytes. Session affinity is the
// load-bearing invariant: a call's SIP dialog, its RTP media, its RTCP
// control and its accounting records all hash to one shard, so the
// stateful cross-protocol rules run unchanged inside each shard.
//
// State that spans sessions cannot live in a shard. The router therefore
// keeps its own session directory (a second sessionIndex fed by the same
// applySIP transitions the shards run) for media-flow attribution, owns
// its own instances of the protocol correlators — rtp's sequence-continuity
// trackers and the sip hinters' state (im's source histories) judge every
// frame here in global arrival order and ship verdicts to the shards as
// RouteHints — and replicates registration bindings to every shard via
// ordered control messages. Port classification, sticky routing keys and
// shard-local budget zeroing all derive from the same correlator registry
// the shards dispatch through (see correlator.go).
//
// Alerts and events are tagged with (frame index, within-frame ordinal)
// on their shard and merged in that order, which reproduces the serial
// engine's output order exactly. The differential tests in
// sharded_diff_test.go hold the two engines to byte-identical alert and
// event streams.
//
// Failure containment: each worker is an actor that exclusively owns its
// pipeline and publishes results into a snapshot after every batch, so a
// panicking or stalled shard can never wedge readers. A panic quarantines
// the shard (its published alerts survive, subsequent frames are counted
// as shed, a shard-failure self-alert is raised) or, with
// Limits.RestartFailedShards, restarts it with fresh detection state.
// With Limits.ShedAfter set, a full shard queue sheds whole batches after
// a bounded wait instead of blocking the router, and with
// Limits.StallTimeout a watchdog quarantines shards that accept work but
// stop making progress. Every shed frame is accounted in Stats and
// ShardHealth and is covered by an ids-overload self-alert, whose Count
// rises once per ShedAfter timeout and once per quarantine — degradation
// is a detectable event, never silent.
//
// HandleFrame may be called from multiple goroutines. The synchronous
// router only borrows the frame for the call, copying what it must keep
// (buffered fragments) as the serial engine does; ingest lanes decode on
// another goroutine, so with Config.IngestRouters > 1 feeders must not
// reuse frame buffers. Call Close when done to stop the shard goroutines;
// Alerts, Events and Stats remain readable after Close.
type ShardedEngine struct {
	cfg     Config
	gen     GenConfig // normalized thresholds for router-side verdicts
	timeout time.Duration
	keepLog bool
	opts    []EngineOption // retained for shard restarts

	// liveRules is the active ruleset. ReloadRules swaps it atomically;
	// worker goroutines read it when building fresh shard engines (warm
	// and rolling restarts), so s.cfg stays immutable after construction.
	liveRules atomic.Pointer[[]Rule]

	// resumedStats/resumedDstats carry a reinstated portable checkpoint's
	// folded counters: Stats folds resumedStats in (with the fields that
	// live state re-counts zeroed — see RestoreSnapshot) and the next
	// Snapshot folds resumedDstats into the mined distiller stats.
	// Written only by RestoreSnapshot, which requires a fresh engine.
	resumedStats  EngineStats
	resumedDstats DistillerStats

	mu       sync.Mutex // router stage: directory, reassembly, pending batches
	closed   bool
	frameIdx uint64
	idx      *sessionIndex
	reasm    *packet.Reassembler
	frags    fragGroups
	// streams is the router-owned stream-transport demux (TCP reassembly +
	// SIP framing). It is the ONLY stream state in the sharded engine:
	// shards receive already-extracted messages, so stream expiry and
	// eviction run once here, on the same push clock the serial distiller
	// uses, and can never diverge across shard counts.
	streams *streamMux
	// correlators are the router's own instances of the registry: port
	// claims, routing-key overrides, per-frame hints and router-owned
	// budget enforcement all run against these (their cross-session state
	// is mutated under mu; their eviction counters are atomics, read
	// lock-free by Stats).
	correlators []Correlator
	// dec is the router's instance of the decode stage (classify.go) over
	// that registry: the only decode a synchronously routed frame gets.
	// The view it produces routes the frame (a reclassified frame goes to
	// the session its content belongs to) and then ships to the shard.
	dec     decoder
	sticky  map[string]string // Call-ID -> routing key (pinned on first sighting)
	pending [][]shardItem
	opened  []batchStamp     // when each pending batch took its first item (linger clock)
	lg      linger           // the age bound on pending batches (linger.go)
	free    chan []shardItem // recycled batches (getBatch/putBatch)
	// hints is per-frame scratch for the sipHinter pass: taking the
	// address of a local RouteHints forces a heap escape through the
	// interface, so SIP classification reuses this field instead.
	hints RouteHints
	// rtp is the router's rtp correlator instance (nil when the registry
	// has none): its trackers make the RTP continuity verdicts.
	rtp *rtpCorrelator
	// memo is the media route stage's fast path (flowmemo.go).
	memo flowMemo

	frames           atomic.Uint64
	framesAfterClose atomic.Uint64

	// Router-side Limits eviction counters (incremented under mu, read
	// lock-free by Stats).
	capSessions atomic.Uint64
	capFrags    atomic.Uint64
	capStreams  atomic.Uint64

	shardsFailed    atomic.Uint64
	shardsRestarted atomic.Uint64

	// Self-monitoring alerts (ids-overload, shard-failure). selfMu nests
	// inside mu (router-side sheds raise while routing) and is taken bare
	// by workers and the watchdog; nothing locks mu after selfMu.
	selfMu    sync.Mutex
	selfAlert []Alert
	selfTags  []mergeTag
	selfDedup map[string]int
	selfSeq   int

	watchStop chan struct{}

	// ing is the parallel ingest front end (Config.IngestRouters > 1):
	// decode lanes that peel the per-frame decode work off the routing
	// lock, plus a sequencer that replays their digests into the routing
	// path above in exact arrival order (see ingest.go). nil means the
	// historic fully synchronous router.
	ing       *ingestTier
	ingesters int

	workers []*shardWorker

	cbMu    sync.Mutex
	onAlert func(Alert)
	onEvent func(Event)
}

// shippedMsg is one decoded result bound for a shard that is not a bare
// media datagram: a SIP, accounting or raw datagram, or one message (or
// tunneled media chunk) a TCP segment completed, with the router's hints
// for it. The view is the shard's to keep — the decode stage aliases no
// payload bytes — and the shard runs it through its pipeline in place.
// next chains the further messages of the same segment, in stream order.
type shippedMsg struct {
	view  FrameView
	hints RouteHints
	next  *shippedMsg
}

// mergeTag orders shard output globally: frame index, then the event's
// ordinal within that frame. Frames are routed whole, so tags from
// different shards never collide. Self-monitoring alerts use a sub far
// above any per-frame ordinal so they sort after detections at the same
// frame.
type mergeTag struct {
	idx uint64
	sub int
}

const selfAlertSub = 1 << 30

type itemKind uint8

const (
	itemMedia itemKind = iota
	itemFrame
	itemStream
	itemBinding
	itemEvict
	itemExpire
	itemFlush
	itemInspect
	itemSnapshot
	itemRestore
	itemReload
	itemRestart
)

// shardItem is one unit of work on a shard's queue. The hot kind,
// itemMedia (a routed RTP or RTCP datagram), is self-contained: the
// packed slot plus the three hints a media packet can carry. itemFrame
// (one non-media datagram) and itemStream (everything one TCP segment
// completed) hang off msg; the control kinds — a replicated binding, an
// eviction or expiry broadcast, a flush/inspect/checkpoint marker — off
// ctl. Nothing in an item or behind msg can hold frame bytes, and a batch
// of 64 is 8 KB (TestShardItemsCarryNoFrameBytes pins both).
type shardItem struct {
	kind   itemKind
	hasSeq bool       // itemMedia: RouteHints.HasSeq
	seq    SeqVerdict // itemMedia: RouteHints.Seq
	// frames is how many capture frames the item accounts for, in the
	// routed == processed + shed ledger and the shard's distiller
	// counters: 1, or a reassembled datagram's whole fragment group. Zero
	// on control items.
	frames  uint32
	idx     uint64
	at      time.Duration // capture time (stamps shed and failure self-alerts; the itemExpire clock)
	session string        // itemMedia: RouteHints.Session
	media   mediaSlot     // itemMedia
	msg     *shippedMsg
	ctl     *shardCtl
}

// shardCtl is what a control item carries. Broadcasts share one value
// across shards (read-only); markers get one each, acked by closing ack.
type shardCtl struct {
	aor     string // itemBinding
	ip      netip.Addr
	session string // itemEvict
	ack     chan struct{}
	body    *rawEngineBody // itemSnapshot: the worker's exported state, set before the ack
	restore *workerRestore // itemRestore: decoded state to install
	rules   []Rule         // itemReload: the new ruleset, and the shared
	dropped *atomic.Int64  // counter of dropped partial matches
}

// Worker health states.
const (
	stateHealthy uint32 = iota
	statePanicked
	stateStalled
)

func stateName(s uint32) string {
	switch s {
	case statePanicked:
		return "panicked"
	case stateStalled:
		return "stalled"
	default:
		return "healthy"
	}
}

// shardResults is a worker's published snapshot. Readers see only this,
// never the worker's live pipeline, so a stuck worker cannot block them.
type shardResults struct {
	stats     EngineStats
	dstats    DistillerStats
	alerts    []Alert
	alertTags []mergeTag
	events    []Event
	eventTags []mergeTag
	trails    []trailKey
}

// shardWorker owns one shard. The pipeline fields below resMu are
// private to the worker goroutine (actor model); everyone else reads the
// published snapshot under resMu and the atomics.
type shardWorker struct {
	id    int
	owner *ShardedEngine
	ch    chan []shardItem
	done  chan struct{}

	// Worker-private pipeline state.
	eng       *Engine
	alertTags []mergeTag
	eventTags []mergeTag
	curTag    mergeTag
	sub       int
	faultSeq  uint64
	trimmedA  int // rule-engine alert evictions mirrored into alertTags
	trimmedE  int // event-log evictions mirrored into eventTags
	base      shardResults
	// lastEngineSnap is the engine-body blob from the most recent
	// checkpoint (taken or reinstated), kept for warm restarts: when
	// RestartFailedShards replaces a panicked engine, the fresh one is
	// rehydrated from this instead of starting blind. Worker-private.
	lastEngineSnap []byte
	pubVer         int // rules.version at last alert publish
	pubEvict       int // engine EventsEvicted mirrored into pub
	// stats is publish's scratch for the engine's counters: a field, so
	// filling it per batch allocates nothing.
	stats EngineStats

	resMu sync.Mutex
	pub   shardResults

	state       atomic.Uint32
	beat        atomic.Int64 // wall-clock heartbeat (UnixNano)
	trackBeat   bool
	enqueuedB   atomic.Uint64
	completedB  atomic.Uint64
	routedF     atomic.Uint64
	processedF  atomic.Uint64
	shedFrames  atomic.Uint64
	shedBatches atomic.Uint64
}

const (
	// shardBatchSize items are accumulated per shard before a channel
	// send, amortizing synchronization on the hot path. A partial batch
	// goes out early by the linger rule (linger.go): about batchLinger
	// after it opened while the router has time to spare, and within
	// about two lingerTicks once the tap goes quiet.
	shardBatchSize = 64
	// shardQueueDepth bounds each shard's channel; a full queue blocks
	// the router (backpressure) or, with Limits.ShedAfter, sheds.
	shardQueueDepth = 8
)

// getBatch returns an empty batch from the engine's free list, or a new
// one with shardBatchSize capacity. The free list holds slice headers in
// a channel buffer, so recycling a batch allocates nothing.
func (s *ShardedEngine) getBatch() []shardItem {
	select {
	case b := <-s.free:
		return b
	default:
		return make([]shardItem, 0, shardBatchSize)
	}
}

// putBatch zeroes a finished batch (dropping its message and control
// references, so recycling never extends a shipped value's life) and
// returns it to the free list, or drops it when the list is full. Safe
// on batches that grew past shardBatchSize (markers appended by Flush,
// Close and TrailCounts). Called by whoever finishes a batch: a worker,
// or the router's shed path.
func (s *ShardedEngine) putBatch(b []shardItem) {
	clear(b)
	select {
	case s.free <- b[:0]:
	default:
	}
}

// NewShardedEngine builds a sharded IDS instance. shards <= 0 uses
// runtime.GOMAXPROCS(0). The configuration is shared by every shard.
func NewShardedEngine(cfg Config, shards int, opts ...EngineOption) *ShardedEngine {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTrailLen == 0 {
		cfg.MaxTrailLen = 4096
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 10 * time.Minute
	}
	if cfg.Rules == nil {
		cfg.Rules = DefaultRuleset()
	}
	s := &ShardedEngine{
		cfg:         cfg,
		gen:         cfg.Gen.withDefaults(),
		timeout:     cfg.SessionTimeout,
		opts:        opts,
		idx:         newSessionIndex(),
		reasm:       packet.NewReassembler(0),
		frags:       newFragGroups(),
		correlators: buildCorrelators(cfg.Correlators, cfg.Gen.withDefaults()),
		sticky:      make(map[string]string),
		selfDedup:   make(map[string]int),
		pending:     make([][]shardItem, shards),
		opened:      make([]batchStamp, shards),
		// Room for every batch one shard can hold at once — a full
		// queue, the one its worker runs and the router's pending one —
		// so a steady stream recycles without allocating.
		free:    make(chan []shardItem, shards*(shardQueueDepth+2)),
		workers: make([]*shardWorker, shards),
	}
	s.dec = newDecoder(s.correlators)
	s.liveRules.Store(&s.cfg.Rules)
	// The router's correlator instances enforce the full (global) budget;
	// shard instances get those caps zeroed (see shardLocalLimits).
	for _, c := range s.correlators {
		if b, ok := c.(budgeted); ok {
			b.setLimits(cfg.Limits)
		}
		if rc, ok := c.(*rtpCorrelator); ok && s.rtp == nil {
			s.rtp = rc
		}
	}
	// The router enforces the global caps itself; session evictions are
	// broadcast so shard tables drop the same victim at the same stream
	// position the serial generator would.
	s.idx.maxSessions = cfg.Limits.MaxSessions
	s.idx.onCapEvict = func(id string) {
		s.capSessions.Add(1)
		delete(s.sticky, id)
		s.broadcastLocked(shardItem{kind: itemEvict, ctl: &shardCtl{session: id}})
	}
	s.reasm.SetLimit(cfg.Limits.MaxFragGroups)
	s.reasm.OnEvict(func(id packet.FragID) {
		s.capFrags.Add(1)
		s.frags.drop(id)
	})
	s.streams = newStreamMux()
	s.streams.sniff = s.dec.ladder.tunnelSniff
	s.streams.reasm.SetLimit(cfg.Limits.MaxStreams)
	s.streams.onEvict = func(id packet.StreamID, at time.Duration) {
		s.capStreams.Add(1)
		s.raiseSelf(RuleIDSOverload, "streams",
			"tcp stream reassembly state evicted to respect MaxStreams (possible mid-message loss)", at)
	}
	now := time.Now().UnixNano()
	for i := range s.workers {
		w := &shardWorker{
			id:        i,
			owner:     s,
			ch:        make(chan []shardItem, shardQueueDepth),
			done:      make(chan struct{}),
			eng:       s.newShardEngine(),
			trackBeat: cfg.Limits.StallTimeout > 0,
		}
		w.beat.Store(now)
		s.wireWorker(w)
		s.keepLog = w.eng.keepLog
		s.pending[i] = s.getBatch()
		s.workers[i] = w
		go w.run()
	}
	if cfg.Limits.StallTimeout > 0 {
		s.watchStop = make(chan struct{})
		go s.watchdog(cfg.Limits.StallTimeout)
	}
	s.ingesters = cfg.IngestRouters
	if s.ingesters < 1 {
		s.ingesters = 1
	}
	offered := s.frames.Load
	if s.ingesters > 1 {
		s.ing = newIngestTier(s, s.ingesters)
		offered = s.ing.offered.Load
	}
	s.lg.init(offered, s.lingerIdle)
	return s
}

// newShardEngine builds one shard's private engine, with the router-owned
// caps zeroed out (see shardLocalLimits).
func (s *ShardedEngine) newShardEngine() *Engine {
	wcfg := s.cfg
	wcfg.Rules = *s.liveRules.Load()
	wcfg.Limits = shardLocalLimits(s.correlators, wcfg.Limits)
	eng := NewEngine(wcfg, s.opts...)
	// Shard engines own neither router-side routing state (the sticky
	// keys) nor anything that touches frame bytes — the router decodes,
	// reassembles and frames — so their distiller is its counters alone.
	eng.gen.sticky = nil
	eng.distiller = &Distiller{}
	return eng
}

// wireWorker hooks a (possibly fresh) shard engine's alert stream to the
// worker's merge tags and the user callback.
func (s *ShardedEngine) wireWorker(w *shardWorker) {
	w.eng.rules.OnAlert(func(a Alert) {
		w.alertTags = append(w.alertTags, w.curTag)
		s.cbMu.Lock()
		fn := s.onAlert
		s.cbMu.Unlock()
		if fn != nil {
			fn(a)
		}
	})
	w.eng.OnEvent(func(ev Event) {
		s.cbMu.Lock()
		fn := s.onEvent
		s.cbMu.Unlock()
		if fn != nil {
			fn(ev)
		}
	})
}

// Shards returns the number of worker shards.
func (s *ShardedEngine) Shards() int { return len(s.workers) }

// Ingesters returns the number of parallel ingest routers (1 means the
// single synchronous router).
func (s *ShardedEngine) Ingesters() int { return s.ingesters }

// ShardOf reports which shard the given routing key maps to with n
// shards. Exported so chaos tests and capacity planning can predict
// frame placement; for calls the routing key is the Call-ID, for IM
// sender sessions "im:" + AOR.
func ShardOf(key string, n int) int { return shardOf(key, n) }

// OnAlert registers a callback for new alerts. It fires from shard
// goroutines (and the router, for self-monitoring alerts) in shard-local
// order; use Alerts for the merged stream. The callback must not call
// back into the engine.
//
// No Flush is needed for an alert to fire. While the router has time to
// spare, its trigger frame waits in a partial batch about batchLinger
// (100µs); once the tap goes quiet, at most about two lingerTicks (2ms).
// Only a saturated router holds a batch until it fills: frames keep
// coming. The ingest feeder's batches follow the same rule. On top of
// that come the shard's queue, when it is backed up, and its processing
// time.
func (s *ShardedEngine) OnAlert(fn func(Alert)) {
	s.cbMu.Lock()
	s.onAlert = fn
	s.cbMu.Unlock()
}

// OnEvent registers a callback for generated events. Like OnAlert it
// fires from shard goroutines in shard-local order — the merged global
// order is only available from Events() after Flush. A cooperative
// exporter attached here must therefore tolerate inter-shard reordering
// (the aggregator's deterministic merge re-sorts by timestamp). The
// callback must be fast and must not call back into the engine.
func (s *ShardedEngine) OnEvent(fn func(Event)) {
	s.cbMu.Lock()
	s.onEvent = fn
	s.cbMu.Unlock()
}

// HandleFrame routes one observed frame. It is netsim.Tap compatible and
// safe for concurrent use. Frames arriving after Close are dropped and
// counted in Stats().FramesAfterClose.
func (s *ShardedEngine) HandleFrame(at time.Duration, frame []byte) {
	if s.ing != nil {
		s.ing.feed(at, frame)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.framesAfterClose.Add(1)
		return
	}
	s.frames.Add(1)
	s.frameIdx++
	s.lg.frame()
	if s.frameIdx%gcEvery == 0 {
		s.expireLocked(at)
	}
	s.routeLocked(s.frameIdx, at, frame)
	if s.lg.due() {
		s.lingerLocked()
	}
	s.lg.done()
}

// AttachTap subscribes the engine to all hub traffic of a network.
func (s *ShardedEngine) AttachTap(n *netsim.Network) {
	n.AddTap(s.HandleFrame)
}

// ReplayCapture feeds a recorded SCAP capture through the engine. Call
// Flush (or Alerts/Events, which flush) before reading results.
func (s *ShardedEngine) ReplayCapture(r *capture.Reader) error {
	if err := capture.Replay(r, s.replayFeed()); err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	return nil
}

// replayFeed is HandleFrame for a feeder that reuses one frame buffer,
// as capture.Replay does. The synchronous router only borrows a frame,
// so the buffer goes straight in; ingest lanes decode after HandleFrame
// returns, so on that path each frame is copied first.
func (s *ShardedEngine) replayFeed() capture.FrameFunc {
	if s.ing == nil {
		return s.HandleFrame
	}
	return func(at time.Duration, frame []byte) {
		s.HandleFrame(at, append([]byte(nil), frame...))
	}
}

// expireLocked mirrors the serial engine's periodic session sweep: the
// router expires its own directory and router-owned correlator state and
// broadcasts the sweep to every shard at the same position in the frame
// stream, so shard-local tables evict exactly when the serial table
// would. The flow memo then lets go of the answers the sweep made stale.
func (s *ShardedEngine) expireLocked(at time.Duration) {
	s.idx.expire(at, s.timeout, func(id string) { delete(s.sticky, id) })
	if s.idx.compact() {
		s.sticky = rebuilt(s.sticky)
	}
	sweepExpirers(s.correlators, at, s.timeout)
	s.memo.dropStale(s.idx, s.rtp)
	s.broadcastLocked(shardItem{kind: itemExpire, at: at})
}

// routeLocked is the synchronous router: the ingest lanes' decode run
// inline, then the stateful route stage. Every path that ships nothing
// matches a path where the serial distiller produces no footprint, so
// dropped frames are exactly the frames no shard needs. Fragments and
// TCP segments from the ingest sequencer come through here whole: their
// reassembly is stateful end to end.
func (s *ShardedEngine) routeLocked(idx uint64, at time.Duration, frame []byte) {
	var p prelude
	s.dec.prelude(frame, &p)
	frames := s.dec.reassemble(s.reasm, &s.frags, at, frame, &p)
	switch p.kind {
	case preTCP:
		s.routeStreamLocked(idx, at, &p)
	case preDatagram:
		var d decoded
		s.dec.decodeDatagram(at, p.src, p.dst, p.proto, p.payload, &d)
		s.shipLocked(idx, at, p.src, p.dst, &d, frames)
	}
}

// shipLocked routes one decoded datagram and queues it on the session's
// shard with the router's hints. frames is how many capture frames it
// took (more than one when the reassembler completed it). A media packet
// ships inside its item, to the shard its session caches.
func (s *ShardedEngine) shipLocked(idx uint64, at time.Duration, src, dst netip.AddrPort, d *decoded, frames int) {
	it := shardItem{kind: itemFrame, idx: idx, at: at, frames: uint32(frames), msg: d.msg}
	if m := d.msg; m != nil {
		var routeKey string
		routeKey, m.hints = s.dispatchLocked(&m.view, "")
		s.appendItemLocked(shardOf(s.resolveRouteLocked(routeKey), len(s.workers)), &it)
		return
	}
	proto := ProtoRTP
	if d.media.flags&slotRTCP != 0 {
		proto = ProtoRTCP
	}
	// The stateful half of media classification: flow attribution against
	// the directory and, for RTP, the continuity verdict of the rtp
	// correlator's router instance, which tracks sequence numbers across
	// all shards in global frame order — one memo probe for a steady flow.
	sl, sv, hasSeq := s.memo.route(s.idx, s.rtp, proto, at, src, dst, d.media.seq)
	it.kind, it.media = itemMedia, d.media
	it.session, it.hasSeq, it.seq = sl.key, hasSeq, sv
	s.appendItemLocked(s.mediaShardLocked(sl), &it)
}

// dispatchLocked is the one stateful route stage for everything but a
// bare media datagram (shipLocked): given what the decode stage
// made of a payload — datagram, framed stream message or tunnel chunk
// alike — it runs the content protocol's directory transition and hinter
// passes in global arrival order and returns the routing key and the
// hints the shard will need. A raw view dispatches under the protocol
// its port claimed, as the generator does. flowKey is the carrying TCP
// flow's routing key, empty for datagrams.
func (s *ShardedEngine) dispatchLocked(v *FrameView, flowKey string) (string, RouteHints) {
	switch p, raw := v.dispatchProto(), v.Proto == ProtoOther; {
	case raw && p == ProtoRTP:
		// Garbage on a media port: the serial generator attributes the
		// event to the session negotiating this endpoint.
		if st := s.idx.mediaDstSession(v.Dst); st != nil {
			return st.callID, RouteHints{Session: st.callID}
		}
		sess := s.idx.endpointKey('w', "raw:", v.Dst)
		return sess, RouteHints{Session: sess}
	case raw:
		// Undecodable on any other claimed port: filed raw, unattributed.
		return s.idx.endpointKey('w', "raw:", v.Dst), RouteHints{}
	case p == ProtoSIP:
		return s.classifySIPMsgLocked(v.At, v.Src, v.Dst, v.Msg, flowKey)
	case p == ProtoAccounting:
		if v.Txn.Kind == accounting.TxnStart {
			// The generator creates session state for billing STARTs.
			s.idx.core(v.Txn.CallID)
		}
		return v.Txn.CallID, RouteHints{}
	default:
		sl, sv, hasSeq := s.memo.route(s.idx, s.rtp, p, v.At, v.Src, v.Dst, v.RTP.Seq)
		return sl.key, RouteHints{Session: sl.key, HasSeq: hasSeq, Seq: sv}
	}
}

// classifySIPMsgLocked is the stateful half of SIP classification: it
// takes a parsed message and runs the directory transition, hinters,
// binding replication and sticky-key pinning.
func (s *ShardedEngine) classifySIPMsgLocked(at time.Duration, src, dst netip.AddrPort, m *sip.Message, flowKey string) (string, RouteHints) {
	st, out := s.idx.applySIP(m, at, src)
	// Hinter correlators judge the sighting against their router-owned
	// state here, in arrival order, exactly as the serial correlators
	// would (the im correlator's source-history verdict, for one).
	s.hints = RouteHints{}
	for _, c := range s.correlators {
		if sh, ok := c.(sipHinter); ok {
			sh.sipHint(at, src, dst, m, out, &s.hints)
		}
	}
	if out.regOK && out.bindingIP.IsValid() {
		// Replicate the binding to every shard, ordered with the frame
		// stream, so each shard's directory view matches the serial one.
		s.broadcastLocked(shardItem{kind: itemBinding, ctl: &shardCtl{aor: out.regAOR, ip: out.bindingIP}})
	}
	if out.established {
		for _, c := range s.correlators {
			if o, ok := c.(establishObserver); ok {
				o.onEstablished(st)
			}
		}
	}
	st.lastSeen = at
	// Pin the routing key on the dialog's first sighting. On a stream
	// that is the flow's key: every message of the stream already routes
	// there, so flow affinity wins and the dialog's media and accounting
	// follow the stream's shard. Otherwise it is the Call-ID, unless a
	// correlator with cross-dialog state overrides it (the im correlator
	// routes MESSAGE dialogs by "im:" + sender AOR, the options-scan
	// correlator routes OPTIONS probes by source) so its state colocates
	// on one shard across Call-IDs.
	routeKey, ok := s.sticky[st.callID]
	if !ok {
		if routeKey = flowKey; routeKey == "" {
			routeKey = st.callID
			for _, c := range s.correlators {
				if rk, isKeyer := c.(sipRouteKeyer); isKeyer {
					if k, claimed := rk.sipRouteKey(m, out, src); claimed {
						routeKey = k
						break
					}
				}
			}
		}
		s.sticky[st.callID] = routeKey
		st.routeShard = 0 // a state opened before its pin (billing START) resolved without it
	}
	return routeKey, s.hints
}

// routeStreamLocked is the stream-transport arm of the router: a TCP
// segment feeds the router-owned mux, and everything it completes —
// framed SIP messages and sniffed tunnel chunks — goes through the same
// decode and dispatch as a datagram, in arrival order. The decoded views
// ship to the flow's shard chained on ONE item (the route key of each is
// ignored: stream order and the merge ordinals of coalesced messages must
// hold; the hints are kept). TCP frames that complete nothing
// (handshakes, partial messages, unclaimed ports) ship nothing, exactly
// the frames the serial engine produces no footprint for.
func (s *ShardedEngine) routeStreamLocked(idx uint64, at time.Duration, p *prelude) {
	th, ok := s.dec.segment(p)
	if !ok {
		return
	}
	s.streams.push(at, p.src, p.dst, th, p.payload)
	msgs := s.streams.drain()
	if len(msgs) == 0 {
		return
	}
	flowKey := msgs[0].key
	ship := make([]shippedMsg, len(msgs))
	for i := range msgs {
		m := &ship[i]
		s.dec.decodeStream(&msgs[i], &m.view)
		_, m.hints = s.dispatchLocked(&m.view, flowKey)
		if i > 0 {
			ship[i-1].next = m
		}
	}
	s.appendItemLocked(shardOf(flowKey, len(s.workers)),
		&shardItem{kind: itemStream, idx: idx, at: at, frames: 1, msg: &ship[0]})
}

// mediaShardLocked is shardOf(resolveRouteLocked(key)) for a routed media
// flow, computed once and cached: on the claiming session's state (a
// dialog's pin never moves while its state lives, and the cache dies
// with the state on expiry, eviction and restore), or on the memo slot
// of a flow no session claims (see flowSlot.shard). An unclaimed flow the
// memo does not keep resolves per packet.
func (s *ShardedEngine) mediaShardLocked(sl *flowSlot) int {
	cache := &sl.shard
	if sl.st != nil {
		cache = &sl.st.routeShard
	}
	if *cache == 0 {
		*cache = int32(shardOf(s.resolveRouteLocked(sl.key), len(s.workers))) + 1
	}
	return int(*cache) - 1
}

// appendItemLocked queues one item for a shard, stamping the batch's
// opening time on its first item and flushing the batch when full.
func (s *ShardedEngine) appendItemLocked(shard int, it *shardItem) {
	if it.frames > 0 {
		s.workers[shard].routedF.Add(uint64(it.frames))
	}
	if len(s.pending[shard]) == 0 {
		s.opened[shard] = s.lg.open()
	}
	s.pending[shard] = append(s.pending[shard], *it)
	if len(s.pending[shard]) >= shardBatchSize {
		s.lg.filled()
		s.flushShardLocked(shard)
	}
}

// lingerLocked hands off every pending batch the linger says has waited
// long enough. The router runs it after a frame (the sequencer, after a
// digest batch) when the linger is due.
func (s *ShardedEngine) lingerLocked() {
	now, measuring := s.lg.check()
	for i := range s.pending {
		if len(s.pending[i]) > 0 && s.lg.expired(s.opened[i], now, measuring) {
			s.flushShardLocked(i)
		}
	}
}

// lingerIdle is the backstop's quiet-tap flush: no frame was offered for
// a whole tick, so every pending batch goes out now.
func (s *ShardedEngine) lingerIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		for i := range s.pending {
			s.flushShardLocked(i)
		}
	}
	s.lg.armed = false
}

// broadcastLocked queues one control item on every shard, ordered with
// the frame stream. The shards share its ctl read-only.
func (s *ShardedEngine) broadcastLocked(it shardItem) {
	for i := range s.workers {
		s.appendItemLocked(i, &it)
	}
}

// markAllLocked enqueues one acked marker per shard behind everything
// pending — the consistent cut Flush, checkpoints and reloads share — and
// returns the markers for awaitAll. fill, when non-nil, sets the kind's
// payload on each shard's marker.
func (s *ShardedEngine) markAllLocked(kind itemKind, fill func(shard int, c *shardCtl)) []*shardCtl {
	ctls := make([]*shardCtl, len(s.workers))
	for i := range s.workers {
		ctls[i] = &shardCtl{ack: make(chan struct{})}
		if fill != nil {
			fill(i, ctls[i])
		}
		s.pending[i] = append(s.pending[i], shardItem{kind: kind, ctl: ctls[i]})
		s.flushShardLocked(i)
	}
	return ctls
}

// awaitAll waits for every shard to ack its marker (see awaitAck).
func (s *ShardedEngine) awaitAll(ctls []*shardCtl) {
	for i, c := range ctls {
		awaitAck(s.workers[i], c.ack)
	}
}

// flushShardLocked hands a shard its pending batch. Quarantined shards
// shed immediately; healthy shards get a non-blocking send, then either
// the historic blocking send (ShedAfter == 0) or a bounded wait that
// sheds the whole batch on expiry.
func (s *ShardedEngine) flushShardLocked(shard int) {
	if len(s.pending[shard]) == 0 {
		return
	}
	batch := s.pending[shard]
	s.pending[shard] = s.getBatch()
	w := s.workers[shard]
	if w.state.Load() != stateHealthy {
		w.shed(batch) // the quarantine raised the alert
		s.putBatch(batch)
		return
	}
	select {
	case w.ch <- batch:
		w.noteEnqueued()
		return
	default:
	}
	if s.cfg.Limits.ShedAfter <= 0 {
		w.ch <- batch // historic backpressure: block until the shard drains
		w.noteEnqueued()
		return
	}
	t := time.NewTimer(s.cfg.Limits.ShedAfter)
	defer t.Stop()
	select {
	case w.ch <- batch:
		w.noteEnqueued()
	case <-t.C:
		s.shedBatchLocked(shard, batch)
	}
}

// noteEnqueued accounts a successful batch send. It also refreshes the
// heartbeat: the stall clock for newly accepted work starts at enqueue,
// so an idle worker that simply hasn't been scheduled yet is not
// mistaken for a stalled one. A genuinely stuck shard stops accepting
// sends once its queue fills, after which the beat goes stale and the
// watchdog fires.
func (w *shardWorker) noteEnqueued() {
	w.enqueuedB.Add(1)
	if w.trackBeat {
		w.beat.Store(time.Now().UnixNano())
	}
}

// shedBatchLocked drops a whole batch that waited out Limits.ShedAfter on
// a healthy shard's full queue: its frames count as shed, the batch
// counts in BatchesShed, and an ids-overload self-alert records the loss.
// Control items (bindings, expiries, evictions) in a shed batch are lost
// too — acceptable degradation for an already-overloaded shard.
func (s *ShardedEngine) shedBatchLocked(shard int, batch []shardItem) {
	w := s.workers[shard]
	w.shedBatches.Add(1)
	if n, at := w.shed(batch); n > 0 {
		s.raiseSelf(RuleIDSOverload, fmt.Sprintf("shard:%d", shard),
			fmt.Sprintf("shed %d frames bound for shard %d (queue stalled)", n, shard), at)
	}
	s.putBatch(batch)
}

// shed counts a run of items the shard will not process as shed and acks
// their markers, so no reader waits on dropped work. It returns the frame
// count and the timestamp of the last dropped frame.
func (w *shardWorker) shed(items []shardItem) (frames int, at time.Duration) {
	for i := range items {
		it := &items[i]
		if it.frames > 0 {
			frames += int(it.frames)
			at = it.at
		} else if it.ctl != nil && it.ctl.ack != nil {
			close(it.ctl.ack)
		}
	}
	if frames > 0 {
		w.shedFrames.Add(uint64(frames))
	}
	return frames, at
}

// quarantine takes a failed shard out of service. It raises the shard's
// one ids-overload self-alert — from here on every frame routed to the
// shard is shed, and only FramesShed counts them — before the state
// flips, so no frame is shed before the alert exists. idx and at are the
// frame position and capture time the failure was seen at.
func (s *ShardedEngine) quarantine(w *shardWorker, state uint32, idx uint64, at time.Duration) {
	s.raiseSelfAt(idx, RuleIDSOverload, fmt.Sprintf("shard:%d", w.id),
		fmt.Sprintf("shard %d quarantined (%s): frames routed to it are shed", w.id, stateName(state)), at)
	w.state.Store(state)
}

// raiseSelf records a self-monitoring alert, deduplicated per (rule,
// session) like RuleEngine.raise, merged at the router's current frame
// position. Safe from the router (under mu), the watchdog, and shard
// workers.
func (s *ShardedEngine) raiseSelf(rule, session, detail string, at time.Duration) {
	s.raiseSelfAt(s.frames.Load(), rule, session, detail, at)
}

// raiseSelfAt is raiseSelf merged at frame position idx: a worker names
// the frame it failed on, so where its alert sorts does not depend on how
// far the router has run ahead.
func (s *ShardedEngine) raiseSelfAt(idx uint64, rule, session, detail string, at time.Duration) {
	s.selfMu.Lock()
	key := rule + "|" + session
	if i, ok := s.selfDedup[key]; ok {
		s.selfAlert[i].Count++
		s.selfMu.Unlock()
		return
	}
	a := Alert{At: at, Rule: rule, Severity: SeverityCritical, Session: session, Detail: detail, Count: 1}
	s.selfDedup[key] = len(s.selfAlert)
	s.selfAlert = append(s.selfAlert, a)
	s.selfTags = append(s.selfTags, mergeTag{idx: idx, sub: selfAlertSub + s.selfSeq})
	s.selfSeq++
	s.selfMu.Unlock()
	s.cbMu.Lock()
	fn := s.onAlert
	s.cbMu.Unlock()
	if fn != nil {
		fn(a)
	}
}

// noteShardPanic accounts a worker panic at the item it failed on.
func (s *ShardedEngine) noteShardPanic(w *shardWorker, it *shardItem, failure any) {
	s.shardsFailed.Add(1)
	s.raiseSelfAt(it.idx, RuleShardFailure, fmt.Sprintf("shard:%d", w.id),
		fmt.Sprintf("worker panic: %v (published alerts retained, subsequent frames shed)", failure), it.at)
}

// watchdog quarantines shards that accepted work but stopped making
// progress for longer than timeout (wall clock). Detects stalls —
// infinite loops, blocking decoders — that recover() never sees.
func (s *ShardedEngine) watchdog(timeout time.Duration) {
	period := timeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			for _, w := range s.workers {
				if w.state.Load() != stateHealthy {
					continue
				}
				if w.enqueuedB.Load() <= w.completedB.Load() {
					continue
				}
				if now-w.beat.Load() > int64(timeout) {
					s.shardsFailed.Add(1)
					s.raiseSelf(RuleShardFailure, fmt.Sprintf("shard:%d", w.id),
						fmt.Sprintf("no progress for %v with work queued; quarantined", timeout), 0)
					s.quarantine(w, stateStalled, s.frames.Load(), 0)
				}
			}
		}
	}
}

// Flush delivers all queued work and blocks until every shard has
// processed (or shed) everything enqueued before the call. With a
// parallel ingest front end, the ingest lanes are drained first so every
// frame fed before the call has been sequenced into its shard queue.
// Shards the watchdog quarantined as stalled are not waited for.
func (s *ShardedEngine) Flush() {
	if s.ing != nil {
		s.ing.drain()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	marks := s.markAllLocked(itemFlush, nil)
	s.mu.Unlock()
	s.awaitAll(marks)
}

// ReloadRules swaps the active ruleset live, at one consistent frame
// boundary: the reload marker is enqueued on every shard under a single
// routing-lock hold, so no frame is ever processed under the old rules
// on one shard and the new rules on another, and no frame is lost. nil
// reloads the default ruleset. In-flight partial matches carry forward
// for rules whose canonical text is unchanged and are dropped for
// removed or edited rules; when any were dropped, a rule-reload
// self-alert records the loss (see RuleRuleReload). Returns the dropped
// count. Raised alerts and dedup suppression survive the reload, exactly
// as they survive a checkpoint restore.
func (s *ShardedEngine) ReloadRules(rules []Rule) (int, error) {
	if rules == nil {
		rules = DefaultRuleset()
	}
	if s.ing != nil {
		s.ing.drain()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("core: reload rules: engine is closed")
	}
	var dropped atomic.Int64
	marks := s.markAllLocked(itemReload, func(_ int, c *shardCtl) { c.rules, c.dropped = rules, &dropped })
	s.liveRules.Store(&rules)
	s.mu.Unlock()
	s.awaitAll(marks)
	n := int(dropped.Load())
	if n > 0 {
		s.raiseSelf(RuleRuleReload, "rules",
			fmt.Sprintf("ruleset reloaded: %d in-flight partial matches dropped (rules removed or edited)", n), 0)
	}
	return n, nil
}

// RollingRestart restarts every healthy shard's engine one at a time,
// warm: each shard is drained to a quiescent point by a restart marker
// (everything routed to it before the marker is processed first), its
// detection state is serialized, and a fresh engine is rehydrated from
// that state before the next shard starts. Frames keep flowing to the
// other shards throughout, and the restarted shard's outputs are
// indistinguishable from an uninterrupted run. After each shard comes
// back its routed == processed + shed ledger is reconciled; shards that
// are quarantined, or that fail mid-drain, are skipped (the failure
// path accounts them). Restarts count in Stats().ShardsRestarted.
func (s *ShardedEngine) RollingRestart() error {
	if s.ing != nil {
		s.ing.drain()
	}
	for i := range s.workers {
		w := s.workers[i]
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("core: rolling restart: engine is closed")
		}
		if w.state.Load() != stateHealthy {
			s.mu.Unlock()
			continue
		}
		routedBefore := w.routedF.Load()
		ack := make(chan struct{})
		s.pending[i] = append(s.pending[i], shardItem{kind: itemRestart, ctl: &shardCtl{ack: ack}})
		s.flushShardLocked(i)
		s.mu.Unlock()
		awaitAck(w, ack)
		if w.state.Load() != stateHealthy {
			continue // failed mid-drain: quarantined and accounted by the failure path
		}
		if got := w.processedF.Load() + w.shedFrames.Load(); got < routedBefore {
			return fmt.Errorf("core: rolling restart: shard %d ledger failed to reconcile (routed %d before restart, processed+shed %d after)",
				i, routedBefore, got)
		}
	}
	return nil
}

// awaitAck waits for a worker to ack a marker, giving up if the worker
// is quarantined as stalled (its marker may be stuck behind the stall).
func awaitAck(w *shardWorker, ack chan struct{}) {
	for {
		select {
		case <-ack:
			return
		case <-time.After(200 * time.Microsecond):
			if w.state.Load() == stateStalled {
				return
			}
		}
	}
}

// Close flushes remaining work and stops the shard goroutines. Results
// remain readable; subsequent HandleFrame calls are dropped and counted.
// Stalled shards are abandoned, not awaited (their goroutines exit when
// the stall clears, since the queue is closed).
func (s *ShardedEngine) Close() {
	if s.ing != nil {
		// Stop the ingest tier first: in-flight frames are sequenced into
		// the shard queues and further feeds are counted as after-close.
		s.ing.close()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.lg.stop()
	if s.watchStop != nil {
		close(s.watchStop)
	}
	for i := range s.workers {
		s.flushShardLocked(i)
		close(s.workers[i].ch)
	}
	s.mu.Unlock()
	for _, w := range s.workers {
		if w.state.Load() == stateStalled {
			continue
		}
		<-w.done
	}
}

// Stats returns a snapshot of the merged engine counters. It is safe to
// call concurrently with HandleFrame and never blocks on a shard: it
// reads each worker's last published snapshot, so it reflects batches
// shards have completed, plus every frame the router has accepted.
func (s *ShardedEngine) Stats() EngineStats {
	st := EngineStats{
		Frames:             int(s.frames.Load()),
		FramesAfterClose:   int(s.framesAfterClose.Load()),
		SessionsCapEvicted: int(s.capSessions.Load()),
		FragGroupsEvicted:  int(s.capFrags.Load()),
		StreamsEvicted:     int(s.capStreams.Load()),
		ShardsFailed:       int(s.shardsFailed.Load()),
		ShardsRestarted:    int(s.shardsRestarted.Load()),
	}
	// Router-owned correlator caps (IM histories, sequence trackers, …)
	// are enforced against the router's instances; their counters are
	// atomics, so this read is lock-free.
	for _, c := range s.correlators {
		if b, ok := c.(budgeted); ok {
			b.contributeStats(&st)
		}
	}
	maxBind := 0
	for _, w := range s.workers {
		w.resMu.Lock()
		es := w.pub.stats
		w.resMu.Unlock()
		st.Footprints += es.Footprints
		st.Events += es.Events
		st.Alerts += es.Alerts
		st.SessionsEvicted += es.SessionsEvicted
		st.EventsEvicted += es.EventsEvicted
		st.AlertsEvicted += es.AlertsEvicted
		// Bindings are replicated to every shard and evicted identically
		// everywhere: the count is the max, not the sum.
		if es.BindingsEvicted > maxBind {
			maxBind = es.BindingsEvicted
		}
		st.FramesShed += int(w.shedFrames.Load())
		st.BatchesShed += int(w.shedBatches.Load())
	}
	st.BindingsEvicted = maxBind
	// Counters carried over from a reinstated portable checkpoint (fields
	// that live state re-counts arrive zeroed — see RestoreSnapshot).
	st = addStats(st, s.resumedStats)
	return st
}

// DistillerStats returns the summed classification counters of every
// shard (plus any reinstated checkpoint's folded history). A shard counts
// what the router shipped it — each decoded view's terminal and the
// capture frames behind it — so SIP/RTP/RTCP/Acct/Raw/Mismatched/
// StreamMsgs match the serial engine's for the same input, Fragments
// covers completed datagrams only, and what the router drops before
// decode (unclaimed ports, bad framing, bare TCP segments) appears in no
// shard's Ignored, DecodeError or Streamed. Like Stats, it reads
// published snapshots and never blocks on a shard.
func (s *ShardedEngine) DistillerStats() DistillerStats {
	var st DistillerStats
	for _, w := range s.workers {
		w.resMu.Lock()
		st = addDistillerStats(st, w.pub.dstats)
		w.resMu.Unlock()
	}
	return addDistillerStats(st, s.resumedDstats)
}

// ShardHealth reports per-shard liveness and drop accounting. After a
// Flush, FramesRouted == FramesProcessed + FramesShed for every shard
// that is not mid-stall.
type ShardHealth struct {
	Shard           int
	State           string // "healthy", "panicked", or "stalled"
	FramesRouted    uint64 // frames the router assigned to this shard
	FramesProcessed uint64 // frames fully processed by the worker
	FramesShed      uint64 // frames dropped (overload shed or failure)
	BatchesShed     uint64 // batches dropped on a ShedAfter timeout
}

// ShardHealth returns the per-shard health and accounting snapshot.
func (s *ShardedEngine) ShardHealth() []ShardHealth {
	out := make([]ShardHealth, len(s.workers))
	for i, w := range s.workers {
		out[i] = ShardHealth{
			Shard:           i,
			State:           stateName(w.state.Load()),
			FramesRouted:    w.routedF.Load(),
			FramesProcessed: w.processedF.Load(),
			FramesShed:      w.shedFrames.Load(),
			BatchesShed:     w.shedBatches.Load(),
		}
	}
	return out
}

// IngestHealth is one ingest lane's ledger. After a Flush the three
// stages reconcile exactly: every frame dealt to a lane was decoded by
// it and sequenced into the routing path, so
// FramesFed == FramesDecoded == FramesSequenced per lane, and the lane
// totals sum to Stats().Frames. Downstream, ShardHealth's
// routed == processed + shed ledger is unchanged.
type IngestHealth struct {
	Ingester        int
	FramesFed       uint64 // frames dealt to this lane by HandleFrame
	FramesDecoded   uint64 // frames the lane finished decoding
	FramesSequenced uint64 // frames the sequencer replayed into routing
}

// IngestHealth returns the per-ingester ledger, or nil when the engine
// runs the single synchronous router.
func (s *ShardedEngine) IngestHealth() []IngestHealth {
	if s.ing == nil {
		return nil
	}
	out := make([]IngestHealth, len(s.ing.lanes))
	for i, l := range s.ing.lanes {
		out[i] = IngestHealth{
			Ingester:        i,
			FramesFed:       l.fed.Load(),
			FramesDecoded:   l.decoded.Load(),
			FramesSequenced: l.sequenced.Load(),
		}
	}
	return out
}

// TrailCounts returns the number of distinct sessions and trails across
// all shards (the sharded analogue of Trails().Sessions()/Trails()).
func (s *ShardedEngine) TrailCounts() (sessions, trails int) {
	if s.ing != nil {
		s.ing.drain()
	}
	s.mu.Lock()
	if !s.closed {
		marks := s.markAllLocked(itemInspect, nil)
		s.mu.Unlock()
		s.awaitAll(marks)
	} else {
		s.mu.Unlock()
	}
	sessSet := make(map[string]struct{})
	trailSet := make(map[trailKey]struct{})
	for _, w := range s.workers {
		w.resMu.Lock()
		for _, k := range w.pub.trails {
			sessSet[k.session] = struct{}{}
			trailSet[k] = struct{}{}
		}
		w.resMu.Unlock()
	}
	return len(sessSet), len(trailSet)
}

// Alerts flushes and returns all alerts in the serial engine's order:
// first firing position in the frame stream. Alerts for one (rule,
// session) pair raised on multiple shards — possible only for sessions
// that span Call-IDs, like IM sender sessions — are merged with their
// counts summed. Self-monitoring alerts (ids-overload, shard-failure)
// are merged in at the frame position where they fired.
func (s *ShardedEngine) Alerts() []Alert {
	s.Flush()
	type tagged struct {
		tag mergeTag
		a   Alert
	}
	var all []tagged
	for _, w := range s.workers {
		w.resMu.Lock()
		for j, a := range w.pub.alerts {
			all = append(all, tagged{tag: w.pub.alertTags[j], a: a})
		}
		w.resMu.Unlock()
	}
	s.selfMu.Lock()
	for j, a := range s.selfAlert {
		all = append(all, tagged{tag: s.selfTags[j], a: a})
	}
	s.selfMu.Unlock()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].tag.idx != all[j].tag.idx {
			return all[i].tag.idx < all[j].tag.idx
		}
		return all[i].tag.sub < all[j].tag.sub
	})
	out := make([]Alert, 0, len(all))
	index := make(map[string]int, len(all))
	for _, t := range all {
		k := t.a.Rule + "|" + t.a.Session
		if i, ok := index[k]; ok {
			out[i].Count += t.a.Count
			continue
		}
		index[k] = len(out)
		out = append(out, t.a)
	}
	return out
}

// AlertsFor returns merged alerts raised by one rule.
func (s *ShardedEngine) AlertsFor(rule string) []Alert {
	var out []Alert
	for _, a := range s.Alerts() {
		if a.Rule == rule {
			out = append(out, a)
		}
	}
	return out
}

// Events flushes and returns the merged event log in serial order (empty
// unless the engine was built WithEventLog).
func (s *ShardedEngine) Events() []Event {
	s.Flush()
	type tagged struct {
		tag mergeTag
		ev  Event
	}
	var all []tagged
	for _, w := range s.workers {
		w.resMu.Lock()
		for j, ev := range w.pub.events {
			all = append(all, tagged{tag: w.pub.eventTags[j], ev: ev})
		}
		w.resMu.Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].tag.idx != all[j].tag.idx {
			return all[i].tag.idx < all[j].tag.idx
		}
		return all[i].tag.sub < all[j].tag.sub
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
	}
	return out
}

// resolveRouteLocked maps a route key through the dialog's pinned
// routing key. For datagram dialogs the pin is the Call-ID itself (or a
// keyer override, already applied by SIP classification), so resolution
// is the identity; for dialogs first sighted on a TCP stream the pin is
// the flow's routing key, and resolving here is what sends the dialog's
// media, RTCP and accounting traffic to the shard that holds the stream's
// dialog state. Mirrors shardFor in cross-geometry snapshot restore.
func (s *ShardedEngine) resolveRouteLocked(key string) string {
	if rk, ok := s.sticky[key]; ok {
		return rk
	}
	return key
}

// shardOf hashes a session key onto a shard (FNV-1a).
func shardOf(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// --- shard worker ---

func (w *shardWorker) run() {
	defer close(w.done)
	for batch := range w.ch {
		if w.state.Load() != stateHealthy {
			// Quarantined: drain the backlog, accounting every frame as
			// shed and acking markers so readers never wait on a dead
			// shard. Inspect markers still publish (the engine is
			// quiescent — "alerts flushed" outlives the failure).
			w.drainBatch(batch)
			w.owner.putBatch(batch)
			w.completedB.Add(1)
			continue
		}
		pos, failure := w.runBatch(batch)
		if failure != nil {
			it := &batch[pos]
			w.owner.noteShardPanic(w, it, failure)
			w.publish()
			if w.eng.cfg.Limits.RestartFailedShards {
				w.shed(batch[pos:])
				w.restartEngine(it)
			} else {
				w.owner.quarantine(w, statePanicked, it.idx, it.at)
				w.shed(batch[pos:])
			}
		} else {
			w.publish()
		}
		w.owner.putBatch(batch)
		w.completedB.Add(1)
		if w.trackBeat {
			w.beat.Store(time.Now().UnixNano())
		}
	}
	w.publish()
	w.publishTrails()
}

// runBatch processes one batch under recover. On panic it reports the
// index of the failing item; items before it completed normally.
func (w *shardWorker) runBatch(batch []shardItem) (pos int, failure any) {
	defer func() {
		if r := recover(); r != nil {
			failure = r
		}
	}()
	for pos = 0; pos < len(batch); pos++ {
		w.runItem(&batch[pos])
		if w.trackBeat {
			w.beat.Store(time.Now().UnixNano())
		}
	}
	return len(batch), nil
}

// drainBatch sheds a quarantined shard's backlog, answering inspect
// markers from the (quiescent) engine so trail counts stay available.
func (w *shardWorker) drainBatch(batch []shardItem) {
	for i := range batch {
		if batch[i].kind == itemInspect {
			w.publishTrails()
		}
	}
	w.shed(batch)
	if w.trackBeat {
		w.beat.Store(time.Now().UnixNano())
	}
}

func (w *shardWorker) runItem(it *shardItem) {
	e := w.eng
	switch it.kind {
	case itemMedia, itemFrame, itemStream:
		w.injectFault()
		w.sub = 0
		if it.kind == itemMedia {
			it.media.unpack(&e.view)
			w.process(it, &e.view, RouteHints{Session: it.session, HasSeq: it.hasSeq, Seq: it.seq})
		}
		// One message for a datagram, or all a TCP segment completed:
		// w.sub runs on across them, so coalesced messages keep the serial
		// output order.
		for m := it.msg; m != nil; m = m.next {
			w.process(it, &m.view, m.hints)
		}
		w.processedF.Add(uint64(it.frames))
	case itemBinding:
		e.gen.ApplyBinding(it.ctl.aor, it.ctl.ip)
	case itemEvict:
		e.gen.EvictSession(it.ctl.session)
	case itemExpire:
		e.stats.SessionsEvicted += e.gen.ExpireSessions(it.at, e.cfg.SessionTimeout)
	case itemFlush:
		w.publish()
		close(it.ctl.ack)
	case itemInspect:
		w.publish()
		w.publishTrails()
		close(it.ctl.ack)
	case itemSnapshot:
		w.publish()
		it.ctl.body = w.snapshotWorker()
		close(it.ctl.ack)
	case itemRestore:
		w.installRestore(it.ctl.restore)
		close(it.ctl.ack)
	case itemReload:
		// A warm-restart blob serialized under the old ruleset would
		// restore stale partial matches with old semantics; drop the
		// cached blob when the ruleset text actually changed.
		if FormatRules(e.rules.rules) != FormatRules(it.ctl.rules) {
			w.lastEngineSnap = nil
		}
		it.ctl.dropped.Add(int64(e.rules.reload(it.ctl.rules)))
		e.cfg.Rules = it.ctl.rules
		close(it.ctl.ack)
	case itemRestart:
		w.rollEngine()
		close(it.ctl.ack)
	}
}

// injectFault consults the configured fault injector (chaos tests) with
// this shard's frame-item ordinal.
func (w *shardWorker) injectFault() {
	if w.eng.faults == nil {
		return
	}
	n := w.faultSeq
	w.faultSeq++
	f := w.eng.faults.At(w.id, n)
	if f.Stall > 0 {
		time.Sleep(f.Stall)
	}
	if f.Panic {
		panic(fmt.Sprintf("chaoscore: injected panic (shard %d frame %d)", w.id, n))
	}
}

// process is the shard-side pipeline for one decoded view of an item:
// count what the serial distiller would have (a stream message, or the
// capture frames behind a datagram — all but the completing one buffered
// fragments — then the view's terminal, with the SIP format check),
// generate with the router's hints, and feed rules. Decoding and expiry
// cadence are the router's job, so unlike Engine.HandleFrame neither
// happens here.
func (w *shardWorker) process(it *shardItem, v *FrameView, h RouteHints) {
	e, idx := w.eng, it.idx
	if ds := &e.distiller.stats; it.kind == itemStream {
		ds.StreamMsgs++
	} else {
		ds.Frames += int(it.frames)
		ds.Fragments += int(it.frames) - 1
	}
	e.distiller.account(v)
	e.stats.Footprints++
	e.evScratch = e.evScratch[:0]
	e.gen.ProcessView(v, h, &e.evScratch)
	for _, ev := range e.evScratch {
		e.stats.Events++
		w.curTag = mergeTag{idx: idx, sub: w.sub}
		if e.keepLog {
			e.logEvent(ev)
			w.eventTags = append(w.eventTags, w.curTag)
		}
		e.stats.Alerts += len(e.rules.Feed(ev))
		w.sub++
	}
}

// syncTags mirrors the engine's front-evictions (retention caps) into
// the worker's tag slices so tags stay index-aligned with the retained
// alerts and events.
func (w *shardWorker) syncTags() {
	e := w.eng
	if d := e.rules.evicted - w.trimmedA; d > 0 {
		w.alertTags = append(w.alertTags[:0], w.alertTags[d:]...)
		w.trimmedA = e.rules.evicted
	}
	if d := e.stats.EventsEvicted - w.trimmedE; d > 0 {
		w.eventTags = append(w.eventTags[:0], w.eventTags[d:]...)
		w.trimmedE = e.stats.EventsEvicted
	}
}

// publish snapshots the worker's pipeline into pub. Stats are rebuilt
// every time; alerts are rebuilt only when the rule engine's version
// moved (covering in-place Count bumps); events are maintained as a
// delta (evictions drop from the front, new events append at the back).
func (w *shardWorker) publish() {
	e := w.eng
	w.syncTags()
	w.resMu.Lock()
	defer w.resMu.Unlock()
	e.statsInto(&w.stats)
	w.pub.stats = addStats(w.base.stats, w.stats)
	w.pub.dstats = addDistillerStats(w.base.dstats, e.distiller.stats)
	if v := e.rules.version; v != w.pubVer {
		w.pubVer = v
		w.pub.alerts = append(append(w.pub.alerts[:0], w.base.alerts...), e.rules.alerts...)
		w.pub.alertTags = append(append(w.pub.alertTags[:0], w.base.alertTags...), w.alertTags...)
	}
	baseLen := len(w.base.events)
	if d := e.stats.EventsEvicted - w.pubEvict; d > 0 {
		w.pub.events = append(w.pub.events[:baseLen], w.pub.events[baseLen+d:]...)
		w.pub.eventTags = append(w.pub.eventTags[:baseLen], w.pub.eventTags[baseLen+d:]...)
		w.pubEvict = e.stats.EventsEvicted
	}
	if d := len(e.events) - (len(w.pub.events) - baseLen); d > 0 {
		w.pub.events = append(w.pub.events, e.events[len(e.events)-d:]...)
		w.pub.eventTags = append(w.pub.eventTags, w.eventTags[len(e.events)-d:]...)
	}
}

// publishTrails snapshots the trail keys (for TrailCounts).
func (w *shardWorker) publishTrails() {
	keys := make([]trailKey, 0, len(w.eng.trails.trails))
	for k := range w.eng.trails.trails {
		keys = append(keys, k)
	}
	w.resMu.Lock()
	w.pub.trails = keys
	w.resMu.Unlock()
}

// restartEngine folds the failed engine's published results into the
// worker's base and starts a fresh pipeline (Limits.RestartFailedShards).
// Prior detections survive. Detection state is rehydrated from the last
// checkpoint when one is cached (warm restart: trails, sessions,
// correlator state and partial-match progress as of the checkpoint — only
// frames since it are lost); without a checkpoint the restart is cold and
// a shard-state-loss self-alert records that the shard is running blind.
func (w *shardWorker) restartEngine(it *shardItem) {
	w.syncTags()
	e := w.eng
	w.base.stats = addStats(w.base.stats, e.Stats())
	w.base.dstats = addDistillerStats(w.base.dstats, e.distiller.stats)
	w.base.alerts = append(w.base.alerts, e.rules.alerts...)
	w.base.alertTags = append(w.base.alertTags, w.alertTags...)
	w.base.events = append(w.base.events, e.events...)
	w.base.eventTags = append(w.base.eventTags, w.eventTags...)
	w.alertTags, w.eventTags = nil, nil
	w.trimmedA, w.trimmedE = 0, 0
	w.eng = w.owner.newShardEngine()
	w.owner.wireWorker(w)
	w.owner.shardsRestarted.Add(1)
	warm := false
	if len(w.lastEngineSnap) > 0 {
		if snap, err := w.eng.decodeSnapBodyBytes(w.lastEngineSnap); err == nil {
			w.eng.installSnap(snap, false)
			warm = true
		}
	}
	if !warm {
		w.owner.raiseSelfAt(it.idx, RuleShardStateLoss, fmt.Sprintf("shard:%d", w.id),
			fmt.Sprintf("shard %d restarted with empty detection state (no checkpoint available); in-flight rule progress for its sessions is lost", w.id), it.at)
	}
	w.resMu.Lock()
	w.pubVer = 0
	w.pubEvict = 0
	w.pub.stats = w.base.stats
	w.pub.alerts = append([]Alert(nil), w.base.alerts...)
	w.pub.alertTags = append([]mergeTag(nil), w.base.alertTags...)
	w.pub.events = append([]Event(nil), w.base.events...)
	w.pub.eventTags = append([]mergeTag(nil), w.base.eventTags...)
	w.pub.trails = nil
	w.resMu.Unlock()
}

// rollEngine restarts the worker's engine warm at a quiescent point
// (RollingRestart): the current engine body is serialized, a fresh
// engine is built against the live ruleset and rehydrated from it, and
// the pipelines are swapped with outputs intact — published results,
// merge tags and the fault-injection ordinal all carry over, so the
// shard's output stream is indistinguishable from an uninterrupted run.
// If the body fails to decode, the old engine keeps running: a rolling
// restart never trades a healthy shard for a cold one.
func (w *shardWorker) rollEngine() {
	blob := w.eng.bodyBytes()
	fresh := w.owner.newShardEngine()
	snap, err := fresh.decodeSnapBodyBytes(blob)
	if err != nil {
		return
	}
	w.eng = fresh
	w.owner.wireWorker(w)
	w.eng.installSnap(snap, true)
	w.lastEngineSnap = blob
	w.owner.shardsRestarted.Add(1)
}

// addStats sums two stat snapshots field by field.
func addStats(a, b EngineStats) EngineStats {
	a.Frames += b.Frames
	a.Footprints += b.Footprints
	a.Events += b.Events
	a.Alerts += b.Alerts
	a.SessionsEvicted += b.SessionsEvicted
	a.FramesAfterClose += b.FramesAfterClose
	a.FramesShed += b.FramesShed
	a.BatchesShed += b.BatchesShed
	a.SessionsCapEvicted += b.SessionsCapEvicted
	a.FragGroupsEvicted += b.FragGroupsEvicted
	a.IMHistoriesEvicted += b.IMHistoriesEvicted
	a.SeqTrackersEvicted += b.SeqTrackersEvicted
	a.BindingsEvicted += b.BindingsEvicted
	a.AlertsEvicted += b.AlertsEvicted
	a.EventsEvicted += b.EventsEvicted
	a.ShardsFailed += b.ShardsFailed
	a.ShardsRestarted += b.ShardsRestarted
	return a
}
