package core

import (
	"sync/atomic"
	"time"
)

// Batch linger: how long a partial batch may wait for more items.
//
// The router batches shard items (shardBatchSize) and the ingest feeder
// batches frames (ingBatchSize) so one channel send, or one routing-lock
// hold, serves 64 frames. A batch that only ever left full would hold its
// first frame — and any alert that frame triggers — for as long as 64
// arrivals take, and forever once the tap goes quiet. The linger bounds
// that wait while frames trickle in, and leaves batching alone while they
// pour in:
//
//   - A batch records when it opened: one clock read per batch.
//   - A backstop timer runs while any batch is pending. A tick that saw no
//     frame offered since the previous one hands off every pending batch
//     under the batcher's lock: the tap went quiet. A tick that saw frames
//     only flags the batcher to check ages on its next frame.
//   - An age check that finds a batch older than batchLinger puts the
//     batcher in the slow regime. There it reads the clock when a frame
//     starts and when it ends, and sums the time it sat idle in between.
//     A batch older than batchLinger goes out once the batcher has been
//     idle for half the linger since the batch opened. The regime ends
//     when a batch fills.
//
// The idle condition is what keeps a saturated batcher batching. On a
// paced tap the router is idle nearly all the time, so a batch leaves
// about batchLinger after it opened. In a closed-loop replay the router is
// busy from one frame to the next; cutting its batches by age alone cost
// signalling-churn about a fifth of its sharded throughput on two shards,
// where a 64-item batch takes about 250 µs to fill, because every cut
// batch wakes a parked worker (about 4 µs of the router's time on the
// 2-CPU test host). Batch boundaries never move output: shard results
// merge by frame index.
const (
	// batchLinger is the age past which a partial batch may go out. A
	// router that is idle half of it is not saturated, so handing the
	// batch off early costs it nothing it needed.
	batchLinger = 100 * time.Microsecond
	// lingerTick is the backstop period. Go timers below a millisecond
	// round up to the netpoller's millisecond on an idle P anyway.
	lingerTick = time.Millisecond
)

// batchStamp is when a batch took its first item, on the linger's clock,
// and the batcher's idle total at that moment.
type batchStamp struct{ at, idle time.Duration }

// linger is one batcher's age bound: the router's over its shard
// batches, or the ingest feeder's over its fill batch. The plain fields
// are guarded by the batcher's lock; the backstop's state is atomic.
type linger struct {
	base time.Time
	slow bool
	// Kept only while slow: the clock at the current frame's start and at
	// the previous frame's end, and the idle time summed between frames.
	now, end, idle time.Duration
	armed          bool // a backstop tick is scheduled

	timer   *time.Timer
	offered func() uint64 // frames offered to the batcher so far
	seen    atomic.Uint64 // offered at the last tick (or at arming)
	flag    atomic.Bool   // a tick saw frames: check ages on the next one
	stopped atomic.Bool
}

// init readies the backstop. idle runs on a tick that saw no frame
// offered since the previous one: it must take the batcher's lock, hand
// off every pending batch and clear armed.
func (l *linger) init(offered func() uint64, idle func()) {
	l.base = time.Now()
	l.offered = offered
	l.timer = time.AfterFunc(time.Hour, func() { l.tick(idle) })
	l.timer.Stop()
}

func (l *linger) clock() time.Duration { return time.Since(l.base) }

// frame starts a frame (for the sequencer, a digest batch). The slow
// regime reads the clock here, once for every batch the frame opens and
// every age check it runs, and counts the wait since the last frame ended
// as idle.
func (l *linger) frame() {
	if l.slow {
		l.now = l.clock()
		l.idle += l.now - l.end
	}
}

// done ends a frame.
func (l *linger) done() {
	if l.slow {
		l.end = l.clock()
	}
}

// open stamps a batch that just took its first item and makes sure the
// backstop will see it.
func (l *linger) open() batchStamp {
	if !l.armed {
		l.armed = true
		l.seen.Store(l.offered())
		l.timer.Reset(lingerTick)
	}
	if l.slow {
		return batchStamp{at: l.now, idle: l.idle}
	}
	return batchStamp{at: l.clock(), idle: l.idle}
}

// filled notes a batch that reached its size: frames keep coming.
func (l *linger) filled() { l.slow = false }

// due reports whether this frame checks batch ages.
func (l *linger) due() bool { return l.slow || l.flag.Load() }

// check starts an age check. It returns the clock, read here unless the
// slow regime already read it this frame, and whether idle time is being
// measured; it clears the backstop's flag.
func (l *linger) check() (now time.Duration, measuring bool) {
	if l.flag.Load() {
		l.flag.Store(false)
	}
	if l.slow {
		return l.now, true
	}
	return l.clock(), false
}

// expired reports whether a batch stamped b goes out now (see check for
// now and measuring). A batch older than the linger found outside the
// slow regime starts it: idle time is measured from here on.
func (l *linger) expired(b batchStamp, now time.Duration, measuring bool) bool {
	if now-b.at <= batchLinger {
		return false
	}
	if !measuring {
		l.slow = true
		return false
	}
	return 2*(l.idle-b.idle) >= batchLinger
}

func (l *linger) tick(idle func()) {
	if l.stopped.Load() {
		return
	}
	if n := l.offered(); n != l.seen.Swap(n) {
		l.flag.Store(true)
		l.timer.Reset(lingerTick)
		return
	}
	idle()
}

// stop ends the backstop: a tick already under way does nothing.
func (l *linger) stop() {
	l.stopped.Store(true)
	l.timer.Stop()
}
