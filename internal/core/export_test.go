package core

import (
	"fmt"
	"time"

	"scidive/internal/capture"
)

// Test-only accessors for the external core_test package.

// StreamMuxBuffered reports whether the serial engine's stream mux is
// holding a partially framed SIP message (bytes delivered by the
// reassembler that do not yet form a complete message). The kill/restore
// differential uses it to place checkpoints between the TCP segments of
// one message, the exact state snapshot format v4 exists to carry.
func (e *Engine) StreamMuxBuffered() bool {
	m := e.distiller.streams
	if m == nil {
		return false
	}
	for _, dir := range m.dirs {
		if dir.framer.PendingBytes() > 0 {
			return true
		}
	}
	return false
}

// CheckMediaIndex runs checkMediaIndex on the serial engine's table.
func (e *Engine) CheckMediaIndex() error { return checkMediaIndex(e.gen.idx) }

// CheckMediaIndex runs checkMediaIndex on the router directory and on
// every shard's table, and checkFlowMemo on the router's flow memo. It
// flushes first, so the shard tables are read at rest; quarantined shards
// are skipped.
func (s *ShardedEngine) CheckMediaIndex() error {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkMediaIndex(s.idx); err != nil {
		return fmt.Errorf("router directory: %w", err)
	}
	if err := checkFlowMemo(&s.memo, s.idx, s.rtp, func(key string) int {
		return shardOf(s.resolveRouteLocked(key), len(s.workers))
	}); err != nil {
		return fmt.Errorf("router flow memo: %w", err)
	}
	for _, w := range s.workers {
		if w.state.Load() != stateHealthy {
			continue
		}
		if err := checkMediaIndex(w.eng.gen.idx); err != nil {
			return fmt.Errorf("shard %d: %w", w.id, err)
		}
	}
	return nil
}

// ReplayPoisoned is ReplayCapture from a feeder that overwrites its one
// frame buffer with 0xA5 the moment the engine's feed returns: anything
// the engine still reads from a borrowed frame after that — in the
// router, a lane or a shard — decodes differently or not at all.
func (s *ShardedEngine) ReplayPoisoned(r *capture.Reader) error {
	feed := s.replayFeed()
	return capture.Replay(r, func(at time.Duration, frame []byte) {
		feed(at, frame)
		frame = frame[:cap(frame)]
		for i := range frame {
			frame[i] = 0xA5
		}
	})
}
