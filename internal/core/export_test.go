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

// LivePartials counts the in-progress multi-step matches the rule engine
// holds.
func (re *RuleEngine) LivePartials() int {
	n := 0
	for _, parts := range re.partials {
		n += len(parts)
	}
	return n
}

// LiveLookbacks counts the absent-event lookback entries the rule engine
// holds.
func (re *RuleEngine) LiveLookbacks() int {
	if re.clock == nil {
		return 0
	}
	return len(re.clock.lastAbsent)
}

// LivePartials counts the serial engine's in-progress multi-step matches.
func (e *Engine) LivePartials() int { return e.rules.LivePartials() }

// LiveSessions counts the serial engine's session directory entries.
func (e *Engine) LiveSessions() int { return len(e.gen.idx.sessions) }

// CheckPartialsLive reports a session-keyed partial whose session is not
// in the engine's directory: rule progress must never outlive its
// session.
func (e *Engine) CheckPartialsLive() error { return checkPartialsLive(e) }

// LivePartials sums the shards' in-progress multi-step matches (after a
// Flush; quarantined shards are skipped).
func (s *ShardedEngine) LivePartials() int {
	n := 0
	s.eachHealthyShard(func(e *Engine) { n += e.LivePartials() })
	return n
}

// LiveSessions sums the shards' session directory entries.
func (s *ShardedEngine) LiveSessions() int {
	n := 0
	s.eachHealthyShard(func(e *Engine) { n += e.LiveSessions() })
	return n
}

// CheckPartialsLive runs Engine.CheckPartialsLive on every shard: each
// shard's partials must key sessions of that shard's directory.
func (s *ShardedEngine) CheckPartialsLive() error {
	var err error
	s.eachHealthyShard(func(e *Engine) {
		if err == nil {
			err = checkPartialsLive(e)
		}
	})
	return err
}

// eachHealthyShard flushes, then runs fn on every healthy shard's engine
// at rest.
func (s *ShardedEngine) eachHealthyShard(fn func(e *Engine)) {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.workers {
		if w.state.Load() == stateHealthy {
			fn(w.eng)
		}
	}
}

func checkPartialsLive(e *Engine) error {
	for k, parts := range e.rules.partials {
		if len(parts) == 0 {
			return fmt.Errorf("rule %s keeps an empty entry for %q", k.rule, k.key)
		}
		r, _ := RuleByName(e.rules.rules, k.rule)
		if _, live := e.gen.idx.sessions[k.key]; sessionKeyed(&r) && !live {
			return fmt.Errorf("rule %s keeps %d partial(s) for session %q, which the directory dropped",
				k.rule, len(parts), k.key)
		}
	}
	return nil
}

// GCEvery is how many frames pass between session-expiry sweeps.
const GCEvery = gcEvery
