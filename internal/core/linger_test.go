package core

import (
	"testing"
	"time"
)

// TestLingerRule pins the linger's decisions on a hand-set clock: when a
// partial batch goes out, and when the batcher enters and leaves the slow
// regime. The backstop half is held end to end by
// TestShardedDetectionDelay.
func TestLingerRule(t *testing.T) {
	const us = time.Microsecond
	var l linger
	l.init(func() uint64 { return 0 }, func() {})
	defer l.stop()

	// Fast regime: a young batch stays; an old one is not cut blind but
	// starts the slow regime, which measures idle time from here on.
	young := batchStamp{at: 950 * us}
	old := batchStamp{at: 0}
	if _, measuring := l.check(); measuring {
		t.Fatal("fast regime claims to measure idle time")
	}
	if l.expired(young, 1000*us, false) || l.slow {
		t.Fatal("a batch younger than the linger expired or started the slow regime")
	}
	if l.expired(old, 1000*us, false) {
		t.Fatal("an old batch was cut before any idle time was measured")
	}
	if !l.slow {
		t.Fatal("an old batch did not start the slow regime")
	}

	// Slow regime: frames 40µs apart that take 5µs each leave the
	// batcher idle 35µs per gap.
	l.end = 1000 * us
	b := batchStamp{at: 1000 * us, idle: l.idle}
	at := 1000 * us
	var cutAt time.Duration
	for i := 0; i < 10 && cutAt == 0; i++ {
		at += 40 * us
		l.now, l.idle = at, l.idle+(at-l.end)
		l.end = at + 5*us
		now, measuring := l.check()
		if !measuring || now != at {
			t.Fatalf("slow regime check = (%v, %v), want (%v, true)", now, measuring, at)
		}
		if l.expired(b, now, measuring) {
			cutAt = now - b.at
		}
	}
	if cutAt <= batchLinger || cutAt > batchLinger+40*us {
		t.Errorf("idle batcher cut its batch at age %v, want the first frame past %v", cutAt, batchLinger)
	}

	// A saturated batcher — frames back to back, 100ns idle between
	// them — keeps a batch well past the linger: cutting it would only
	// cost the router a worker wake-up.
	b = batchStamp{at: at, idle: l.idle}
	for i := 0; i < 300; i++ {
		at += 2 * us
		l.idle += 100 * time.Nanosecond
		if l.expired(b, at, true) {
			t.Fatalf("saturated batcher cut a batch at age %v after %v idle", at-b.at, l.idle-b.idle)
		}
	}
	// Half the linger of idle time since the batch opened sends it.
	l.idle += batchLinger/2 - 30*us
	if !l.expired(b, at, true) {
		t.Errorf("a %v-old batch was kept after the batcher sat idle %v", at-b.at, l.idle-b.idle)
	}
	l.filled()
	if l.slow {
		t.Error("a filled batch did not end the slow regime")
	}
}
