package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// unpackFlow inverts packFlow.
func unpackFlow(src, dst uint64) (Protocol, netip.AddrPort, netip.AddrPort) {
	ap := func(w uint64) netip.AddrPort {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(w>>16))
		return netip.AddrPortFrom(netip.AddrFrom4(a), uint16(w))
	}
	return Protocol(dst >> 48), ap(src), ap(dst & (1<<48 - 1))
}

// checkFlowMemo holds every slot of a flow memo whose epochs are current
// to an uncached attributeMedia: the same key and state, a sole answer,
// the tracker seqs[dst] (nil for RTCP, or without an rtp correlator), and
// a slot that lives in its flow's set, once. shardOfKey, when non-nil,
// checks the shard cached for a flow no session claims.
func checkFlowMemo(m *flowMemo, x *sessionIndex, rc *rtpCorrelator, shardOfKey func(key string) int) error {
	for i := range m.slots {
		sl := &m.slots[i]
		if sl.dst == 0 || !sl.current(x, rc) {
			continue
		}
		proto, src, dst := unpackFlow(sl.src, sl.dst)
		label := fmt.Sprintf("slot %d (%v %v -> %v)", i, proto, src, dst)
		ways := m.ways(sl.src, sl.dst)
		if sl != &ways[0] && sl != &ways[1] {
			return fmt.Errorf("%s: not in its flow's set", label)
		}
		other := &ways[0]
		if other == sl {
			other = &ways[1]
		}
		if other.src == sl.src && other.dst == sl.dst && other.current(x, rc) {
			return fmt.Errorf("%s: held current in both ways", label)
		}
		key, st, sole := x.attributeMedia(proto, src, dst)
		switch {
		case !sole:
			return fmt.Errorf("%s: memoized, but the attribution is not sole", label)
		case key != sl.key || st != sl.st:
			return fmt.Errorf("%s: memo says %q (%p), attributeMedia says %q (%p)", label, sl.key, sl.st, key, st)
		}
		var want *seqTrack
		if proto == ProtoRTP && rc != nil {
			if want = rc.seqs[dst]; want == nil {
				return fmt.Errorf("%s: current RTP slot, but no tracker for %v", label, dst)
			}
		}
		if sl.seq != want {
			return fmt.Errorf("%s: memo tracker %p, seqs[dst] is %p", label, sl.seq, want)
		}
		if sl.st == nil && sl.shard != 0 && shardOfKey != nil {
			if got, want := int(sl.shard)-1, shardOfKey(key); got != want {
				return fmt.Errorf("%s: cached shard %d, %q resolves to %d", label, got, key, want)
			}
		}
	}
	return nil
}

// TestFlowMemoEpochSites pins every site that can invalidate a memo slot
// to its epoch bump: each insert into or removal from the session table
// or the reverse media index, and each removal from the RTP trackers.
func TestFlowMemoEpochSites(t *testing.T) {
	ep1, ep2 := netip.MustParseAddrPort("10.0.0.1:40000"), netip.MustParseAddrPort("10.0.0.2:40000")
	x := newSessionIndex()
	bumps := func(site string, epoch *uint64, f func()) {
		t.Helper()
		before := *epoch
		f()
		if *epoch == before {
			t.Errorf("%s: epoch did not move", site)
		}
	}
	var st *sessionState
	bumps("core, new session", &x.epoch, func() { st = x.core("a@memo") })
	bumps("indexMedia", &x.epoch, func() { x.setCallerMedia(st, ep1) })
	bumps("unindexMedia", &x.epoch, func() { x.setCallerMedia(st, netip.AddrPort{}) })
	bumps("dropSession", &x.epoch, func() { x.dropSession(st.callID, st) })
	bumps("installSessionIndex", &x.epoch, func() { installSessionIndex(x, indexSnap{}) })

	rc := newRTPCorrelator()
	rc.setLimits(Limits{MaxSeqTrackers: 1})
	rc.track(0, ep1, 1)
	bumps("evictStalestSeq", &rc.epoch, func() { rc.track(time.Millisecond, ep2, 1) })
	bumps("onEstablished", &rc.epoch, func() { rc.onEstablished(&sessionState{calleeMedia: ep2}) })
	rc.track(2*time.Millisecond, ep1, 1)
	bumps("onExpire", &rc.epoch, func() { rc.onExpire(3*time.Millisecond, 0) })
	rc.track(4*time.Millisecond, ep1, 1)
	before := rc.epoch
	rc.onExpire(5*time.Millisecond, time.Second)
	if rc.epoch != before {
		t.Error("onExpire: epoch moved on a sweep that dropped nothing")
	}
	bumps("walkState install", &rc.epoch, func() {
		install, err := decodeCorrBlob(rc, encodeCorrState(rc))
		if err != nil {
			t.Fatal(err)
		}
		install()
	})
}

// TestFlowMemoHitSkipsLookups shows a steady flow is answered from its
// slot: with the flow's tracker taken out of seqs behind the memo's back
// (no epoch bump), the next packet still advances the cached tracker,
// where a lookup would have made a new one and reported a new flow.
func TestFlowMemoHitSkipsLookups(t *testing.T) {
	src, dst := netip.MustParseAddrPort("10.0.0.1:40000"), netip.MustParseAddrPort("10.0.0.2:40000")
	x, rc := newSessionIndex(), newRTPCorrelator()
	rc.configure(GenConfig{}.withDefaults())
	var m flowMemo
	first, v, _ := m.route(x, rc, ProtoRTP, 0, src, dst, 1)
	if first == &m.miss || !v.NewFlow || first.key != "rtp:"+dst.String() {
		t.Fatalf("first packet: slot kept %v, key %q, verdict %+v", first != &m.miss, first.key, v)
	}
	delete(rc.seqs, dst)
	second, v, _ := m.route(x, rc, ProtoRTP, time.Millisecond, src, dst, 2)
	if second != first || v.NewFlow || v.Prev != 1 {
		t.Fatalf("second packet was not a memo hit: verdict %+v", v)
	}
	if len(m.slots) != 2*minFlowSets {
		t.Errorf("table holds %d slots, want the %d-set floor", len(m.slots), minFlowSets)
	}
}

// TestFlowMemoDropStale shows the sweep's pass over the memo: a sweep
// that drops nothing leaves every slot answering; one that drops a
// tracker moves the epoch, so every RTP slot lets go of its session,
// key and tracker, and the next packets are answered by lookup — the
// surviving tracker continues, the dropped one opens a new flow.
func TestFlowMemoDropStale(t *testing.T) {
	a, b := netip.MustParseAddrPort("10.0.0.1:40000"), netip.MustParseAddrPort("10.0.0.2:40000")
	x, rc := newSessionIndex(), newRTPCorrelator()
	rc.configure(GenConfig{}.withDefaults())
	var m flowMemo
	toB, _, _ := m.route(x, rc, ProtoRTP, 0, a, b, 1)
	toA, _, _ := m.route(x, rc, ProtoRTP, time.Minute, b, a, 1)
	rc.onExpire(time.Minute, 2*time.Minute)
	m.dropStale(x, rc)
	if toB.seq == nil || toA.seq == nil {
		t.Fatal("a sweep that dropped nothing emptied a slot")
	}
	rc.onExpire(time.Minute, 30*time.Second) // b's tracker ends, a's stays
	m.dropStale(x, rc)
	if *toB != (flowSlot{}) || *toA != (flowSlot{}) {
		t.Errorf("stale slots kept %+v and %+v", *toB, *toA)
	}
	if _, v, _ := m.route(x, rc, ProtoRTP, 2*time.Minute, b, a, 2); v.NewFlow || v.Prev != 1 {
		t.Errorf("toward a, whose tracker stayed: verdict %+v", v)
	}
	if _, v, _ := m.route(x, rc, ProtoRTP, 2*time.Minute, a, b, 2); !v.NewFlow {
		t.Errorf("toward b, whose tracker ended: verdict %+v", v)
	}
	if err := checkFlowMemo(&m, x, rc, nil); err != nil {
		t.Error(err)
	}
}

// TestFlowMemoGrowsWithDirectory checks the sizing rule: the next power
// of two ≥ 2 × len(byMedia) sets, made again, empty, when the directory
// outgrows the table.
func TestFlowMemoGrowsWithDirectory(t *testing.T) {
	x, rc := newSessionIndex(), newRTPCorrelator()
	var m flowMemo
	route := func(i int) {
		ep := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 40000)
		m.route(x, rc, ProtoRTP, 0, ep, ep, 1)
	}
	route(0)
	if len(m.slots) != 2*minFlowSets {
		t.Fatalf("first media frame made %d slots, want %d", len(m.slots), 2*minFlowSets)
	}
	for i := 0; i < 100; i++ {
		st := x.core(fmt.Sprintf("c%d@memo", i))
		x.setCallerMedia(st, netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 2, 0, byte(i)}), 40000))
	}
	route(1)
	if len(m.slots) != 2*256 {
		t.Fatalf("100 endpoints: %d slots, want %d (256 sets)", len(m.slots), 2*256)
	}
	if err := checkFlowMemo(&m, x, rc, nil); err != nil {
		t.Fatal(err)
	}
}
