package core

import (
	"testing"
	"time"
)

func rtpFp(at time.Duration) *FrameView {
	return &FrameView{Proto: ProtoRTP, At: at}
}

// TestTrailAppendAndOrder appends to an unbounded trail: each append
// advances Len by exactly one, and Get keeps handing back the same trail
// for the same session and protocol.
func TestTrailAppendAndOrder(t *testing.T) {
	s := NewTrailStore(0)
	tr := s.Get("call-1", ProtoRTP)
	if tr.Session != "call-1" || tr.Protocol != ProtoRTP || tr.Len() != 0 {
		t.Fatalf("new trail = %+v, want an empty call-1 RTP trail", tr)
	}
	for i := 0; i < 10; i++ {
		s.Get("call-1", ProtoRTP).AppendView(rtpFp(time.Duration(i) * time.Millisecond))
		if tr.Len() != i+1 {
			t.Fatalf("after append %d: Len = %d, want %d", i, tr.Len(), i+1)
		}
	}
	if got := s.Lookup("call-1", ProtoRTP); got != tr {
		t.Errorf("Lookup returned %p, want the trail Get created (%p)", got, tr)
	}
}

// TestTrailBounded runs a trail far past its store's bound: Len stops at
// the bound, and every trail of the store shares that bound.
func TestTrailBounded(t *testing.T) {
	s := NewTrailStore(5)
	for _, proto := range []Protocol{ProtoSIP, ProtoRTP, ProtoRTCP, ProtoAccounting} {
		tr := s.Get("call-1", proto)
		for i := 0; i < 20; i++ {
			tr.AppendView(rtpFp(time.Duration(i) * time.Millisecond))
			if want := min(i+1, 5); tr.Len() != want {
				t.Fatalf("%v trail after %d appends: Len = %d, want %d", proto, i+1, tr.Len(), want)
			}
		}
	}
}

// TestTrailCounter holds the counter to the arithmetic of the ring it
// replaced: a ring of real entries behind a run of phantom entries left by
// a checkpoint restore, where an append past the bound retires a phantom
// first and then overwrites the oldest real entry. Len is phantoms + real.
func TestTrailCounter(t *testing.T) {
	const bound = 5
	for _, maxLen := range []int{0, bound} {
		for _, start := range []int{0, 3, bound, bound + 2} {
			tr := NewTrailStore(maxLen).Get("s", ProtoRTP)
			tr.n = start // what installSnap sets from a checkpoint
			phantoms, kept := start, 0
			for i := 1; i <= 3*bound; i++ {
				switch {
				case maxLen == 0 || phantoms+kept < maxLen:
					kept++
				case phantoms > 0:
					phantoms--
					kept++
				}
				tr.AppendView(&FrameView{Proto: ProtoRTP, At: time.Duration(i)})
				if tr.Len() != phantoms+kept {
					t.Fatalf("maxLen %d, start %d, append %d: Len %d, ring arithmetic %d",
						maxLen, start, i, tr.Len(), phantoms+kept)
				}
			}
		}
	}
}

func TestTrailStoreSessionGrouping(t *testing.T) {
	s := NewTrailStore(0)
	s.Get("call-1", ProtoSIP).AppendView(rtpFp(0))
	s.Get("call-1", ProtoRTP).AppendView(rtpFp(0))
	s.Get("call-1", ProtoAccounting).AppendView(rtpFp(0))
	s.Get("call-2", ProtoSIP).AppendView(rtpFp(0))
	if s.Sessions() != 2 {
		t.Errorf("Sessions = %d", s.Sessions())
	}
	if s.Trails() != 4 {
		t.Errorf("Trails = %d", s.Trails())
	}
	trails := s.SessionTrails("call-1")
	if len(trails) != 3 {
		t.Fatalf("SessionTrails = %d, want 3", len(trails))
	}
	if s.Lookup("call-1", ProtoRTCP) != nil {
		t.Error("Lookup invented a trail")
	}
	s.Drop("call-1")
	if s.Trails() != 1 || s.Sessions() != 1 {
		t.Errorf("after Drop: %v", s)
	}
}

func TestProtocolString(t *testing.T) {
	want := map[Protocol]string{
		ProtoSIP: "SIP", ProtoRTP: "RTP", ProtoRTCP: "RTCP",
		ProtoAccounting: "ACCT", ProtoOther: "OTHER", Protocol(0): "UNKNOWN",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}
