package core

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"scidive/internal/sip"
)

// Tests of the packed SIP trail slot and what a short dialog costs.

// TestSIPTrailSlotLayout pins the slot at 128 bytes or fewer and holds a
// SIP trail to the contract a media trail has: what eachView shows is
// what AppendView was given, ring and phantom entries behave as a
// frame-view ring's do, a saturated ring is exactly MaxTrailLen slots,
// and a trail restored mid-dialog converges on the one never restored.
func TestSIPTrailSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(sipSlot{}); size > 128 {
		t.Errorf("unsafe.Sizeof(sipSlot{}) = %d, want <= 128", size)
	}

	t.Run("round trip", func(t *testing.T) {
		want := FrameView{
			Proto: ProtoSIP, At: 7 * time.Second, Src: egCaller, Dst: netip.MustParseAddrPort("[2001:db8::7]:5060"),
			Msg: &sip.Message{Method: sip.MethodBye}, Malformed: []string{"duplicate To header (2 occurrences)"},
			StreamKey: "tcp:flow", PortProto: ProtoRTP,
		}
		var slot sipSlot
		slot.pack(&want)
		// A dirty destination: unpack must overwrite everything.
		got := FrameView{Proto: ProtoOther, Reason: "stale", RawLen: 3, OnPort: ProtoRTCP, EmbeddedSIP: true}
		slot.unpack(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("unpack(pack(v)):\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("ring", func(t *testing.T) {
		checkPackedRing(t, ProtoSIP, func(tr *Trail) int { return cap(tr.sip) }, sipSlabFirst)
	})

	// Checkpoint in the middle of a dialog, restore into a fresh engine,
	// and run both past the trail bound on retransmissions.
	t.Run("restore mid-dialog", func(t *testing.T) {
		const bound = 6
		cfg := Config{MaxTrailLen: bound}
		orig := NewEngine(cfg)
		at := time.Duration(0)
		feed := func(frame []byte, engines ...*Engine) {
			at += 20 * time.Millisecond
			for _, e := range engines {
				e.HandleFrame(at, frame)
			}
		}
		setup := callSetup(t, "mid@dialog", egCMedia, egBMedia)
		feed(setup[0], orig)
		feed(setup[1], orig)
		feed(setup[1], orig)
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored := NewEngine(cfg)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if tr := restored.trails.Lookup("mid@dialog", ProtoSIP); tr == nil || tr.restored != 3 || len(tr.sip) != 0 {
			t.Fatalf("restored SIP trail = %+v, want 3 phantom entries and no slots", tr)
		}
		for i := 0; i < 3*bound; i++ {
			feed(setup[i%2], orig, restored)
			if got, want := trailLens(restored.trails), trailLens(orig.trails); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d more messages: restored engine holds %v, original %v", i+1, got, want)
			}
		}
		a, b := orig.trails.Lookup("mid@dialog", ProtoSIP), restored.trails.Lookup("mid@dialog", ProtoSIP)
		if a == nil || a.Len() != bound || cap(a.sip) != bound {
			t.Fatalf("the dialog's SIP trail did not saturate at %d slots: %+v", bound, a)
		}
		if b.restored != 0 || cap(b.sip) != bound {
			t.Errorf("restored trail: %d phantoms left, %d slots; want 0 and %d", b.restored, cap(b.sip), bound)
		}
		if got, want := trailTimes(b), trailTimes(a); !reflect.DeepEqual(got, want) {
			t.Errorf("restored ring holds %v\noriginal ring holds %v", got, want)
		}
		snapA, errA := orig.Snapshot()
		snapB, errB := restored.Snapshot()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(snapA, snapB) {
			t.Error("re-snapshot of the restored engine differs from the engine that was never restored")
		}
	})
}

// dialogFrames returns the six messages of a short call — INVITE, 180,
// 200 with SDP, ACK, BYE, 200 — as frames between the signalling hosts.
func dialogFrames(t *testing.T, callID string) [][]byte {
	t.Helper()
	inv := egInvite(t, callID)
	ringing := sip.NewResponse(inv, sip.StatusRinging, "b1")
	ok := eg200(t, inv)
	inDialog := func(method sip.Method, seq uint32) *sip.Message {
		from, _ := sip.ParseAddress(inv.Headers.Get(sip.HdrFrom))
		to, _ := sip.ParseAddress(ok.Headers.Get(sip.HdrTo))
		return sip.NewRequest(sip.RequestSpec{
			Method: method, RequestURI: "sip:bob@10.0.0.2:5060", From: from, To: to, CallID: callID,
			CSeq: sip.CSeq{Seq: seq, Method: method},
			Via:  sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + string(method)}},
		})
	}
	bye := inDialog(sip.MethodBye, 2)
	var frames [][]byte
	for _, leg := range []struct {
		fromCaller bool
		m          *sip.Message
	}{
		{true, inv}, {false, ringing}, {false, ok}, {true, inDialog(sip.MethodAck, 1)},
		{true, bye}, {false, sip.NewResponse(bye, sip.StatusOK, "")},
	} {
		src, dst := egCaller, egCallee
		if !leg.fromCaller {
			src, dst = dst, src
		}
		frames = append(frames, udpFrame(t, src, dst, leg.m.Marshal()))
	}
	return frames
}

// TestSIPDialogFootprint is the tier-1 pin on what a finished short call
// costs while its session lives: 512 six-message dialogs hold at most
// 4 KB of heap each (measures 3.1 KB; 5.4 KB while trails kept whole
// frame views and every message twelve header slots), measured the way
// the benchmark's heap_bytes_per_session is.
func TestSIPDialogFootprint(t *testing.T) {
	const dialogs = 512
	var frames [][]byte
	for i := 0; i < dialogs; i++ {
		frames = append(frames, dialogFrames(t, fmt.Sprintf("short%d@pin", i))...)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := NewEngine(Config{})
	at := time.Duration(0)
	for _, fr := range frames {
		at += time.Millisecond
		eng.HandleFrame(at, fr)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perDialog := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / dialogs
	t.Logf("heap per six-message dialog: %d B", perDialog)
	if perDialog > 4000 {
		t.Errorf("heap per six-message dialog = %d B, want <= 4000", perDialog)
	}
	tr := eng.trails.Lookup("short0@pin", ProtoSIP)
	if tr == nil || tr.Len() != 6 || cap(tr.sip) != 8 {
		t.Fatalf("first dialog's SIP trail: %+v, want 6 messages in 8 slots", tr)
	}
	runtime.KeepAlive(eng)
}
