package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"scidive/internal/sip"
)

// Tests of what a SIP trail counts, what a short dialog costs and what
// the engine keeps of a message once its frame is done.

// TestSIPTrailSlotLayout holds a SIP trail to the contract a media trail
// has: its Len climbs one per message and stops at MaxTrailLen, and a
// trail restored mid-dialog converges on the one never restored.
func TestSIPTrailSlotLayout(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		const bound = 8
		eng := NewEngine(Config{MaxTrailLen: bound})
		setup := callSetup(t, "ring@dialog", egCMedia, egBMedia)
		for i := 1; i <= 3*bound; i++ {
			eng.HandleFrame(time.Duration(i)*time.Millisecond, setup[i%2])
			tr := eng.trails.Lookup("ring@dialog", ProtoSIP)
			if tr == nil || tr.Len() != min(i, bound) {
				t.Fatalf("message %d: SIP trail %+v, want Len %d", i, tr, min(i, bound))
			}
		}
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
		if tr := restored.trails.Lookup("mid@dialog", ProtoSIP); tr == nil || tr.Len() != 3 {
			t.Fatalf("restored SIP trail = %+v, want Len 3", tr)
		}
		for i := 0; i < 3*bound; i++ {
			feed(setup[i%2], orig, restored)
			if got, want := trailLens(restored.trails), trailLens(orig.trails); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d more messages: restored engine holds %v, original %v", i+1, got, want)
			}
		}
		if a := orig.trails.Lookup("mid@dialog", ProtoSIP); a == nil || a.Len() != bound {
			t.Fatalf("the dialog's SIP trail did not saturate at %d: %+v", bound, a)
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
// 1.5 KB of heap each (measures 1.0 KB; 1.7 KB while every event boxed
// a copy of its frame, 5.2 KB while SIP trails held every *sip.Message
// of the dialog), measured the way the benchmark's
// heap_bytes_per_session is.
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
	// The input frames stay live across both readings, so what the engine
	// freed of them cannot offset what it holds.
	runtime.KeepAlive(frames)
	perDialog := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / dialogs
	t.Logf("heap per six-message dialog: %d B", perDialog)
	if perDialog > 1500 {
		t.Errorf("heap per six-message dialog = %d B, want <= 1500", perDialog)
	}
	if tr := eng.trails.Lookup("short0@pin", ProtoSIP); tr == nil || tr.Len() != 6 {
		t.Fatalf("first dialog's SIP trail: %+v, want Len 6", tr)
	}
	runtime.KeepAlive(eng)
}

// TestStoredKeysDoNotPinMessages: a parsed message's header values are
// substrings of one copy of its header block, so a value stored past the
// frame would keep that whole block alive for as long as the store. After
// a registration with credentials, a call, an OPTIONS probe and a hangup,
// no session key, trail key, options-scan dialog, guessed response, or
// Session or Detail of a retained event, partial match or alert may point
// into any message's header block. And nothing the engine retains — the
// event log, the alerts, the rule partials (the BYE leaves one open) —
// may reach a message at all: with the engine still alive and its
// per-frame view reset, every parsed message must be collectable.
func TestStoredKeysDoNotPinMessages(t *testing.T) {
	alice, _ := sip.ParseAddress("<sip:alice@10.0.0.10>;tag=r1")
	aliceAOR, _ := sip.ParseAddress("<sip:alice@10.0.0.10>")
	contact, _ := sip.ParseAddress("<sip:alice@10.0.0.1:5060>")
	via := sip.Via{Transport: "UDP", SentBy: "10.0.0.1:5060", Params: map[string]string{"branch": sip.MagicBranchPrefix + "pin"}}
	reg := sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodRegister, RequestURI: "sip:10.0.0.10", From: alice, To: aliceAOR, CallID: "reg@pin",
		CSeq: sip.CSeq{Seq: 1, Method: sip.MethodRegister}, Via: via, Contact: &contact,
	})
	reg.Headers.Add(sip.HdrAuthorization, sip.Credentials{
		Username: "alice", Realm: "pin", Nonce: "n1", URI: "sip:10.0.0.10", Response: "0123456789abcdef",
	}.String())
	regOK := sip.NewResponse(reg, sip.StatusOK, "")
	regOK.Headers.Add(sip.HdrContact, contact.String())
	probe := sip.NewRequest(sip.RequestSpec{
		Method: sip.MethodOptions, RequestURI: "sip:bob@10.0.0.10", From: alice, To: aliceAOR, CallID: "probe@pin",
		CSeq: sip.CSeq{Seq: 1, Method: sip.MethodOptions}, Via: via,
	})
	frames := append([][]byte{
		udpFrame(t, egCaller, egCallee, reg.Marshal()),
		udpFrame(t, egCallee, egCaller, regOK.Marshal()),
		udpFrame(t, egCaller, egCallee, probe.Marshal()),
	}, dialogFrames(t, "call@pin")...)

	eng := NewEngine(Config{}, WithEventLog())
	type block struct{ lo, hi uintptr }
	var blocks []block
	var freed atomic.Int32
	for i, fr := range frames {
		eng.HandleFrame(time.Duration(i+1)*time.Millisecond, fr)
		m := eng.view.Msg
		if m == nil {
			t.Fatalf("frame %d did not parse as SIP", i)
		}
		// The header block starts at the start line, whose fields give the
		// offset; these messages re-marshal to their wire bytes, which give
		// its length.
		var lo uintptr
		if m.IsRequest() {
			lo = uintptr(unsafe.Pointer(unsafe.StringData(m.RequestURI))) - uintptr(len(m.Method)+1)
		} else {
			lo = uintptr(unsafe.Pointer(unsafe.StringData(m.ReasonPhrase))) - uintptr(len("SIP/2.0 200 "))
		}
		b := block{lo, lo + uintptr(bytes.Index(m.Marshal(), []byte("\r\n\r\n")))}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(m.CallID()))); p < b.lo || p >= b.hi {
			t.Fatalf("frame %d: the Call-ID is not a substring of the header block", i)
		}
		blocks = append(blocks, b)
		runtime.SetFinalizer(m, func(*sip.Message) { freed.Add(1) })
	}
	pinned := func(what, s string) {
		t.Helper()
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for i, b := range blocks {
			if s != "" && p >= b.lo && p < b.hi {
				t.Errorf("%s %q points into message %d's header block", what, s, i)
			}
		}
	}

	g := eng.gen
	var guesses, dialogs int
	for id, st := range g.idx.sessions {
		pinned("session key", id)
		pinned("session Call-ID", st.callID)
		for _, s := range []string{st.callerAOR, st.calleeAOR, st.callerTag, st.calleeTag} {
			pinned("session field", s)
		}
		for r := range st.guessResponses {
			pinned("guessed response", r)
			guesses++
		}
	}
	for k, tr := range eng.trails.trails {
		pinned("trail key", k.session)
		pinned("trail session", tr.Session)
	}
	for _, c := range g.correlators {
		if scan, ok := c.(*optionsScanCorrelator); ok {
			for _, r := range scan.sources {
				for d := range r.dialogs {
					pinned("options-scan dialog", d)
					dialogs++
				}
			}
		}
	}
	for aor := range g.bindings {
		pinned("binding", aor)
	}
	event := func(what string, ev Event) {
		t.Helper()
		pinned(what+" "+ev.Type.String()+" session", ev.Session)
		pinned(what+" "+ev.Type.String()+" detail", ev.Detail)
	}
	events, registers, byes := eng.Events(), 0, 0
	for _, ev := range events {
		event("event", ev)
		switch ev.Type {
		case EvSIPRegister:
			registers++
		case EvSIPBye:
			byes++
		}
	}
	partials := 0
	for _, parts := range eng.rules.partials {
		for _, p := range parts {
			for _, ev := range p.events {
				event("partial", ev)
			}
			partials++
		}
	}
	for _, a := range eng.Alerts() {
		pinned("alert session", a.Session)
		pinned("alert detail", a.Detail)
		for _, ev := range a.Events {
			event("alert", ev)
		}
	}
	if guesses != 1 || dialogs != 1 || registers != 1 || byes != 1 || partials == 0 ||
		len(g.bindings) != 1 || len(g.idx.sessions) != 3 {
		t.Fatalf("nothing to check: %d guesses, %d probed dialogs, %d REGISTER and %d BYE events, %d partials, %d bindings, %d sessions",
			guesses, dialogs, registers, byes, partials, len(g.bindings), len(g.idx.sessions))
	}

	// Only the per-frame view may still point at a message (the last
	// one); everything else the engine holds must let them all go.
	eng.view.reset()
	want := int32(len(frames))
	for i := 0; i < 50 && freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Errorf("%d of %d parsed messages collected while the engine lives; the rest are still reachable from its state", got, want)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(events)
}
