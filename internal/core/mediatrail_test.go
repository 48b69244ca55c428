package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// Tests of the packed media slot the router ships a shard, and of what a
// media trail counts and costs.

// TestMediaSlotLayout pins what the slot is for: at most 64 bytes, and
// nothing in it the collector has to follow.
func TestMediaSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(mediaSlot{}); size > 64 {
		t.Errorf("unsafe.Sizeof(mediaSlot{}) = %d, want <= 64", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s is a %v: the slot must hold no pointers", path, typ.Kind())
		}
	}
	walk("mediaSlot", reflect.TypeOf(mediaSlot{}))
}

// slotEndpoints covers every address shape a decoded view can carry:
// IPv4, IPv4-in-IPv6 (which must not collapse into IPv4), IPv6 and the
// unspecified addresses.
var slotEndpoints = []netip.AddrPort{
	netip.MustParseAddrPort("10.0.0.1:40000"),
	netip.MustParseAddrPort("255.255.255.255:65535"),
	netip.MustParseAddrPort("0.0.0.0:0"),
	netip.MustParseAddrPort("[::ffff:10.0.0.1]:40000"),
	netip.MustParseAddrPort("[2001:db8::7]:40002"),
	netip.MustParseAddrPort("[::]:1"),
}

// randomMediaView draws a media view with every field the slot keeps set
// from rng, extremes included.
func randomMediaView(rng *rand.Rand) FrameView {
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	v := FrameView{
		Proto:     ProtoRTP,
		At:        time.Duration(rng.Int63()) * time.Duration(pick(1, -1)),
		Src:       slotEndpoints[rng.Intn(len(slotEndpoints))],
		Dst:       slotEndpoints[rng.Intn(len(slotEndpoints))],
		PortProto: Protocol(pick(0, int(ProtoSIP), int(ProtoRTP), int(ProtoRTCP), int(ProtoControl))),
	}
	if rng.Intn(2) == 0 {
		v.Proto = ProtoRTCP
		v.RTCP = rtp.CompoundView{Packets: pick(0, 1, rng.Intn(1<<14), math.MaxUint16/4), HasBye: rng.Intn(2) == 0}
		return v
	}
	v.EmbeddedSIP = rng.Intn(2) == 0
	v.RTP = rtp.HeaderView{
		Padding:     rng.Intn(2) == 0,
		Extension:   rng.Intn(2) == 0,
		Marker:      rng.Intn(2) == 0,
		PayloadType: uint8(pick(0, 8, 127, rng.Intn(128))),
		Seq:         uint16(pick(0, math.MaxUint16, rng.Intn(1<<16))),
		Timestamp:   uint32(pick(0, math.MaxUint32, int(rng.Uint32()))),
		SSRC:        uint32(pick(0, math.MaxUint32, int(rng.Uint32()))),
		CSRCCount:   pick(0, 15, rng.Intn(16)),
		PayloadLen:  pick(0, 160, math.MaxUint16, rng.Intn(1<<16)),
	}
	return v
}

// TestMediaSlotRoundTrip is the slot's contract: unpack(pack(v)) == v for
// every media view, so a shard sees exactly the view the router decoded.
func TestMediaSlotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A dirty slot and a dirty destination: pack and unpack must each
	// overwrite everything.
	var slot mediaSlot
	got := FrameView{Proto: ProtoSIP, Msg: &sip.Message{}, Reason: "stale", RawLen: 3, StreamKey: "k"}
	for i := 0; i < 20000; i++ {
		want := randomMediaView(rng)
		slot.pack(&want)
		slot.unpack(&got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// udpFrame wraps payload in UDP/IPv4/Ethernet from src to dst.
func udpFrame(t testing.TB, src, dst netip.AddrPort, payload []byte) []byte {
	t.Helper()
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
		IPID: 1, Payload: payload,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frames[0]
}

// callSetup returns the INVITE and 200 OK frames of a call negotiating
// the two media endpoints.
func callSetup(t *testing.T, callID string, callerMedia, calleeMedia netip.AddrPort) [][]byte {
	t.Helper()
	inv := egInvite(t, callID)
	inv.Body = sdpAt(callerMedia)
	ok := eg200(t, inv)
	ok.Body = sdpAt(calleeMedia)
	return [][]byte{
		udpFrame(t, egCaller, egCallee, inv.Marshal()),
		udpFrame(t, egCallee, egCaller, ok.Marshal()),
	}
}

// rtcpPort is the RTCP endpoint paired with a media endpoint.
func rtcpPort(ep netip.AddrPort) netip.AddrPort { return netip.AddrPortFrom(ep.Addr(), ep.Port()+1) }

// trailLens maps every trail in the store to its Len.
func trailLens(s *TrailStore) map[trailKey]int {
	out := make(map[trailKey]int, len(s.trails))
	for k, tr := range s.trails {
		out[k] = tr.Len()
	}
	return out
}

// TestMediaTrailRing feeds RTP and RTCP through the engine past the trail
// bound: each media frame lands in its session's trail in the store, whose
// Len climbs one per packet and then stays at the bound.
func TestMediaTrailRing(t *testing.T) {
	const bound = 8
	eng := NewEngine(Config{MaxTrailLen: bound})
	at := time.Duration(0)
	feed := func(frame []byte) {
		at += 20 * time.Millisecond
		eng.HandleFrame(at, frame)
	}
	for _, fr := range callSetup(t, "ring@call", egCMedia, egBMedia) {
		feed(fr)
	}
	media := map[Protocol][]byte{
		ProtoRTP:  udpFrame(t, egCMedia, egBMedia, allocRTPPacket(t)),
		ProtoRTCP: udpFrame(t, rtcpPort(egCMedia), rtcpPort(egBMedia), allocBareRTCPPacket(t)),
	}
	for _, proto := range []Protocol{ProtoRTP, ProtoRTCP} {
		for i := 1; i <= 3*bound; i++ {
			feed(media[proto])
			tr := eng.trails.Lookup("ring@call", proto)
			if tr == nil || tr.Len() != min(i, bound) {
				t.Fatalf("%v packet %d: trail %+v, want Len %d", proto, i, tr, min(i, bound))
			}
			if tr != eng.trails.Get("ring@call", proto) {
				t.Fatalf("%v packet %d: engine appended to a trail the store does not hold", proto, i)
			}
		}
	}
	if n := eng.trails.Sessions(); n != 1 {
		t.Errorf("trail store holds %d sessions, want the one call", n)
	}
}

// TestMediaTrailRestoreMidCall restores a checkpoint taken mid-call into a
// fresh engine and runs both engines' RTP trail past its bound, with RTCP
// and SIP between: every trail of the restored engine must report the
// same Len as the one that was never restored at every step, and both
// must checkpoint to the same bytes.
func TestMediaTrailRestoreMidCall(t *testing.T) {
	const bound = 64
	cfg := Config{MaxTrailLen: bound}
	orig := NewEngine(cfg)
	at := time.Duration(0)
	feed := func(frame []byte, engines ...*Engine) {
		at += 20 * time.Millisecond
		for _, e := range engines {
			e.HandleFrame(at, frame)
		}
	}
	setup := callSetup(t, "mid@call", egCMedia, egBMedia)
	for _, fr := range setup {
		feed(fr, orig)
	}
	rtpFrame := udpFrame(t, egCMedia, egBMedia, allocRTPPacket(t))
	rtcpFrame := udpFrame(t, rtcpPort(egCMedia), rtcpPort(egBMedia), allocBareRTCPPacket(t))
	for i := 0; i < 40; i++ {
		feed(rtpFrame, orig)
	}
	feed(rtcpFrame, orig)
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewEngine(cfg)
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if tr := restored.trails.Lookup("mid@call", ProtoRTP); tr == nil || tr.Len() != 40 {
		t.Fatalf("restored RTP trail = %+v, want Len 40", tr)
	}
	for i := 0; i < 3*bound; i++ {
		feed(rtpFrame, orig, restored)
		if i%16 == 0 {
			feed(rtcpFrame, orig, restored)
			feed(setup[1], orig, restored) // a retransmitted 200 OK
		}
		if got, want := trailLens(restored.trails), trailLens(orig.trails); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d more packets: restored engine holds %v, original %v", i+1, got, want)
		}
	}
	if a := orig.trails.Lookup("mid@call", ProtoRTP); a == nil || a.Len() != bound {
		t.Fatalf("the call's RTP trail did not saturate: %+v", a)
	}
	snapA, errA := orig.Snapshot()
	snapB, errB := restored.Snapshot()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Error("re-snapshot of the restored engine differs from the engine that was never restored")
	}
}

// TestMediaTrailFootprint is the tier-1 pin on what a live call costs: 8
// calls whose RTP trails have counted past the default bound hold at most
// 8 KB of heap each (about 1.7 KB measured; 276 KB while a trail kept a
// 64-byte slot per packet), measured the way the benchmark's
// heap_bytes_per_session is.
func TestMediaTrailFootprint(t *testing.T) {
	const calls, perCall = 8, 4096 + 200
	var setup, media [][]byte
	for i := 0; i < calls; i++ {
		a := netip.AddrPortFrom(egCMedia.Addr(), uint16(40000+2*i))
		b := netip.AddrPortFrom(egBMedia.Addr(), uint16(40000+2*i))
		setup = append(setup, callSetup(t, fmt.Sprintf("heap%d@pin", i), a, b)...)
		media = append(media, udpFrame(t, a, b, allocRTPPacket(t)))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := NewEngine(Config{})
	at := time.Duration(0)
	for _, fr := range setup {
		at += time.Millisecond
		eng.HandleFrame(at, fr)
	}
	for i := 0; i < perCall; i++ {
		for _, fr := range media {
			at += time.Millisecond
			eng.HandleFrame(at, fr)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / calls
	t.Logf("heap per saturated call: %d B", perSession)
	if perSession > 8000 {
		t.Errorf("heap per saturated call = %d B, want <= 8000", perSession)
	}
	for i := 0; i < calls; i++ {
		tr := eng.trails.Lookup(fmt.Sprintf("heap%d@pin", i), ProtoRTP)
		if tr == nil || tr.Len() != 4096 {
			t.Fatalf("call %d: RTP trail %+v, want Len 4096", i, tr)
		}
	}
	runtime.KeepAlive(eng)
}
