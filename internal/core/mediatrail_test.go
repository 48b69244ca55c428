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

// Tests of the packed media trail slot, the media ring built from it and
// the per-session trail cache in front of the store.

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
// every media view, so a media trail read back through eachView shows
// exactly what AppendView was given.
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

// trailTimes lists the At of every retained entry, oldest first.
func trailTimes(tr *Trail) []time.Duration {
	var out []time.Duration
	tr.eachView(func(v *FrameView) bool {
		out = append(out, v.At)
		return true
	})
	return out
}

// checkPackedRing pins ring order, Len, growth and eviction on a packed
// trail (media or SIP), with and without restored phantom entries, against
// the frame-view ring an accounting trail of the same bound keeps. slab
// reports the packed slab's capacity; first is its first allocation.
func checkPackedRing(t *testing.T, proto Protocol, slab func(*Trail) int, first int) {
	t.Helper()
	const bound = 8
	for _, restored := range []int{0, 3, bound} {
		store := NewTrailStore(bound)
		packed, views := store.Get("s", proto), store.Get("s", ProtoAccounting)
		packed.restored, views.restored = restored, restored
		for i := 1; i <= 3*bound; i++ {
			v := FrameView{Proto: proto, At: time.Duration(i), RTP: rtp.HeaderView{Seq: uint16(i)}}
			packed.AppendView(&v)
			views.AppendView(&v)
			if packed.Len() != views.Len() || packed.Len() != min(restored+i, bound) {
				t.Fatalf("restored %d, append %d: packed Len %d, view Len %d, want %d",
					restored, i, packed.Len(), views.Len(), min(restored+i, bound))
			}
			got, want := trailTimes(packed), trailTimes(views)
			if !reflect.DeepEqual(got, want) || got[len(got)-1] != time.Duration(i) {
				t.Fatalf("restored %d, append %d: packed trail holds %v, views hold %v", restored, i, got, want)
			}
			if slab(packed) > bound {
				t.Fatalf("restored %d, append %d: ring grew to %d slots past its bound %d",
					restored, i, slab(packed), bound)
			}
		}
		if len(packed.entries) != 0 || len(views.media)+len(views.sip) != 0 ||
			cap(packed.media)+cap(packed.sip) != slab(packed) {
			t.Fatalf("a trail holds more than one slab: %v trail entries %d media %d sip %d; view trail media %d sip %d",
				proto, len(packed.entries), cap(packed.media), cap(packed.sip), len(views.media), len(views.sip))
		}
		if slab(packed) != bound {
			t.Errorf("restored %d: saturated ring has %d slots, want exactly %d", restored, slab(packed), bound)
		}
	}
	// Unbounded: doubles from the first allocation without a clamp.
	unbounded := NewTrailStore(0).Get("s", proto)
	for i := 0; i < 100; i++ {
		if i == 1 && slab(unbounded) != first {
			t.Errorf("first allocation is %d slots, want %d", slab(unbounded), first)
		}
		unbounded.AppendView(&FrameView{Proto: proto, At: time.Duration(i)})
	}
	if unbounded.Len() != 100 || slab(unbounded) != 128 {
		t.Errorf("unbounded packed trail: Len %d cap %d, want 100 and 128", unbounded.Len(), slab(unbounded))
	}
}

// TestMediaTrailRing holds RTP and RTCP trails to checkPackedRing.
func TestMediaTrailRing(t *testing.T) {
	for _, proto := range []Protocol{ProtoRTP, ProtoRTCP} {
		checkPackedRing(t, proto, func(tr *Trail) int { return cap(tr.media) }, mediaSlabFirst)
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

// trailLens maps every trail in the stores to its Len, adding up a key
// that more than one store holds.
func trailLens(stores ...*TrailStore) map[trailKey]int {
	out := make(map[trailKey]int)
	for _, s := range stores {
		for k, tr := range s.trails {
			out[k] += tr.Len()
		}
	}
	return out
}

// TestMediaTrailRestoreMidCall restores a checkpoint taken mid-call into a
// fresh engine and runs both engines past the trail bound: the restored
// media trail (phantom entries first, then a ring) must report the same
// Len as the one that was never restored at every step, hold the same
// packets once the phantoms are gone, and checkpoint to the same bytes.
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
	for _, fr := range callSetup(t, "mid@call", egCMedia, egBMedia) {
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
	if tr := restored.trails.Lookup("mid@call", ProtoRTP); tr == nil || tr.restored != 40 || len(tr.media) != 0 {
		t.Fatalf("restored RTP trail = %+v, want 40 phantom entries and no slots", tr)
	}
	for i := 0; i < 3*bound; i++ {
		feed(rtpFrame, orig, restored)
		if i%16 == 0 {
			feed(rtcpFrame, orig, restored)
		}
		if got, want := trailLens(restored.trails), trailLens(orig.trails); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d more packets: restored engine holds %v, original %v", i+1, got, want)
		}
	}
	a, b := orig.trails.Lookup("mid@call", ProtoRTP), restored.trails.Lookup("mid@call", ProtoRTP)
	if a == nil || a.Len() != bound {
		t.Fatalf("the call's RTP trail did not saturate: %+v", a)
	}
	if b.restored != 0 || cap(b.media) != bound || cap(a.media) != bound {
		t.Errorf("restored trail: %d phantoms left, %d slots; original %d slots; want 0, %d, %d",
			b.restored, cap(b.media), cap(a.media), bound, bound)
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
}

// checkTrailCache holds every session's cached media trails to the store:
// a cached pointer is the trail Get would return.
func checkTrailCache(g *EventGenerator) error {
	for id, st := range g.sessions {
		for _, c := range []struct {
			proto  Protocol
			cached *Trail
		}{{ProtoRTP, st.mediaTrails[0]}, {ProtoRTCP, st.mediaTrails[1]}} {
			if c.cached != nil && c.cached != g.trails.Lookup(id, c.proto) {
				return fmt.Errorf("session %q caches a %v trail the store does not hold under its key", id, c.proto)
			}
		}
	}
	return nil
}

// dropTrailCache forgets every cached media trail, so the next media
// frame of each session resolves its trail through TrailStore.Get.
func dropTrailCache(g *EventGenerator) {
	for _, st := range g.sessions {
		st.mediaTrails = [2]*Trail{}
	}
}

// TestCachedMediaTrailEquivalentToGet is the cache ≡ store property: over
// seeded interleavings of INVITEs, answers, re-INVITEs, BYEs, media,
// expiry, LRU eviction under MaxSessions, EvictSession (after which the
// world keeps signalling on the evicted Call-ID, so ids are reused) and
// index restore, a generator using the cache files every media frame in
// the trail a twin that looks each one up through Get files it in.
func TestCachedMediaTrailEquivalentToGet(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		maxSessions := 0
		if seed%2 == 0 {
			maxSessions = 4
		}
		cached, uncached := newAttrWorld(t, seed, maxSessions), newAttrWorld(t, seed, maxSessions)
		mediaTrails := 0
		for i := 0; i < 600; i++ {
			cached.step()
			dropTrailCache(uncached.g)
			uncached.step()
			label := fmt.Sprintf("seed %d cap %d step %d", seed, maxSessions, i)
			if err := checkTrailCache(cached.g); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, want := trailLens(cached.g.trails), trailLens(uncached.g.trails)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cached build holds %v\nGet-only build holds %v", label, got, want)
			}
			for _, st := range cached.g.sessions {
				if st.mediaTrails != [2]*Trail{} {
					mediaTrails++
				}
			}
		}
		if mediaTrails == 0 {
			t.Errorf("seed %d: no session ever cached a media trail; the sweep does not cover the cache", seed)
		}
	}
}

// TestCachedMediaTrailEngines drives whole engines through the cache's
// edges — media before its session is known, after, after a capacity
// eviction, after the Call-ID is reused, after expiry and reuse again —
// and holds the serial engine and the 2-shard engine to a serial engine
// whose cache is dropped before every frame.
func TestCachedMediaTrailEngines(t *testing.T) {
	cfg := Config{Limits: Limits{MaxSessions: 1}}
	serial, getOnly := NewEngine(cfg), NewEngine(cfg)
	sharded := NewShardedEngine(cfg, 2)
	defer sharded.Close()
	shardStores := func() []*TrailStore {
		sharded.Flush()
		sharded.mu.Lock()
		defer sharded.mu.Unlock()
		var out []*TrailStore
		for _, w := range sharded.workers {
			out = append(out, w.eng.trails)
		}
		return out
	}

	at := time.Duration(0)
	feed := func(frames ...[]byte) {
		for _, fr := range frames {
			at += 20 * time.Millisecond
			serial.HandleFrame(at, fr)
			dropTrailCache(getOnly.gen)
			getOnly.HandleFrame(at, fr)
			sharded.HandleFrame(at, fr)
		}
	}
	times := func(n int, frame []byte) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = frame
		}
		return out
	}
	check := func(stage string, want map[trailKey]int) {
		t.Helper()
		ref := trailLens(getOnly.trails)
		for k, n := range want {
			if ref[k] != n {
				t.Fatalf("%s: Get-only engine holds %d under %v, scenario expects %d (all: %v)", stage, ref[k], k, n, ref)
			}
		}
		if got := trailLens(serial.trails); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: serial engine holds %v\nGet-only engine holds %v", stage, got, ref)
		}
		if err := checkTrailCache(serial.gen); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := trailLens(shardStores()...); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: 2-shard engine holds %v\nGet-only engine holds %v", stage, got, ref)
		}
	}

	rtpFrame := udpFrame(t, egCMedia, egBMedia, allocRTPPacket(t))
	rtcpFrame := udpFrame(t, rtcpPort(egCMedia), rtcpPort(egBMedia), allocBareRTCPPacket(t))
	call1 := callSetup(t, "one@cache", egCMedia, egBMedia)
	call2 := callSetup(t, "two@cache", netip.MustParseAddrPort("10.0.0.3:41000"), netip.MustParseAddrPort("10.0.0.4:41000"))
	fallbackRTP := trailKey{"rtp:" + egBMedia.String(), ProtoRTP}
	oneRTP, oneRTCP := trailKey{"one@cache", ProtoRTP}, trailKey{"one@cache", ProtoRTCP}

	feed(times(5, rtpFrame)...)
	check("media before the session is known", map[trailKey]int{fallbackRTP: 5, oneRTP: 0})
	feed(call1...)
	feed(times(7, rtpFrame)...)
	feed(times(2, rtcpFrame)...)
	check("media of the known session", map[trailKey]int{fallbackRTP: 5, oneRTP: 7, oneRTCP: 2})
	feed(call2...) // MaxSessions 1: evicts one@cache and its trails
	feed(times(3, rtpFrame)...)
	check("after capacity eviction", map[trailKey]int{fallbackRTP: 8, oneRTP: 0, oneRTCP: 0})
	feed(call1...) // the Call-ID comes back
	feed(times(4, rtpFrame)...)
	feed(rtcpFrame)
	check("Call-ID reused after eviction", map[trailKey]int{fallbackRTP: 8, oneRTP: 4, oneRTCP: 1})
	// Idle past the session timeout, then enough unattributed traffic to
	// reach the next expiry sweep.
	at += 11 * time.Minute
	other := udpFrame(t, netip.MustParseAddrPort("10.0.0.8:42000"), netip.MustParseAddrPort("10.0.0.9:42000"), allocRTPPacket(t))
	feed(times(gcEvery, other)...)
	feed(times(2, rtpFrame)...)
	check("after expiry", map[trailKey]int{fallbackRTP: 10, oneRTP: 0, oneRTCP: 0})
	feed(call1...)
	feed(times(6, rtpFrame)...)
	check("Call-ID reused after expiry", map[trailKey]int{fallbackRTP: 10, oneRTP: 6, oneRTCP: 0})
}

// TestMediaTrailFootprint is the tier-1 pin on what a live call costs: 8
// calls whose RTP trails are saturated at the default bound hold at most
// 300 KB of heap each (4096 slots x 64 B is 256 KB of that), measured the
// way the benchmark's heap_bytes_per_session is, and a saturated ring is
// exactly MaxTrailLen slots.
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
	if perSession > 300_000 {
		t.Errorf("heap per saturated call = %d B, want <= 300000", perSession)
	}
	for i := 0; i < calls; i++ {
		tr := eng.trails.Lookup(fmt.Sprintf("heap%d@pin", i), ProtoRTP)
		if tr == nil || tr.Len() != 4096 || cap(tr.media) != 4096 {
			t.Fatalf("call %d: RTP trail %+v, want Len and cap 4096", i, tr)
		}
	}
	runtime.KeepAlive(eng)
}
