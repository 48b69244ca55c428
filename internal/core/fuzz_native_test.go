package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"scidive/internal/packet"
	"scidive/internal/sip"
)

// FuzzDistill throws arbitrary frames at the distiller; it must never
// panic and must account every frame.
func FuzzDistill(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0, 0, 0, 0, 2, 0x02, 0, 0, 0, 0, 1, 0x08, 0x00})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, frame []byte) {
		d := NewDistiller()
		var v FrameView
		_ = d.DistillView(time.Millisecond, frame, &v)
		if d.Stats().Frames != 1 {
			t.Fatal("frame not accounted")
		}
	})
}

// fuzzClassifyPorts are the port pairs FuzzDistillerClassify cycles
// through: each claimed protocol plus an unmonitored port, so the fuzzer
// exercises every arm of the reclassification ladder.
var fuzzClassifyPorts = []struct{ src, dst uint16 }{
	{5060, 5060},   // SIP claim
	{40666, 40000}, // RTP claim (even media port)
	{40666, 40001}, // RTCP claim (odd media port)
	{40666, 7009},  // accounting claim
	{1234, 80},     // unmonitored
}

// FuzzDistillerClassify throws hostile payloads at every port-claim arm
// of the content-confirmed classifier — seeded with the torture corpus
// and the evasion shapes (RTP on signaling ports, SIP smuggled in RTP
// payloads). The distiller must never panic and every frame must land in
// exactly one terminal ledger counter; and because the router decides a
// frame's protocol with the same decode stage the distiller runs, the
// serial engine and a 1-shard sharded engine must count the payload the
// same way on every port pair.
func FuzzDistillerClassify(f *testing.F) {
	for _, e := range sip.TortureCorpus() {
		f.Add(e.Raw, uint8(0))
		f.Add(e.Raw, uint8(1))
	}
	rtpPkt := []byte{0x80, 0, 0x23, 0x28, 0, 0, 0x10, 0, 0xde, 0xad, 0, 1, 'm', 'e', 'd', 'i', 'a'}
	f.Add(rtpPkt, uint8(0)) // RTP tunneled at the SIP port
	smuggled := append(append([]byte(nil), rtpPkt...), []byte("BYE sip:bob@pbx SIP/2.0\r\n\r\n")...)
	f.Add(smuggled, uint8(1)) // SIP smuggled inside an RTP payload
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, payload []byte, portSel uint8) {
		ports := fuzzClassifyPorts[int(portSel)%len(fuzzClassifyPorts)]
		spec := packet.UDPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
			SrcPort: ports.src, DstPort: ports.dst, IPID: 3, Payload: payload,
		}
		frames, err := packet.BuildUDPFrames(spec, 0)
		if err != nil {
			t.Skip() // payload exceeds what UDP can carry
		}
		d := NewDistiller()
		var v FrameView
		for i, frame := range frames {
			_ = d.DistillView(time.Duration(i)*time.Millisecond, frame, &v)
		}
		st := d.Stats()
		if st.Frames != len(frames) {
			t.Fatalf("Frames = %d, fed %d", st.Frames, len(frames))
		}
		terminal := st.DecodeError + st.Fragments + st.Ignored + st.Streamed +
			st.SIP + st.RTP + st.RTCP + st.Acct + st.Raw + st.Mismatched
		if terminal != st.Frames+st.StreamMsgs {
			t.Fatalf("ledger broken: terminal %d, inputs %d (%+v)", terminal, st.Frames+st.StreamMsgs, st)
		}

		serial := NewEngine(Config{})
		sharded := NewShardedEngine(Config{}, 1)
		defer sharded.Close()
		at := time.Millisecond
		for _, ports := range fuzzClassifyPorts {
			spec.SrcPort, spec.DstPort = ports.src, ports.dst
			frames, _ := packet.BuildUDPFrames(spec, 0)
			for _, frame := range frames {
				serial.HandleFrame(at, frame)
				sharded.HandleFrame(at, frame)
				at += time.Millisecond
			}
		}
		sharded.Flush()
		classified := func(st DistillerStats) [6]int {
			return [6]int{st.SIP, st.RTP, st.RTCP, st.Acct, st.Raw, st.Mismatched}
		}
		if ss, gs := serial.DistillerStats(), sharded.DistillerStats(); classified(ss) != classified(gs) {
			t.Fatalf("serial and sharded classified differently:\nserial  %+v\nsharded %+v", ss, gs)
		}
	})
}

// FuzzEngineFrame drives the full pipeline with arbitrary frames.
func FuzzEngineFrame(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add(make([]byte, 120), uint32(1000))
	f.Fuzz(func(t *testing.T, frame []byte, atMs uint32) {
		eng := NewEngine(Config{})
		eng.HandleFrame(time.Duration(atMs)*time.Millisecond, frame)
	})
}

// fuzzFrameStream chops fuzz input into a stream of pseudo-frames. The
// first byte of each chunk picks the chunk length so the fuzzer can
// explore frame boundaries; timestamps advance monotonically.
func fuzzFrameStream(data []byte) [][]byte {
	var frames [][]byte
	for len(data) > 0 && len(frames) < 64 {
		n := 14 + int(data[0])%120
		if n > len(data) {
			n = len(data)
		}
		frames = append(frames, data[:n])
		data = data[n:]
	}
	return frames
}

// fuzzSeedFrames returns valid on-the-wire traffic to seed the corpus so
// the fuzzer starts from decodable SIP/RTP rather than pure noise.
func fuzzSeedFrames(t testing.TB) [][]byte {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	inv := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: "sip:bob@pbx",
		From:       sip.Address{URI: sip.URI{User: "alice", Host: "pbx"}}.WithTag("t1"),
		To:         sip.Address{URI: sip.URI{User: "bob", Host: "pbx"}},
		CallID:     "fuzzcall@pbx",
		CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:        sip.Via{Transport: "UDP", SentBy: "10.0.0.1"},
	})
	var out [][]byte
	for _, p := range []struct {
		sp, dp  uint16
		payload []byte
	}{
		{5060, 5060, inv.Marshal()},
		{10000, 10002, []byte{0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 'h', 'i'}},
		{10001, 10003, []byte{0x81, 0xc8, 0, 1, 0, 0, 0, 1}},
	} {
		frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: src, DstIP: dst, SrcPort: p.sp, DstPort: p.dp, IPID: 7, Payload: p.payload,
		}, 0)
		if err != nil {
			t.Fatalf("seed frame: %v", err)
		}
		out = append(out, frames...)
	}
	return out
}

// fuzzStreamSeed returns TCP-trunk seed traffic for the stream arm — a
// sniffed RTP tunnel chunk, a keep-alive-prefixed RTP packet only the
// ladder can classify once framed, and an INVITE split across segments —
// concatenated in the shape fuzzFrameStream cuts back into whole frames:
// every frame is at most 133 bytes and its first byte (destination MAC,
// which nothing checks) encodes its own length.
func fuzzStreamSeed(t testing.TB) []byte {
	inv := sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: "sip:bob@pbx",
		From:       sip.Address{URI: sip.URI{User: "alice", Host: "pbx"}}.WithTag("t1"),
		To:         sip.Address{URI: sip.URI{User: "bob", Host: "pbx"}},
		CallID:     "fuzzstream@pbx",
		CSeq:       sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:        sip.Via{Transport: "TCP", SentBy: "10.0.0.1"},
	})
	rtp100 := []byte{0x80, 0, 0, 100, 0, 0, 0x10, 0, 0, 0, 0, 9, 'm', 'e', 'd', 'i', 'a'}
	rtp101 := []byte{'\r', '\n', 0x80, 0, 0, 101, 0, 0, 0x10, 0xa0, 0, 0, 0, 9, 'm', 'e', 'd', 'i', 'a', '\n', '\n'}
	var out []byte
	seq := uint32(1)
	for i, payload := range [][]byte{rtp100, rtp101, inv.Marshal()} {
		frames, err := packet.BuildTCPFrames(packet.TCPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
			SrcPort: 5060, DstPort: 5060, Seq: seq, Flags: packet.TCPFlagACK,
			IPID: uint16(16 * (i + 1)), Payload: payload,
		}, 119)
		if err != nil {
			t.Fatalf("seed segment: %v", err)
		}
		for _, fr := range frames {
			fr[0] = byte(len(fr) - 14)
			out = append(out, fr...)
		}
		seq += uint32(len(payload))
	}
	return out
}

// TestFuzzStreamSeedShape checks the seed survives the chunker and
// reaches the stream arm: a seed that is cut mid-frame fuzzes nothing.
func TestFuzzStreamSeedShape(t *testing.T) {
	eng := NewEngine(Config{})
	at := time.Millisecond
	for _, fr := range fuzzFrameStream(fuzzStreamSeed(t)) {
		eng.HandleFrame(at, fr)
		at += 3 * time.Millisecond
	}
	st := eng.DistillerStats()
	if st.DecodeError != 0 || st.Streamed != st.Frames || st.StreamMsgs != 3 || st.Mismatched != 2 || st.SIP != 1 {
		t.Fatalf("seed did not reach the stream arm whole: %+v", st)
	}
}

// FuzzShardedDivergence routes fuzzed frame streams through both the
// serial Engine and a ShardedEngine and requires no panic and byte-equal
// alert/event/stat outcomes.
func FuzzShardedDivergence(f *testing.F) {
	var seed []byte
	for _, fr := range fuzzSeedFrames(f) {
		seed = append(seed, fr...)
	}
	f.Add(seed, uint8(3))
	f.Add(fuzzStreamSeed(f), uint8(1))
	f.Add([]byte{}, uint8(1))
	f.Add(make([]byte, 300), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, nshards uint8) {
		shards := 1 + int(nshards)%8
		frames := fuzzFrameStream(data)

		serial := NewEngine(Config{}, WithEventLog())
		sharded := NewShardedEngine(Config{}, shards, WithEventLog())
		defer sharded.Close()
		at := time.Millisecond
		for _, fr := range frames {
			serial.HandleFrame(at, fr)
			sharded.HandleFrame(at, fr)
			at += 3 * time.Millisecond
		}
		sharded.Flush()

		sEv, gEv := serial.Events(), sharded.Events()
		if len(sEv) != len(gEv) {
			t.Fatalf("event count diverged: serial %d, sharded %d", len(sEv), len(gEv))
		}
		for i := range sEv {
			a := fmt.Sprintf("%v|%v|%s|%s", sEv[i].At, sEv[i].Type, sEv[i].Session, sEv[i].Detail)
			b := fmt.Sprintf("%v|%v|%s|%s", gEv[i].At, gEv[i].Type, gEv[i].Session, gEv[i].Detail)
			if a != b {
				t.Fatalf("event %d diverged:\nserial  %s\nsharded %s", i, a, b)
			}
		}
		sAl, gAl := serial.Alerts(), sharded.Alerts()
		if len(sAl) != len(gAl) {
			t.Fatalf("alert count diverged: serial %d, sharded %d", len(sAl), len(gAl))
		}
		for i := range sAl {
			a := fmt.Sprintf("%v|%s|%s|%s|%d", sAl[i].At, sAl[i].Rule, sAl[i].Session, sAl[i].Detail, sAl[i].Count)
			b := fmt.Sprintf("%v|%s|%s|%s|%d", gAl[i].At, gAl[i].Rule, gAl[i].Session, gAl[i].Detail, gAl[i].Count)
			if a != b {
				t.Fatalf("alert %d diverged:\nserial  %s\nsharded %s", i, a, b)
			}
		}
		if ss, gs := serial.Stats(), sharded.Stats(); ss != gs {
			t.Fatalf("stats diverged: serial %+v, sharded %+v", ss, gs)
		}
		if err := serial.CheckMediaIndex(); err != nil {
			t.Fatalf("serial: %v", err)
		}
		if err := sharded.CheckMediaIndex(); err != nil {
			t.Fatalf("sharded: %v", err)
		}
	})
}

// FuzzIngestHandoff drives the parallel ingest front end with fuzzed
// frame streams at fuzzer-chosen (ingesters × shards) widths and holds
// it to the serial engine's exact output. The decode lanes race freely
// over arbitrary — often undecodable — bytes; the sequencer must still
// reproduce the synchronous router's alerts, events and stats.
func FuzzIngestHandoff(f *testing.F) {
	var seed []byte
	for _, fr := range fuzzSeedFrames(f) {
		seed = append(seed, fr...)
	}
	f.Add(seed, uint8(2), uint8(3))
	f.Add(fuzzStreamSeed(f), uint8(0), uint8(1))
	f.Add([]byte{}, uint8(4), uint8(1))
	f.Add(make([]byte, 300), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, ningest, nshards uint8) {
		ingesters := 2 + int(ningest)%3 // 2..4: width 1 is the synchronous router
		shards := 1 + int(nshards)%8
		frames := fuzzFrameStream(data)

		serial := NewEngine(Config{}, WithEventLog())
		parallel := NewShardedEngine(Config{IngestRouters: ingesters}, shards, WithEventLog())
		defer parallel.Close()
		at := time.Millisecond
		for _, fr := range frames {
			serial.HandleFrame(at, fr)
			parallel.HandleFrame(at, fr)
			at += 3 * time.Millisecond
		}
		parallel.Flush()

		sEv, gEv := serial.Events(), parallel.Events()
		if len(sEv) != len(gEv) {
			t.Fatalf("event count diverged: serial %d, parallel %d", len(sEv), len(gEv))
		}
		for i := range sEv {
			a := fmt.Sprintf("%v|%v|%s|%s", sEv[i].At, sEv[i].Type, sEv[i].Session, sEv[i].Detail)
			b := fmt.Sprintf("%v|%v|%s|%s", gEv[i].At, gEv[i].Type, gEv[i].Session, gEv[i].Detail)
			if a != b {
				t.Fatalf("event %d diverged:\nserial   %s\nparallel %s", i, a, b)
			}
		}
		sAl, gAl := serial.Alerts(), parallel.Alerts()
		if len(sAl) != len(gAl) {
			t.Fatalf("alert count diverged: serial %d, parallel %d", len(sAl), len(gAl))
		}
		for i := range sAl {
			a := fmt.Sprintf("%v|%s|%s|%s|%d", sAl[i].At, sAl[i].Rule, sAl[i].Session, sAl[i].Detail, sAl[i].Count)
			b := fmt.Sprintf("%v|%s|%s|%s|%d", gAl[i].At, gAl[i].Rule, gAl[i].Session, gAl[i].Detail, gAl[i].Count)
			if a != b {
				t.Fatalf("alert %d diverged:\nserial   %s\nparallel %s", i, a, b)
			}
		}
		if ss, gs := serial.Stats(), parallel.Stats(); ss != gs {
			t.Fatalf("stats diverged: serial %+v, parallel %+v", ss, gs)
		}
		for _, h := range parallel.IngestHealth() {
			if h.FramesFed != h.FramesSequenced {
				t.Fatalf("lane %d ledger broken after flush: fed %d, sequenced %d",
					h.Ingester, h.FramesFed, h.FramesSequenced)
			}
		}
		if err := parallel.CheckMediaIndex(); err != nil {
			t.Fatalf("parallel: %v", err)
		}
	})
}

// fuzzSnapshotSeeds builds real checkpoints (serial and 2-shard) from
// seed traffic so the fuzzer mutates valid formats, not just noise.
func fuzzSnapshotSeeds(t testing.TB) [][]byte {
	frames := fuzzSeedFrames(t)
	serial := NewEngine(Config{}, WithEventLog())
	at := time.Millisecond
	for _, fr := range frames {
		serial.HandleFrame(at, fr)
		at += 3 * time.Millisecond
	}
	ss, err := serial.Snapshot()
	if err != nil {
		t.Fatalf("serial seed snapshot: %v", err)
	}
	sharded := NewShardedEngine(Config{}, 2, WithEventLog())
	defer sharded.Close()
	at = time.Millisecond
	for _, fr := range frames {
		sharded.HandleFrame(at, fr)
		at += 3 * time.Millisecond
	}
	hs, err := sharded.Snapshot()
	if err != nil {
		t.Fatalf("sharded seed snapshot: %v", err)
	}
	return [][]byte{ss, hs}
}

// FuzzSnapshotDecode feeds arbitrary bytes — seeded with genuine
// checkpoints for the mutator to corrupt, truncate and bit-flip — to
// both engines' restore paths. The contract under attack: decoding must
// never panic, never allocate absurdly, and never partially restore — a
// rejected checkpoint leaves the engine exactly as fresh as it was — and
// the serial and sharded engines must agree on whether to accept it.
// Each input runs twice: as given, and with its trailing checksum
// restamped, so mutations reach the body decoders instead of dying at
// the checksum gate.
func FuzzSnapshotDecode(f *testing.F) {
	seeds := fuzzSnapshotSeeds(f)
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncation
		f.Add(s[:len(s)-8]) // checksum sheared off
		flip := append([]byte(nil), s...)
		flip[len(flip)/3] ^= 0x10 // body bit-flip
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("SCDV"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotDecode(t, data)
		if n := len(data) - 8; n >= 0 {
			restamped := binary.BigEndian.AppendUint64(append([]byte(nil), data[:n]...), fnv64(data[:n]))
			if !bytes.Equal(restamped, data) {
				checkSnapshotDecode(t, restamped)
			}
		}
	})
}

// checkSnapshotDecode restores data into a fresh serial and a fresh
// sharded engine and checks FuzzSnapshotDecode's contract.
func checkSnapshotDecode(t *testing.T, data []byte) {
	serial := NewEngine(Config{}, WithEventLog())
	serialErr := serial.RestoreSnapshot(data)
	if serialErr != nil {
		if st := serial.Stats(); st != (EngineStats{}) {
			t.Fatalf("rejected checkpoint left serial state behind: %+v", st)
		}
		if len(serial.Alerts()) != 0 || len(serial.Events()) != 0 {
			t.Fatal("rejected checkpoint left alerts or events behind")
		}
	} else {
		// Whatever restores must snapshot again deterministically: that
		// snapshot must restore into another fresh engine, which must
		// snapshot to the same bytes.
		again, err := serial.Snapshot()
		if err != nil {
			t.Fatalf("restored engine cannot snapshot: %v", err)
		}
		second := NewEngine(Config{}, WithEventLog())
		if err := second.RestoreSnapshot(again); err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		third, err := second.Snapshot()
		if err != nil {
			t.Fatalf("twice-restored engine cannot snapshot: %v", err)
		}
		if !bytes.Equal(third, again) {
			t.Fatalf("re-snapshot is not a fixed point: %d bytes, then %d different bytes", len(again), len(third))
		}
	}
	// The engine stays usable either way.
	serial.HandleFrame(time.Second, fuzzSeedFrames(t)[0])

	sharded := NewShardedEngine(Config{}, 2, WithEventLog())
	defer sharded.Close()
	shardedErr := sharded.RestoreSnapshot(data)
	if shardedErr != nil {
		if st := sharded.Stats(); st != (EngineStats{}) {
			t.Fatalf("rejected checkpoint left sharded state behind: %+v", st)
		}
		if len(sharded.Alerts()) != 0 {
			t.Fatal("rejected checkpoint left sharded alerts behind")
		}
	}
	if (serialErr == nil) != (shardedErr == nil) {
		t.Fatalf("serial and sharded restores disagree: serial %v, sharded %v", serialErr, shardedErr)
	}
	sharded.HandleFrame(time.Second, fuzzSeedFrames(t)[0])
	sharded.Flush()
}

// FuzzParseRules exercises the rule DSL parser.
func FuzzParseRules(f *testing.F) {
	f.Add("rule x critical {\nseq sip-bye\n}\n")
	f.Add(sampleRules)
	f.Add("}{")
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseRules(text)
		if err != nil {
			return
		}
		// Whatever parses must format and re-parse equivalently.
		again, err := ParseRules(FormatRules(rules))
		if err != nil {
			t.Fatalf("formatted rules do not re-parse: %v", err)
		}
		if len(again) != len(rules) {
			t.Fatalf("rule count changed: %d vs %d", len(rules), len(again))
		}
	})
}
