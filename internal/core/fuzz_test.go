package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"scidive/internal/packet"
)

// The distiller fronts untrusted network input; it must never panic and
// must account every frame in exactly one stats bucket.

func TestDistillerNeverPanicsOnRandomBytes(t *testing.T) {
	d := NewDistiller()
	var v FrameView
	f := func(frame []byte) bool {
		before := d.Stats()
		_ = d.DistillView(0, frame, &v)
		after := d.Stats()
		return after.Frames == before.Frames+1
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistillerNeverPanicsOnMutatedValidFrames(t *testing.T) {
	// Mutate every byte position of a valid SIP frame; the distiller must
	// survive all of them.
	frames := frameFor(t, 5060, 5060, sipBytes(t), 0)
	base := frames[0]
	d := NewDistiller()
	var v FrameView
	for i := range base {
		for _, x := range []byte{0x00, 0xff, 0x80} {
			mut := append([]byte(nil), base...)
			mut[i] ^= x
			_ = d.DistillView(time.Duration(i), mut, &v)
		}
	}
}

func TestDistillerStatsAccounting(t *testing.T) {
	d := NewDistiller()
	// One of each category.
	cases := [][]byte{
		frameFor(t, 5060, 5060, sipBytes(t), 0)[0],    // SIP
		frameFor(t, 40666, 40000, []byte{0x01}, 0)[0], // raw on RTP port
		frameFor(t, 1234, 80, []byte("GET /"), 0)[0],  // ignored
		{0x01, 0x02}, // decode error
	}
	var v FrameView
	for i, frame := range cases {
		d.DistillView(time.Duration(i), frame, &v)
	}
	st := d.Stats()
	if st.Frames != 4 {
		t.Errorf("Frames = %d", st.Frames)
	}
	if st.SIP != 1 || st.Raw != 1 || st.Ignored != 1 || st.DecodeError != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineNeverPanicsOnRandomFrames(t *testing.T) {
	eng := NewEngine(Config{})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(200)
		frame := make([]byte, n)
		rng.Read(frame)
		eng.HandleFrame(time.Duration(i)*time.Millisecond, frame)
	}
	// Random bytes rarely form valid Ethernet+IPv4+UDP with a good
	// checksum; the engine must have survived regardless.
	if eng.Stats().Frames != 2000 {
		t.Errorf("Frames = %d", eng.Stats().Frames)
	}
}

func TestEngineSurvivesRandomUDPOnMonitoredPorts(t *testing.T) {
	// Harder fuzz: well-formed Ethernet/IP/UDP carrying random payloads on
	// the monitored ports (SIP, RTP, RTCP, accounting).
	eng := NewEngine(Config{})
	rng := rand.New(rand.NewSource(10))
	ports := []uint16{5060, 40000, 40001, 7009}
	for i := 0; i < 2000; i++ {
		payload := make([]byte, rng.Intn(300))
		rng.Read(payload)
		frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: dSrcIP, DstIP: dDstIP,
			SrcPort: uint16(1024 + rng.Intn(50000)), DstPort: ports[rng.Intn(len(ports))],
			IPID: uint16(i), Payload: payload,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng.HandleFrame(time.Duration(i)*time.Millisecond, frames[0])
	}
	if eng.Stats().Footprints == 0 {
		t.Error("no footprints from monitored-port fuzz")
	}
}
