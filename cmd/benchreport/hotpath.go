package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"testing"
	"time"

	"scidive/internal/core"
	"scidive/internal/packet"
	"scidive/internal/rtp"
)

// Hot-path allocation check: measure the steady-state per-frame cost of
// the distiller and the full serial pipeline on a media frame, print a
// before/after table against the recorded pre-refactor baselines, and
// fail (non-zero exit) when the hot path regresses: time above 2x its
// baseline, bytes above half the baseline (the refactor's contracted
// >=2x reduction), or any allocation where the pooled pipeline promises
// zero. BENCH_hotpath.json in the repo root records the numbers from the
// first run of this check.

// hotpathBaselines are the pre-refactor numbers (interface-typed
// footprints, per-frame boxing, copy-shift trail eviction), recorded
// before the zero-allocation rework for the before/after columns and
// the regression gates.
var hotpathProbes = []hotpathProbe{
	{
		Name:   "distill_rtp",
		Desc:   "Distiller only: frame -> FrameView",
		Before: HotpathMetrics{NsPerOp: 297.2, BytesPerOp: 320, AllocsPerOp: 2},
		// The view path decodes in place: no footprint box, no payload
		// retention.
		MaxAllocs: 0,
		run: func(b *testing.B) {
			frame := hotpathRTPFrame()
			d := core.NewDistiller()
			var v core.FrameView
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !d.DistillView(time.Duration(i)*20*time.Millisecond, frame, &v) {
					b.Fatal("no footprint")
				}
			}
		},
	},
	{
		Name:   "engine_rtp",
		Desc:   "Full serial pipeline per media frame",
		Before: HotpathMetrics{NsPerOp: 4870, BytesPerOp: 410, AllocsPerOp: 10},
		// Pooled decode, counting trails and caller-owned event scratch:
		// a steady-state media frame must not touch the heap.
		MaxAllocs: 0,
		run: func(b *testing.B) {
			frame := hotpathRTPFrame()
			eng := core.NewEngine(core.Config{})
			// Warm past the 4096-footprint trail bound, as in any
			// long-lived media stream.
			for i := 0; i < 5000; i++ {
				eng.HandleFrame(time.Duration(i)*20*time.Millisecond, frame)
			}
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.HandleFrame(time.Duration(5000+i)*20*time.Millisecond, frame)
			}
		},
	},
}

type hotpathProbe struct {
	Name      string
	Desc      string
	Before    HotpathMetrics
	MaxAllocs float64
	run       func(b *testing.B)
}

// HotpathMetrics is one measurement in BENCH_hotpath.json.
type HotpathMetrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// HotpathRow pairs the recorded baseline with the fresh measurement.
type HotpathRow struct {
	Probe  string         `json:"probe"`
	Desc   string         `json:"desc"`
	Before HotpathMetrics `json:"before"`
	After  HotpathMetrics `json:"after"`
}

// HotpathReport is the JSON shape of BENCH_hotpath.json.
type HotpathReport struct {
	Rows []HotpathRow `json:"rows"`
}

// hotpathRTPFrame builds the representative media frame both probes
// replay.
func hotpathRTPFrame() []byte {
	pkt := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: 100, Timestamp: 16000, SSRC: 7},
		Payload: make([]byte, 160),
	}
	buf, err := pkt.Marshal()
	if err != nil {
		panic(err)
	}
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP:   netip.MustParseAddr("10.0.0.1"),
		DstIP:   netip.MustParseAddr("10.0.0.2"),
		SrcPort: 40000, DstPort: 40000, IPID: 1, Payload: buf,
	}, 0)
	if err != nil {
		panic(err)
	}
	return frames[0]
}

func measureHotpath() HotpathReport {
	var rep HotpathReport
	for _, p := range hotpathProbes {
		res := testing.Benchmark(p.run)
		rep.Rows = append(rep.Rows, HotpathRow{
			Probe:  p.Name,
			Desc:   p.Desc,
			Before: p.Before,
			After: HotpathMetrics{
				NsPerOp:     float64(res.NsPerOp()),
				BytesPerOp:  float64(res.AllocedBytesPerOp()),
				AllocsPerOp: float64(res.AllocsPerOp()),
			},
		})
	}
	return rep
}

func runHotpath(out io.Writer, jsonPath string) error {
	rep := measureHotpath()
	fmt.Fprintf(out, "Hot-path memory profile (steady-state media frame, before -> after):\n")
	for _, row := range rep.Rows {
		fmt.Fprintf(out, "  %-12s %s\n", row.Probe, row.Desc)
		fmt.Fprintf(out, "    %8.0f -> %-6.0f ns/op   %6.0f -> %-4.0f B/op   %4.0f -> %-3.0f allocs/op\n",
			row.Before.NsPerOp, row.After.NsPerOp,
			row.Before.BytesPerOp, row.After.BytesPerOp,
			row.Before.AllocsPerOp, row.After.AllocsPerOp)
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n", jsonPath)
	}
	// Regression gates. Time is machine-dependent, so it only guards
	// against gross regressions (the pre-refactor pipeline was 15x
	// slower per engine frame; 2x headroom absorbs machine variance
	// without letting the O(n) trail shift back in). Bytes and
	// allocations are deterministic and held tight.
	for i, row := range rep.Rows {
		switch {
		case row.After.NsPerOp > 2*row.Before.NsPerOp:
			return fmt.Errorf("hotpath %s: %.0f ns/op exceeds 2x the %.0f ns/op baseline",
				row.Probe, row.After.NsPerOp, row.Before.NsPerOp)
		case row.After.BytesPerOp > row.Before.BytesPerOp/2:
			return fmt.Errorf("hotpath %s: %.0f B/op lost the refactor's >=2x reduction from %.0f B/op",
				row.Probe, row.After.BytesPerOp, row.Before.BytesPerOp)
		case row.After.AllocsPerOp > hotpathProbes[i].MaxAllocs:
			return fmt.Errorf("hotpath %s: %.0f allocs/op, want <= %.0f",
				row.Probe, row.After.AllocsPerOp, hotpathProbes[i].MaxAllocs)
		}
	}
	return nil
}
