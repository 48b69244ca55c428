package main

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scidive/internal/capture"
	"scidive/internal/experiments"
	"scidive/internal/packet"
)

// writeVantageCaptures splits one scenario's traffic into per-vantage
// SCAP files the way physically separated taps would: the edge capture
// holds every frame touching the proxy, the gateway capture every frame
// touching a client. The control plane's own digest traffic rides the
// wire too — the port claim keeps it out of the replays.
func writeVantageCaptures(t *testing.T, name string, seed int64) (edge, gateway string) {
	t.Helper()
	proxy := netip.MustParseAddr("10.0.0.10")
	clientA := netip.MustParseAddr("10.0.0.1")
	clientB := netip.MustParseAddr("10.0.0.2")
	dir := t.TempDir()
	edge = filepath.Join(dir, "edge.scap")
	gateway = filepath.Join(dir, "gateway.scap")
	ef, err := os.Create(edge)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	gf, err := os.Create(gateway)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	ew, gw := capture.NewWriter(ef), capture.NewWriter(gf)
	if _, err := experiments.RunScenario(name, seed, func(at time.Duration, frame []byte) {
		eth, err := packet.UnmarshalEthernet(frame)
		if err != nil || eth.Type != packet.EtherTypeIPv4 {
			return
		}
		iph, _, err := packet.UnmarshalIPv4(eth.Payload)
		if err != nil {
			return
		}
		if iph.Src == proxy || iph.Dst == proxy {
			_ = ew.WriteFrame(at, frame)
		}
		if iph.Src == clientA || iph.Dst == clientA || iph.Src == clientB || iph.Dst == clientB {
			_ = gw.WriteFrame(at, frame)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return edge, gateway
}

// TestProbeAggregateCLI walks the offline cooperative pipeline end to
// end: two per-vantage captures are distilled into digest streams by
// -probe runs, and -aggregate merges them into the cross-point alert a
// single replay of either capture cannot raise.
func TestProbeAggregateCLI(t *testing.T) {
	edgeCap, gwCap := writeVantageCaptures(t, "coop-bye-split", 7)
	dir := t.TempDir()
	edgeDig := filepath.Join(dir, "edge.dig")
	gwDig := filepath.Join(dir, "gateway.dig")

	var buf strings.Builder
	if err := run([]string{"-in", edgeCap, "-shards", "1",
		"-probe", "edge", "-export", "sip-bye", "-digest-out", edgeDig}, &buf); err != nil {
		t.Fatalf("edge probe run: %v", err)
	}
	if err := run([]string{"-in", gwCap, "-shards", "1", "-rtp-activity-every", "500ms",
		"-probe", "gateway", "-export", "rtp-activity", "-digest-out", gwDig}, &buf); err != nil {
		t.Fatalf("gateway probe run: %v", err)
	}
	// Neither single-vantage replay saw the attack.
	if out := buf.String(); strings.Contains(out, "bye-attack") || strings.Contains(out, "teardown-split") {
		t.Fatalf("a single vantage replay detected the split attack alone:\n%s", out)
	}

	var agg strings.Builder
	if err := run([]string{"-aggregate", edgeDig, gwDig}, &agg); err != nil {
		t.Fatalf("aggregate run: %v", err)
	}
	out := agg.String()
	if !strings.Contains(out, "bye-teardown-split") {
		t.Errorf("aggregate missed the cross-point attack:\n%s", out)
	}
	if !strings.Contains(out, "probes=edge,gateway") {
		t.Errorf("aggregate did not account both probes:\n%s", out)
	}

	// Either digest stream alone must stay silent.
	for _, dig := range []string{edgeDig, gwDig} {
		var solo strings.Builder
		if err := run([]string{"-aggregate", dig}, &solo); err != nil {
			t.Fatalf("solo aggregate %s: %v", dig, err)
		}
		if s := solo.String(); strings.Contains(s, "teardown-split") {
			t.Errorf("solo digest stream %s raised the cross-point alert:\n%s", dig, s)
		}
	}
}

// TestProbeFlagValidation pins the mode's guard rails.
func TestProbeFlagValidation(t *testing.T) {
	var buf strings.Builder
	for _, args := range [][]string{
		{"-scenario", "bye", "-probe", "edge"},                                         // no -digest-out
		{"-scenario", "bye", "-digest-out", "x.dig"},                                   // no -probe
		{"-scenario", "bye", "-export", "sip-bye"},                                     // no -probe
		{"-scenario", "bye", "-probe", "edge", "-digest-out", "x.dig", "-shards", "2"}, // sharded
		{"-scenario", "bye", "-probe", "edge", "-digest-out", "x.dig", "-shards", "1", "-export", "bogus"},
		{"-aggregate", "-scenario", "bye"}, // mode mix
		{"-aggregate"},                     // no files
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
