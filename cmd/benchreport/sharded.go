package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"scidive/internal/capture"
	"scidive/internal/core"
	"scidive/internal/experiments"
)

// Sharded-engine overhead check: replay one mixed-call workload through
// the serial engine and through ShardedEngine over a grid of ingest
// widths (1, 2, 4 parallel ingest routers) × worker shard counts (1, 2,
// 8), verify every run raises exactly the expected alerts, and fail
// (non-zero exit) if the best 8-shard configuration falls below the
// overhead floor. BENCH_sharded.json in the repo root records the
// numbers; regenerate with `benchreport -exp sharded -json
// BENCH_sharded.json` after hot-path changes.

const (
	shardedCalls  = 256
	shardedRounds = 24
	// shardedOverheadFloor is the regression gate, the same on every
	// host: the best 8-shard configuration must run at least this
	// fraction of the serial engine's frames/sec. The serial engine
	// attributes media through the same reverse index as the router, so
	// the ratio now prices the router/shard handoff and the second decode
	// each shard does (measured 0.8x-1.8x on 2 CPUs), not a missing index
	// in the baseline; the floor only catches the handoff getting
	// markedly dearer. A >1x gate that scales with CPUs comes back when
	// shards stop re-decoding what the router parsed (ROADMAP item 2).
	shardedOverheadFloor = 0.5
	// shardedReps: each configuration is timed this many times and the
	// best run is kept, shedding scheduler noise.
	shardedReps = 3
)

var (
	shardedIngestWidths = []int{1, 2, 4}
	shardedShardCounts  = []int{1, 2, 8}
)

// ShardedReport is the JSON shape of BENCH_sharded.json. ShardedFPS is
// keyed "IxS" — I parallel ingest routers feeding S worker shards.
// Speedup8 is the best 8-shard cell over the serial run timed right
// before it (SerialFPS is the run at the head of the grid); it is what
// RequiredSpeedup, the overhead floor, gates.
type ShardedReport struct {
	Calls           int                `json:"calls"`
	Rounds          int                `json:"rtp_rounds"`
	Frames          int                `json:"frames"`
	Alerts          int                `json:"alerts_per_run"`
	CPUs            int                `json:"cpus"`
	SerialFPS       float64            `json:"serial_fps"`
	ShardedFPS      map[string]float64 `json:"sharded_fps"`
	Speedup8        float64            `json:"speedup_8_shards"`
	RequiredSpeedup float64            `json:"required_speedup"`
}

func checkShardedAlerts(alerts []core.Alert) error {
	if len(alerts) != shardedCalls {
		return fmt.Errorf("got %d alerts, want %d", len(alerts), shardedCalls)
	}
	for _, a := range alerts {
		if a.Rule != core.RuleByeAttack {
			return fmt.Errorf("false alarm: %v", a)
		}
	}
	return nil
}

// bestFPS times fn over the workload shardedReps times and returns the
// highest frames-per-second observed. fn must return the run's alerts.
func bestFPS(recs []capture.Record, fn func() ([]core.Alert, error)) (float64, error) {
	var best float64
	for r := 0; r < shardedReps; r++ {
		start := time.Now()
		alerts, err := fn()
		elapsed := time.Since(start)
		if err != nil {
			return 0, err
		}
		if err := checkShardedAlerts(alerts); err != nil {
			return 0, err
		}
		if fps := float64(len(recs)) / elapsed.Seconds(); fps > best {
			best = fps
		}
	}
	return best, nil
}

func gridKey(ingest, shards int) string { return fmt.Sprintf("%dx%d", ingest, shards) }

func measureSharded() (ShardedReport, error) {
	recs := experiments.MixedCallWorkload(shardedCalls, shardedRounds, 1)
	rep := ShardedReport{
		Calls: shardedCalls, Rounds: shardedRounds, Frames: len(recs),
		Alerts: shardedCalls, CPUs: runtime.NumCPU(), ShardedFPS: map[string]float64{},
	}
	serial := func() ([]core.Alert, error) {
		eng := core.NewEngine(core.Config{})
		for _, r := range recs {
			eng.HandleFrame(r.Time, r.Frame)
		}
		return eng.Alerts(), nil
	}
	var err error
	if rep.SerialFPS, err = bestFPS(recs, serial); err != nil {
		return rep, fmt.Errorf("serial: %w", err)
	}
	for _, ingest := range shardedIngestWidths {
		for _, shards := range shardedShardCounts {
			// The gated cells are compared with a serial run timed right
			// before them: the grid takes seconds, over which a shared
			// host's speed drifts by more than the floor's margin.
			near := rep.SerialFPS
			if shards == 8 {
				if near, err = bestFPS(recs, serial); err != nil {
					return rep, fmt.Errorf("serial: %w", err)
				}
			}
			fps, err := bestFPS(recs, func() ([]core.Alert, error) {
				eng := core.NewShardedEngine(core.Config{IngestRouters: ingest}, shards)
				for _, r := range recs {
					eng.HandleFrame(r.Time, r.Frame)
				}
				eng.Close()
				return eng.Alerts(), nil
			})
			if err != nil {
				return rep, fmt.Errorf("ingest-%d-sharded-%d: %w", ingest, shards, err)
			}
			rep.ShardedFPS[gridKey(ingest, shards)] = fps
			if shards == 8 && fps/near > rep.Speedup8 {
				rep.Speedup8 = fps / near
			}
		}
	}
	rep.RequiredSpeedup = shardedOverheadFloor
	return rep, nil
}

func runSharded(out io.Writer, jsonPath string) error {
	rep, err := measureSharded()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Sharded engine vs serial (%d concurrent calls, %d frames, %d bye-attacks expected, %d CPUs):\n",
		rep.Calls, rep.Frames, rep.Alerts, rep.CPUs)
	fmt.Fprintf(out, "  serial               %10.0f frames/sec\n", rep.SerialFPS)
	for _, ingest := range shardedIngestWidths {
		for _, shards := range shardedShardCounts {
			key := gridKey(ingest, shards)
			fmt.Fprintf(out, "  ingest=%d shards=%d    %10.0f frames/sec (%.2fx)\n",
				ingest, shards, rep.ShardedFPS[key], rep.ShardedFPS[key]/rep.SerialFPS)
		}
	}
	fmt.Fprintf(out, "  best 8-shard cell vs the serial run timed beside it: %.2fx (floor %.2fx)\n", rep.Speedup8, rep.RequiredSpeedup)
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
	if rep.Speedup8 < rep.RequiredSpeedup {
		return fmt.Errorf("sharded overhead regression: best 8-shard configuration ran %.2fx serial, floor is %.2fx (%d CPUs)",
			rep.Speedup8, rep.RequiredSpeedup, rep.CPUs)
	}
	return nil
}
