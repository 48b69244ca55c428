package core_test

// go test -bench . grid for the parallel ingest front end, over the
// same mixed-call workload the benchreport sharded gate replays. The
// authoritative regression gate is `benchreport -exp sharded` (it
// verifies alert output and enforces the scaling-aware speedup floor);
// these benchmarks exist for quick -benchmem iteration on the handoff.

import (
	"fmt"
	"testing"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

func BenchmarkSerialEngine(b *testing.B) {
	recs := experiments.MixedCallWorkload(64, 8, 1)
	b.SetBytes(int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(core.Config{})
		for _, r := range recs {
			eng.HandleFrame(r.Time, r.Frame)
		}
	}
}

func BenchmarkParallelIngest(b *testing.B) {
	recs := experiments.MixedCallWorkload(64, 8, 1)
	for _, ing := range []int{1, 2, 4} {
		for _, shards := range []int{2, 8} {
			b.Run(fmt.Sprintf("ingest=%d/shards=%d", ing, shards), func(b *testing.B) {
				b.SetBytes(int64(len(recs)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng := core.NewShardedEngine(core.Config{IngestRouters: ing}, shards)
					for _, r := range recs {
						eng.HandleFrame(r.Time, r.Frame)
					}
					eng.Close()
				}
			})
		}
	}
}
