package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"scidive/internal/capture"
	"scidive/internal/core"
	"scidive/internal/experiments"
)

// TestShardedReplayBorrowsFrames holds ReplayCapture to the FrameFunc
// aliasing contract now that it no longer copies every frame: each
// scenario's capture — UDP, TCP trunks, fragment floods and the evasion
// set — is replayed from a feeder that overwrites its one buffer with
// 0xA5 as soon as the engine's feed returns, through the synchronous
// router (which only borrows the frame) and through ingest lanes (which
// get a copy). Alerts, events, both stats ledgers and the checkpoint must
// equal a run fed frames the engine may keep.
func TestShardedReplayBorrowsFrames(t *testing.T) {
	for _, name := range experiments.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			var scap bytes.Buffer
			w := capture.NewWriter(&scap)
			for _, r := range frames {
				if err := w.WriteFrame(r.at, r.frame); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for _, ing := range []int{0, 2} {
				for _, shards := range diffShardCounts {
					label := fmt.Sprintf("shards=%d ingesters=%d", shards, ing)
					cfg := core.Config{IngestRouters: ing}
					owned := core.NewShardedEngine(cfg, shards, core.WithEventLog())
					for _, r := range frames {
						owned.HandleFrame(r.at, r.frame)
					}
					borrowed := core.NewShardedEngine(cfg, shards, core.WithEventLog())
					if err := borrowed.ReplayPoisoned(capture.NewReader(bytes.NewReader(scap.Bytes()))); err != nil {
						t.Fatalf("%s: replay: %v", label, err)
					}
					wantAlerts, gotAlerts := alertKeys(owned.Alerts()), alertKeys(borrowed.Alerts())
					if !reflect.DeepEqual(gotAlerts, wantAlerts) {
						t.Errorf("%s: alerts\n got: %v\nwant: %v", label, gotAlerts, wantAlerts)
					}
					wantEvents, gotEvents := owned.Events(), borrowed.Events()
					if len(gotEvents) != len(wantEvents) {
						t.Errorf("%s: %d events, owned-frame run has %d", label, len(gotEvents), len(wantEvents))
					} else {
						for i := range wantEvents {
							if gotEvents[i] != wantEvents[i] {
								t.Errorf("%s: event %d = %+v, want %+v", label, i, gotEvents[i], wantEvents[i])
								break
							}
						}
					}
					if got, want := borrowed.Stats(), owned.Stats(); got != want {
						t.Errorf("%s: stats %+v, owned-frame run %+v", label, got, want)
					}
					if got, want := borrowed.DistillerStats(), owned.DistillerStats(); got != want {
						t.Errorf("%s: distiller stats %+v, owned-frame run %+v", label, got, want)
					}
					// Fragments still buffered at the end ride the checkpoint:
					// the router must have copied those too.
					wantSnap, err1 := owned.Snapshot()
					gotSnap, err2 := borrowed.Snapshot()
					if err1 != nil || err2 != nil || !bytes.Equal(gotSnap, wantSnap) {
						t.Errorf("%s: checkpoints differ (errors: %v, %v)", label, err1, err2)
					}
					owned.Close()
					borrowed.Close()
				}
			}
		})
	}
}
