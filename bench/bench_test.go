package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestCapturesFollowTheSeed(t *testing.T) {
	for _, wg := range workloadGens {
		a, b, c := wg.gen(1, testSizes), wg.gen(1, testSizes), wg.gen(2, testSizes)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 1 gave captures %s and %s", wg.name, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same capture %s", wg.name, a.hash())
		}
		if len(a.expected) == 0 || a.peakLive == 0 || a.peakIndex <= 0 || a.peakIndex > len(a.recs) || a.pacedFrom >= len(a.recs) {
			t.Errorf("%s: %d alerts due, peak %d live at frame %d, paced from %d of %d", wg.name, len(a.expected), a.peakLive, a.peakIndex, a.pacedFrom, len(a.recs))
		}
	}
}

// Both engines must raise exactly the alerts each generator promises, in
// the same order, with their ledgers balanced.
func TestExpectationsHold(t *testing.T) {
	for _, wg := range workloadGens {
		for seed := int64(1); seed <= 2; seed++ {
			w := wg.gen(seed, testSizes)
			w.name = wg.name
			var v verdict
			_, serial := replayFPS(w, newSerial(), &v)
			_, sharded := replayFPS(w, newSharded(1, shardedShards), &v)
			v.sameAlerts(w, serial, sharded)
			if v.failed != 0 || v.attempted != 2*(len(w.expected)+w.benign) {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", wg.name, seed, v.failed, v.attempted, v.notes)
			}
		}
	}
}

// Every workload reports every declared metric, and no end-to-end metric
// reads zero.
func TestEveryMetricIsReported(t *testing.T) {
	for _, wg := range workloadGens {
		var v verdict
		w, endToEnd := measureEndToEnd(wg, 1, testSizes, 0.1, &v)
		perLayer, tr := measureLayers(w, &v)
		if v.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wg.name, v.failed, v.attempted, v.notes)
		}
		for _, d := range endToEndMetrics {
			m, ok := endToEnd[d.Name]
			if !ok || m.Unit != d.Unit || m.Value <= 0 || math.IsInf(m.Value, 0) || len(m.Samples) == 0 {
				t.Errorf("%s: end-to-end metric %s reported as %+v (present %v)", wg.name, d.Name, m, ok)
			}
		}
		for _, d := range perLayerMetrics {
			if m, ok := perLayer[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s reported as %+v (present %v)", wg.name, d.Name, m, ok)
			}
		}
		if len(endToEnd) != len(endToEndMetrics) || len(perLayer) != len(perLayerMetrics) {
			t.Errorf("%s: reported %d end-to-end and %d per-layer metrics, declared %d and %d", wg.name, len(endToEnd), len(perLayer), len(endToEndMetrics), len(perLayerMetrics))
		}
		// The stage split is only worth printing where it was measured.
		for _, name := range []string{"distill.ns_per_frame", "generator.ns_per_view", "engine.ns_per_frame.sip", "rules.feed_ns_per_event", "sharded.router_ns_per_frame"} {
			if (w.udpOnly || !strings.HasPrefix(name, "distill.") && !strings.HasPrefix(name, "generator.")) && perLayer[name].Value <= 0 {
				t.Errorf("%s: %s = %v", wg.name, name, perLayer[name].Value)
			}
		}
		if sum := tr.summary(); len(sum) == 0 || sum[0].Name != "replay" || sum[0].SelfNS < 0 || sum[0].SelfNS > sum[0].TotalNS {
			t.Errorf("%s: span summary %+v", wg.name, sum)
		}
		path := t.TempDir() + "/trace.json"
		if err := tr.write(path, wg.name); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(path); err != nil || !json.Valid(data) {
			t.Errorf("%s: trace file: %v, valid JSON %v", wg.name, err, json.Valid(data))
		}
	}
}

// BENCHMARK.json at the root of the repository and the declarations in
// this package must say the same thing, inside the driver's limits.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("size %d, run_seconds %d, paths %v", len(data), file.RunSeconds, file.Paths)
	}
	if strings.Join(file.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v", file.Command)
	}
	if total := (4 + 22*len(file.Workloads)) * (file.RunSeconds + 12); total > 3420 {
		t.Errorf("%d workloads of %d s (plus set-up) make %d s of driver runs, over the 3420 s cap", len(file.Workloads), file.RunSeconds, total)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloadGens) || len(file.Workloads) < 2 || len(file.Workloads) > 8 {
		t.Fatalf("%d workloads declared, %d generated", len(file.Workloads), len(workloadGens))
	}
	for i, w := range file.Workloads {
		unique(w.Name)
		if w.Name != workloadGens[i].name || w.Why != workloadGens[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q %q, generator says %q %q", i, w.Name, w.Why, workloadGens[i].name, workloadGens[i].why)
		}
	}
	check := func(kind string, got []decl, want []metricDecl, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d declared in BENCHMARK.json, %d in metrics.go, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || !unit.MatchString(g.Unit) || g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %d: %+v, metrics.go says %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, metrics.go says %v", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics, 16, true)
	check("per_layer", file.PerLayer, perLayerMetrics, 128, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	if q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	fps := metricDecl{"serial_fps", "1/s", "higher", 0.10}
	lag := metricDecl{"serial_alert_lag_p50_us", "us", "lower", 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b []float64
		want string
	}{
		{fps, []float64{100, 101, 99}, []float64{98, 100, 99}, "ok"},
		{fps, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{fps, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{fps, []float64{100, 140, 70, 90}, []float64{95, 130, 60, 85}, "unresolved"},
		{fps, []float64{100, 140, 70, 90}, []float64{200, 240, 170, 190}, "ok"},
		{fps, []float64{100, 140, 70, 90}, []float64{30, 40, 35, 50}, "worse"},
		{lag, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "worse"},
		{lag, []float64{10}, []float64{10.5}, "ok"},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
	mk := func(fps float64) *report {
		r := &report{Workloads: map[string]*workloadReport{}}
		for _, wg := range workloadGens {
			m := map[string]metricValue{}
			for _, d := range endToEndMetrics {
				m[d.Name] = metricValue{Value: 5, Unit: d.Unit, Samples: []float64{5, 5, 5}}
			}
			m["serial_fps"] = metricValue{Value: fps, Unit: "1/s", Samples: []float64{fps, fps, fps}}
			r.Workloads[wg.name] = &workloadReport{EndToEnd: m}
		}
		return r
	}
	var out bytes.Buffer
	if worse := compareReports(&out, mk(100), mk(100)); worse != 0 {
		t.Errorf("identical reports: %d worse\n%s", worse, out.String())
	}
	if worse := compareReports(&out, mk(100), mk(60)); worse != len(workloadGens) {
		t.Errorf("40%% slower serial replay: %d worse, want %d", worse, len(workloadGens))
	}
}
