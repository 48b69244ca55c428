// Command bench is the repository's benchmark: four seeded VoIP
// workloads replayed through the serial and the sharded IDS, end-to-end
// metrics with tracing off, and a per-layer cost ledger from a separate
// traced run. See README.md.
//
//	bash bench/run.sh --workload callmix-wide --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1 -out bench.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "measure one workload and print its result as one JSON line (default: all four, as a report)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same captures")
	seconds := flag.Float64("seconds", 20, "how long one workload's measurement runs, about")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	out := flag.String("out", "", "without -workload: write the full report here, and trace-<workload>.json beside it")
	runs := flag.Int("runs", 1, "with -out: how many end-to-end runs of each workload the report pools")
	compare := flag.Bool("compare", false, "compare two reports given as arguments: A.json B.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace)
	default:
		err = runReport(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures one workload and prints its result as the last line of
// standard output. Any failed operation makes the exit code non-zero.
func runOne(name string, seed int64, seconds float64, trace int) error {
	wg, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var v verdict
	var metrics map[string]metricValue
	switch trace {
	case 0:
		_, metrics = measureEndToEnd(wg, seed, fullSizes, seconds, &v)
	case 1:
		w := setup(wg, seed, fullSizes)
		metrics, _ = measureLayers(w, &v)
	default:
		return fmt.Errorf("-trace wants 0 or 1, got %d", trace)
	}
	for _, note := range v.notes {
		fmt.Fprintln(os.Stderr, "bench:", note)
	}
	for name, m := range metrics {
		m.Samples = nil
		metrics[name] = m
	}
	line, err := json.Marshal(result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if v.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, v.failed, v.attempted)
	}
	return nil
}

// hostShape records where the numbers were taken.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostShape {
	h := hostShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// workloadReport is one workload's part of the report file.
type workloadReport struct {
	Why       string                 `json:"why"`
	Frames    int                    `json:"frames"`
	Hash      string                 `json:"capture_hash"`
	Expected  int                    `json:"expected_alerts"`
	PacedRate int                    `json:"paced_rate_fps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// report is the file -out writes and -compare reads.
type report struct {
	Host      hostShape                  `json:"host"`
	Seed      int64                      `json:"seed"`
	Shards    int                        `json:"sharded_shards"`
	Ingest    int                        `json:"sharded_ingest_routers"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runReport measures all four workloads, end to end and traced, prints
// every metric by name with its unit, and writes the report.
func runReport(seed int64, seconds float64, runs int, out string) error {
	rep := report{Host: host(), Seed: seed, Shards: shardedShards, Ingest: 1, Workloads: map[string]*workloadReport{}}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, %s, commit %s; seed %d; sharded = 1 router x %d shards\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.CPU, rep.Host.Go, rep.Host.Commit, seed, shardedShards)
	failed := 0
	for _, wg := range workloadGens {
		var v verdict
		var w *workload
		wr := &workloadReport{Why: wg.why}
		for run := 0; run < runs; run++ {
			var m map[string]metricValue
			w, m = measureEndToEnd(wg, seed, fullSizes, seconds, &v)
			if wr.EndToEnd == nil {
				wr.EndToEnd = m
				continue
			}
			for name, mv := range m {
				pooled := wr.EndToEnd[name]
				pooled.Samples = append(pooled.Samples, mv.Samples...)
				wr.EndToEnd[name] = pooled
			}
		}
		var tr *tracer
		wr.PerLayer, tr = measureLayers(w, &v)
		wr.Frames, wr.Hash, wr.Expected, wr.PacedRate = len(w.recs), w.hash(), len(w.expected), w.pacedRate
		wr.Attempted, wr.Failed, wr.Notes = v.attempted, v.failed, v.notes
		rep.Workloads[wg.name] = wr
		failed += v.failed

		fmt.Printf("\n%s: %d frames, capture %s, %d alerts due, paced at %d frames/s; %d of %d operations failed\n",
			wg.name, wr.Frames, wr.Hash, wr.Expected, wr.PacedRate, v.failed, v.attempted)
		for _, note := range v.notes {
			fmt.Println("  FAILED:", note)
		}
		for _, d := range endToEndMetrics {
			m := wr.EndToEnd[d.Name]
			q1, q3 := quartiles(m.Samples)
			fmt.Printf("  %-28s %14.4f %-5s  median %.4f  quartiles %.4f..%.4f  n=%d\n", d.Name, m.Value, m.Unit, median(m.Samples), q1, q3, len(m.Samples))
		}
		for _, d := range perLayerMetrics {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
		if out != "" {
			if err := tr.write(filepath.Join(filepath.Dir(out), "trace-"+wg.name+".json"), wg.name); err != nil {
				return err
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
