package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's own direction; negative means better.
func worseBy(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// separated reports whether every sample of b is worse (or, with better
// set, better) than every sample of a.
func separated(d metricDecl, a, b []float64, better bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			w := worseBy(d, x, y)
			if better && w >= 0 || !better && w <= 0 {
				return false
			}
		}
	}
	return true
}

// judge applies the regression rule to one workload x metric pairing:
// worse if B's median is worse than A's by more than the bound; but where
// either side's own quartile spread is wider than the bound the pairing
// is unresolved, unless the samples do not overlap at all.
func judge(d metricDecl, a, b []float64) (verdict string, delta, spread float64) {
	medA, medB := median(a), median(b)
	delta = worseBy(d, medA, medB)
	for _, side := range [][]float64{a, b} {
		if q1, q3 := quartiles(side); median(side) != 0 {
			if s := (q3 - q1) / median(side); s > spread {
				spread = s
			}
		}
	}
	switch {
	case delta > d.Bound && separated(d, a, b, false):
		return "worse", delta, spread
	case spread > d.Bound && separated(d, a, b, true):
		return "ok", delta, spread
	case spread > d.Bound:
		return "unresolved", delta, spread
	case delta > d.Bound:
		return "worse", delta, spread
	}
	return "ok", delta, spread
}

// runCompare prints, per workload and end-to-end metric, both reports'
// medians and quartiles, how much worse B reads and the bound, and fails
// if any pairing is worse. A is the parent, B the change.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two report files: A.json B.json")
	}
	a, err := loadReport(args[0])
	if err != nil {
		return err
	}
	b, err := loadReport(args[1])
	if err != nil {
		return err
	}
	worse := compareReports(os.Stdout, a, b)
	if worse > 0 {
		return fmt.Errorf("%d workload x metric pairings are worse than their bound allows", worse)
	}
	return nil
}

func compareReports(out io.Writer, a, b *report) (worse int) {
	fmt.Fprintf(out, "A: seed %d on %d cpus (%s)   B: seed %d on %d cpus (%s)\n", a.Seed, a.Host.NProc, a.Host.Commit, b.Seed, b.Host.NProc, b.Host.Commit)
	fmt.Fprintf(out, "%-17s %-25s %14s %27s %14s %27s %8s %6s  %s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse by", "bound", "verdict")
	for _, wg := range workloadGens {
		wa, wb := a.Workloads[wg.name], b.Workloads[wg.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-17s missing from a report\n", wg.name)
			worse++
			continue
		}
		for _, d := range endToEndMetrics {
			sa, sb := wa.EndToEnd[d.Name].Samples, wb.EndToEnd[d.Name].Samples
			verdict, delta, _ := judge(d, sa, sb)
			if verdict == "worse" {
				worse++
			}
			q1a, q3a := quartiles(sa)
			q1b, q3b := quartiles(sb)
			fmt.Fprintf(out, "%-17s %-25s %14.3f %13.3f..%-12.3f %14.3f %13.3f..%-12.3f %+7.1f%% %5.0f%%  %s\n",
				wg.name, d.Name, median(sa), q1a, q3a, median(sb), q1b, q3b, 100*delta, 100*d.Bound, verdict)
		}
	}
	return worse
}
