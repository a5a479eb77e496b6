package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs: which way each
// end-to-end metric is better and by how much it may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict classifies b against a for one metric on one workload. worsening
// is how much worse b's median is than a's, as a share of a's; spread is the
// wider of the two sets' interquartile ranges, as a share of its median.
// When the spread is wider than the bound the medians cannot settle it:
// only b beating a on every single run still counts.
func verdict(worsening, spread, bound float64, everyRunBetter bool) string {
	switch {
	case spread > bound && everyRunBetter:
		return "better"
	case spread > bound:
		return "unresolved"
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "same"
}

func iqrShare(s Summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// everyBetter reports whether every run of b reads better than every run of a.
func everyBetter(a, b []Result, metric string, lowerIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sign := 1.0 // after the flip, lower is always better
	if !lowerIsBetter {
		sign = -1
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, r := range b {
		worstB = math.Max(worstB, sign*r.Metrics[metric].Value)
	}
	for _, r := range a {
		bestA = math.Min(bestA, sign*r.Metrics[metric].Value)
	}
	return worstB < bestA
}

func readSet(path string) (SetFile, error) {
	var f SetFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints b against a, one row per workload and end-to-end
// metric, and returns the exit code: 1 when any row is worse or b failed a
// larger share of its operations, 2 when the inputs cannot be read.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	var spec benchSpec
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		err = fmt.Errorf("reading the spec: %w", err)
	}
	a, errA := readSet(pathA)
	b, errB := readSet(pathB)
	if err := errors.Join(err, errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bByName := make(map[string]WorkloadSet, len(b.Workloads))
	for _, ws := range b.Workloads {
		bByName[ws.Name] = ws
	}
	fmt.Fprintf(w, "a: %s  %s GOMAXPROCS=%d seed %d, %d run(s) x %d s\n", pathA, a.Env.GoVersion, a.Env.GOMAXPROCS, a.Seed, a.Runs, a.Seconds)
	fmt.Fprintf(w, "b: %s  %s GOMAXPROCS=%d seed %d, %d run(s) x %d s\n", pathB, b.Env.GoVersion, b.Env.GOMAXPROCS, b.Seed, b.Runs, b.Seconds)
	if a.Seconds != b.Seconds {
		fmt.Fprintln(w, "warning: the two sets measured for different lengths; rows are not comparable")
	}
	code := 0
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: missing from b\n", wa.Name)
			code = 1
			continue
		}
		fmt.Fprintf(w, "\n%s  failed a %d/%d  b %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if failedShare(wb) > failedShare(wa) {
			fmt.Fprintln(w, "  b fails a larger share of its operations")
			code = 1
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			lower := m.Better == "lower"
			worsening := (sb.Median - sa.Median) / sa.Median
			if !lower {
				worsening = -worsening
			}
			v := verdict(worsening, math.Max(iqrShare(sa), iqrShare(sb)), m.Bound, everyBetter(wa.Runs, wb.Runs, m.Name, lower))
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "  %-16s a %12.4f [%.4f %.4f]  b %12.4f [%.4f %.4f] %-5s  %+6.1f%%  bound %4.1f%%  %s\n",
				m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, sa.Unit, 100*worsening, 100*m.Bound, v)
		}
	}
	return code
}

func failedShare(ws WorkloadSet) float64 {
	if ws.Attempted == 0 {
		return 0
	}
	return float64(ws.Failed) / float64(ws.Attempted)
}
