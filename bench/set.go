package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Summary is one end-to-end metric across a set's untraced runs.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// WorkloadSet is everything a full set measured on one workload.
type WorkloadSet struct {
	Name      string             `json:"name"`
	Runs      []Result           `json:"runs"`
	Traced    *Result            `json:"traced,omitempty"`
	Summary   map[string]Summary `json:"summary"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// SetFile is <out>/bench.json: what -compare reads.
type SetFile struct {
	Env       Env           `json:"env"`
	Seed      int64         `json:"seed"`
	Seconds   int           `json:"seconds"`
	Runs      int           `json:"runs"`
	WallS     float64       `json:"wall_s"`
	Workloads []WorkloadSet `json:"workloads"`
}

// runSet runs the full set. Every run is its own child process: a gigabyte
// of heap left over from one workload slows the next one's collections
// tenfold, and a first run in a cold process costs twice a warm one.
func runSet(out string, seed int64, seconds, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	file := SetFile{Env: currentEnv(), Seed: seed, Seconds: seconds, Runs: runs}
	sets := make(map[string]*WorkloadSet, len(workloadOrder))
	for _, w := range workloadOrder {
		sets[w] = &WorkloadSet{Name: w}
	}
	child := func(w string, seed int64, traced bool, dir string) (Result, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr // this process's stdout is the summary
		if err := cmd.Run(); err != nil {
			return Result{}, fmt.Errorf("%s (seed %d, trace %s): %w", w, seed, trace, err)
		}
		var res Result
		data, err := os.ReadFile(resultPath(dir, w, traced))
		if err != nil {
			return Result{}, err
		}
		return res, json.Unmarshal(data, &res)
	}
	// Run by run, not workload by workload, so slow drift of the machine
	// spreads over every workload instead of landing on one.
	for r := 0; r < runs; r++ {
		for _, w := range workloadOrder {
			res, err := child(w, seed+int64(r), false, filepath.Join(out, fmt.Sprintf("run%d", r)))
			if err != nil {
				return err
			}
			s := sets[w]
			s.Runs = append(s.Runs, res)
			s.Attempted += res.Attempted
			s.Failed += res.Failed
		}
	}
	for _, w := range workloadOrder {
		res, err := child(w, seed, true, filepath.Join(out, "traced"))
		if err != nil {
			return err
		}
		sets[w].Traced = &res
	}
	for _, w := range workloadOrder {
		s := sets[w]
		s.Summary = summarize(s.Runs)
		file.Workloads = append(file.Workloads, *s)
	}
	file.WallS = time.Since(start).Seconds()
	if err := writeJSON(filepath.Join(out, "bench.json"), file); err != nil {
		return err
	}
	printSet(file)
	return nil
}

// summarize takes each end-to-end metric's median and quartiles over runs.
func summarize(runs []Result) map[string]Summary {
	out := make(map[string]Summary, len(endToEnd))
	for _, d := range endToEnd {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[d.Name].Value)
		}
		q1, q2, q3 := quartiles(xs)
		out[d.Name] = Summary{Median: q2, Q1: q1, Q3: q3, N: len(xs), Unit: d.Unit}
	}
	return out
}

func printSet(f SetFile) {
	fmt.Printf("%s  GOMAXPROCS=%d nproc=%d  seed %d  %d run(s) x %d s  wall %.0f s\n",
		f.Env.GoVersion, f.Env.GOMAXPROCS, f.Env.NumCPU, f.Seed, f.Runs, f.Seconds, f.WallS)
	for _, w := range f.Workloads {
		fmt.Printf("\n%s  attempted %d failed %d\n", w.Name, w.Attempted, w.Failed)
		for _, d := range endToEnd {
			s := w.Summary[d.Name]
			fmt.Printf("  %-18s %14.4f %-5s [q1 %.4f q3 %.4f n %d]\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
		if w.Traced == nil {
			continue
		}
		for _, d := range perLayer {
			if s := w.Traced.Metrics[d.Name]; s.N > 0 {
				fmt.Printf("  %-36s %14.4f %-6s n %d\n", d.Name, s.Value, s.Unit, s.N)
			}
		}
	}
}
