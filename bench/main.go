// Command bench is the repository's one benchmark: four workloads, each
// measured end to end on an untraced run and layer by layer on a traced one.
//
//	go run ./bench -workload sim-512 -seed 1 -seconds 20 -trace 0
//
// runs one workload and prints, as the last line of standard output, the JSON
// object BENCHMARK.json's contract names. Without -workload it runs the full
// set — every workload in its own child process, -runs untraced runs on
// consecutive seeds plus one traced run — and writes <out>/bench.json, which
// -compare reads:
//
//	go run ./bench -out a -seed 1 -runs 5
//	go run ./bench -out b -seed 1 -runs 5
//	go run ./bench -compare a/bench.json b/bench.json
//
// README.md says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only (default: the full set, one child process per run)")
		seed     = flag.Int64("seed", 1, "workload seed: picks fault ranks, query ranks and log text")
		seconds  = flag.Int("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans and a CPU profile")
		out      = flag.String("out", ".bench_out", "directory for result files, spans and profiles")
		runs     = flag.Int("runs", 1, "full set only: untraced runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two bench.json files given as arguments instead of running")
		spec     = flag.String("spec", "BENCHMARK.json", "with -compare: where the metrics' directions and bounds are")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two bench.json files"))
		}
		os.Exit(compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fatal(fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -runs >= 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "" {
		if err := runSet(*out, *seed, *seconds, *runs); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, out: *out, size: fullSize,
	}
	res, err := runOne(cfg)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(resultPath(*out, cfg.workload, cfg.traced), res); err != nil {
		fatal(err)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", f)
	}
	fmt.Println(contractLine(res))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func resultPath(out, workload string, traced bool) string {
	if traced {
		return filepath.Join(out, workload+".traced.json")
	}
	return filepath.Join(out, workload+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs one workload in this process. A traced run also leaves
// <out>/<workload>.spans.json and <out>/<workload>.cpu.pprof behind.
func runOne(cfg runConfig) (Result, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadOrder)
	}
	var log *spanLog
	if cfg.traced {
		log = newSpanLog()
		if cfg.out != "" {
			prof, err := os.Create(filepath.Join(cfg.out, cfg.workload+".cpu.pprof"))
			if err != nil {
				return Result{}, err
			}
			defer prof.Close()
			if err := pprof.StartCPUProfile(prof); err != nil {
				return Result{}, err
			}
			defer pprof.StopCPUProfile()
		}
	}
	start := time.Now()
	m, t, err := run(cfg, log)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	stats, err := finish(m, cfg.traced)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if t.attempted == 0 {
		return Result{}, fmt.Errorf("%s: no operation was attempted", cfg.workload)
	}
	if log != nil && cfg.out != "" {
		if err := log.write(filepath.Join(cfg.out, cfg.workload+".spans.json")); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Seconds: cfg.seconds.Seconds(), WallS: time.Since(start).Seconds(),
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Metrics: stats, Env: currentEnv(),
	}, nil
}
