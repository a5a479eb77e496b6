package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"syscall"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names and units (plus direction and bound);
// TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd is printed by every workload on an untraced run. What an
// "operation" and a "work item" are differs per workload; README.md has the
// table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"allocs_per_work", "count"},
	{"live_heap_mb", "MB"},
}

// serveOps are the read operations that get their own per-layer row at the
// query, api and remote layers.
var serveOps = []string{"health", "jobs", "triggers", "reports", "trace_page", "deps", "spans"}

// perLayer is printed by every workload on a traced run; a workload that
// does not exercise a layer prints 0 with n = 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim.events_per_record", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.records_per_s", "1/s"},
		{"sim.step_p50_ms", "ms"},
		{"sim.step_p99_ms", "ms"},
		{"sim.bare_event_ns", "ns"},
		{"sim.bare_event_allocs", "count"},
		{"train.substrate_share", "share"},
		{"train.addjob_ms_per_rank", "ms"},
		{"trace.emit_ns", "ns"},
		{"trace.drain_ns_per_record", "ns"},
		{"trace.marshal_ns", "ns"},
		{"trace.ring_bytes_per_rank", "B"},
		{"collector.upload_ns_per_record", "ns"},
		{"replay.decode_ns_per_record", "ns"},
		{"replay.other_share", "share"},
		{"replay.records_per_s", "1/s"},
		{"clouddb.ingest_ns_per_record", "ns"},
		{"clouddb.ingest_allocs_per_record", "count"},
		{"clouddb.query_group_us", "us"},
		{"clouddb.query_page_us", "us"},
		{"clouddb.heap_bytes_per_record", "B"},
		{"depgraph.observe_ns_per_record", "ns"},
		{"depgraph.walk_us", "us"},
		{"core.evaluate_us", "us"},
		{"core.analyze_us", "us"},
		{"core.fusion_ns", "ns"},
		{"core.triggers", "count"},
		{"core.reports", "count"},
		{"core.false_positive_reports", "count"},
		{"core.detect_latency_vs", "virt-s"},
		{"core.rca_latency_vs", "virt-s"},
		{"remedy.heal_latency_vs", "virt-s"},
		{"remedy.attempts", "count"},
		{"remedy.succeeded_share", "share"},
		{"logdiag.ingest_ns_per_line", "ns"},
		{"perfdiag.ingest_ns_per_sample", "ns"},
		{"channels.ingest_logs_us_per_batch", "us"},
	}
	for _, op := range serveOps {
		defs = append(defs, metricDef{"query." + op + "_us", "us"})
	}
	for _, op := range serveOps {
		defs = append(defs,
			metricDef{"api." + op + "_handler_us", "us"},
			metricDef{"api." + op + "_allocs", "count"},
			metricDef{"api." + op + "_resp_bytes", "B"})
	}
	for _, op := range serveOps {
		defs = append(defs, metricDef{"remote." + op + "_p50_us", "us"})
	}
	return append(defs,
		metricDef{"remote.reads_per_s", "1/s"},
		metricDef{"remote.read_mean_us", "us"},
		metricDef{"remote.read_p99_us", "us"},
		metricDef{"remote.ingest_logs_p50_us", "us"},
		metricDef{"remote.ingest_logs_p99_us", "us"},
		metricDef{"remote.ingest_lines_per_s", "1/s"},
		metricDef{"serve.advance_hold_p50_ms", "ms"},
		metricDef{"serve.advance_hold_p99_ms", "ms"},
		metricDef{"serve.drive_late_p99_ms", "ms"},
		metricDef{"serve.health_p99_us", "us"},
		metricDef{"serve.scrape_ms", "ms"},
		metricDef{"cluster.replicate_p50_ms", "ms"},
		metricDef{"cluster.replicate_p99_ms", "ms"},
		metricDef{"cluster.replicate_allocs", "count"},
		metricDef{"cluster.route_ns", "ns"},
		metricDef{"cluster.replica_read_p50_us", "us"},
		metricDef{"events.deliver_p50_ms", "ms"},
		metricDef{"events.deliver_p90_ms", "ms"},
		metricDef{"events.dropped", "count"},
		metricDef{"otrace.span_ns", "ns"},
		metricDef{"obs.counter_ns", "ns"},
		metricDef{"proc.peak_rss_mb", "MB"},
		metricDef{"proc.gc_cpu_share", "share"},
		metricDef{"proc.trace_overhead_pct", "%"},
	)
}

// Env is the generator health printed beside the numbers: what ran the
// benchmark, so two result files can be told apart before being compared.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentEnv() Env {
	return Env{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// Result is one run of one workload, as written to <out>/<workload>.json
// (or .traced.json). The last line of standard output carries the subset
// the benchmark contract names.
type Result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Traced    bool            `json:"traced"`
	Seconds   float64         `json:"seconds"`
	WallS     float64         `json:"wall_s"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]Stat `json:"metrics"`
	Env       Env             `json:"env"`
}

// tally counts checked operations and keeps the first few failure messages.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation and fails it when cond is false.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

// metrics is what a workload hands back; set stores one value.
type metrics map[string]Stat

func (m metrics) set(name string, value float64, n int) { m[name] = Stat{Value: value, N: n} }

// setMedian stores the median of one value per repetition, with the
// quartiles beside it.
func (m metrics) setMedian(name string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	m[name] = Stat{Value: q2, N: len(xs), Q1: q1, Q3: q3}
}

// setTail stores the tail of xs, scaled into the metric's unit, and notes
// which percentile the sample count allowed.
func (m metrics) setTail(name string, xs []float64, want, scale float64) {
	v, p := tail(xs, want)
	m[name] = Stat{Value: v * scale, N: len(xs), Note: fmt.Sprintf("p%.1f", 100*p)}
}

// finish checks a workload's metrics against the catalog for its mode and
// stamps units. A missing end-to-end metric or a non-finite value is a bug
// in the benchmark and an error; a missing per-layer metric means the
// workload does not exercise that layer and is printed as 0 with n = 0.
func finish(m metrics, traced bool) (map[string]Stat, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]Stat, len(defs))
	for _, d := range defs {
		s, ok := m[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure end-to-end metric %s", d.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v from %d samples)", d.Name, s.Value, s.N)
		}
		s.Unit = d.Unit
		out[d.Name] = s
		delete(m, d.Name)
	}
	for name := range m {
		return nil, fmt.Errorf("workload measured %s, which the catalog does not name", name)
	}
	return out, nil
}

// contractLine renders the one JSON object the benchmark contract wants as
// the last line of standard output.
func contractLine(r Result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, s := range r.Metrics {
		line.Metrics[name] = mv{s.Value, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(data)
}

// memCounters is the slice of runtime.MemStats the workloads difference.
type memCounters struct {
	mallocs   uint64
	heapAlloc uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, heapAlloc: ms.HeapAlloc}
}

// liveHeapMB forces a collection and returns what is still reachable. The
// caller keeps the state it wants counted referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMem().heapAlloc) / (1 << 20)
}

// procMetrics fills the process-level per-layer rows.
func procMetrics(m metrics, overheadPct float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("proc.gc_cpu_share", ms.GCCPUFraction, 1)
	m.set("proc.trace_overhead_pct", overheadPct, 1)
}
