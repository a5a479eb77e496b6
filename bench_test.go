// Benchmark harness: one benchmark per reproduced table/figure (E1–E9; the
// experiments live in internal/experiments) plus micro-benchmarks for the
// implementation claims of §4.2
// and §6.1 (M1–M5). Experiment benches print the regenerated table once per
// run via b.Log; `go test -bench . -benchtime 1x -v` shows them all, and
// cmd/mycroft-bench prints the same tables directly.
//
// This file is an external test package so it can pull in internal/scenario
// (which itself imports mycroft) without an import cycle.
package mycroft_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/depgraph"
	"mycroft/internal/experiments"
	"mycroft/internal/faults"
	"mycroft/internal/obs"
	"mycroft/internal/otrace"
	"mycroft/internal/scenario"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// BenchmarkServiceMultiJob tracks multi-tenant throughput: one Service
// hosting four concurrent 8-GPU jobs on a shared engine, simulating 30
// virtual seconds per iteration with a fault on one tenant.
func BenchmarkServiceMultiJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
		for j := 0; j < 4; j++ {
			svc.MustAddJob("", mycroft.JobOptions{})
		}
		svc.Start()
		lead, _ := svc.Job("job-0")
		lead.Inject(mycroft.Fault{Kind: faults.NICDown, Rank: 5, At: 15 * time.Second})
		svc.Run(30 * time.Second)
		svc.Stop()
		if len(lead.Triggers()) == 0 {
			b.Fatal("fault undetected")
		}
	}
}

// BenchmarkRemediationLoop measures the closed loop end to end: a nic-down
// is injected, diagnosed, recovered by the attached policy and verified
// quiet. Custom metrics split the loop: detect (inject→report), act
// (report→action applied) and verify (applied→succeeded) latency, all in
// virtual seconds.
func BenchmarkRemediationLoop(b *testing.B) {
	var detect, act, verify time.Duration
	for i := 0; i < b.N; i++ {
		svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
		job := svc.MustAddJob("llm", mycroft.JobOptions{
			Backend: mycroft.BackendConfig{RearmDelay: 10 * time.Second},
		})
		if err := svc.AttachPolicy("llm", mycroft.SelfHealPolicy()); err != nil {
			b.Fatal(err)
		}
		const faultAt = 15 * time.Second
		svc.Start()
		job.Inject(mycroft.Fault{Kind: faults.NICDown, Rank: 5, At: faultAt})
		svc.Run(75 * time.Second)
		svc.Stop()
		log := job.RemediationLog()
		if len(log) == 0 {
			b.Fatal("no remediation attempts")
		}
		healed := log[len(log)-1]
		if healed.Outcome != mycroft.RemedySucceeded {
			b.Fatalf("loop did not close: %v", healed)
		}
		detect += time.Duration(log[0].ReportedAt) - faultAt
		act += time.Duration(healed.AppliedAt - healed.ReportedAt)
		verify += time.Duration(healed.ResolvedAt - healed.AppliedAt)
	}
	n := float64(b.N)
	b.ReportMetric(detect.Seconds()/n, "vs-detect/op")
	b.ReportMetric(act.Seconds()/n, "vs-act/op")
	b.ReportMetric(verify.Seconds()/n, "vs-verify/op")
}

// BenchmarkQueryWindow measures the Algorithm 1/2 access pattern — "recent
// window, specific kind, across ranks" — on the sharded store versus the
// pre-refactor access pattern, which fetched each rank's full history and
// filtered caller-side (what cmd/mycroft-trace and ad-hoc tooling did
// before the unified query layer existed).
func BenchmarkQueryWindow(b *testing.B) {
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	// 32 ranks × 10 minutes of logs at 10 Hz: the window under query is
	// ~0.2% of the retained history.
	const ranks, hz, secs = 32, 10, 600
	for s := 0; s < secs*hz; s++ {
		ts := sim.Time(time.Duration(s) * 100 * time.Millisecond)
		batch := make([]trace.Record, 0, ranks)
		for r := topo.Rank(0); r < ranks; r++ {
			kind := trace.KindState
			if s%4 == 3 {
				kind = trace.KindCompletion
			}
			batch = append(batch, trace.Record{
				Kind: kind, Time: ts, Rank: r, CommID: uint64(r%4 + 1), IP: "10.0.0.1",
			})
		}
		db.Ingest(batch)
	}
	now := sim.Time(time.Duration(secs) * time.Second)
	from := now.Add(-time.Second)

	b.Run("sharded-query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := db.Query(clouddb.Query{
				Kinds: []trace.Kind{trace.KindCompletion}, From: from, To: now,
			})
			if len(res.Records) == 0 {
				b.Fatal("empty window")
			}
		}
	})
	b.Run("fullscan-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got []trace.Record
			for _, r := range db.Ranks() {
				for _, rec := range db.QueryRank(r, 0, now) {
					if rec.Kind == trace.KindCompletion && rec.Time > from {
						got = append(got, rec)
					}
				}
			}
			if len(got) == 0 {
				b.Fatal("empty window")
			}
		}
	})
}

// BenchmarkServeQuery measures what the wire costs: the same Client queries
// answered by an in-process Service versus by a mycroft-serve endpoint over
// real HTTP (JSON marshal both ways, loopback transport, mutex
// serialization). The delta is the per-query overhead a deployment pays for
// running Mycroft as a shared daemon instead of a linked-in library.
func BenchmarkServeQuery(b *testing.B) {
	build := func() *mycroft.Service {
		svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
		svc.MustAddJob("trace", mycroft.JobOptions{})
		svc.Start()
		h, _ := svc.Job("trace")
		h.Inject(mycroft.Fault{Kind: faults.NICDown, Rank: 5, At: 15 * time.Second})
		svc.Run(40 * time.Second)
		return svc
	}
	svc := build()
	srv := mycroft.NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := mycroft.Dial(ts.URL)
	if err != nil {
		b.Fatal(err)
	}

	bench := func(name string, c mycroft.Client) {
		b.Run(name+"/reports", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.QueryReports(mycroft.ReportQuery{})
				if err != nil || res.Total == 0 {
					b.Fatalf("reports: total %d err %v", res.Total, err)
				}
			}
		})
		b.Run(name+"/trace-page", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.QueryTrace(mycroft.TraceQuery{Ranks: []mycroft.Rank{5}, Limit: 256})
				if err != nil || len(res.Records) == 0 {
					b.Fatalf("trace: %d records err %v", len(res.Records), err)
				}
			}
		})
	}
	bench("in-process", svc)
	bench("http", rc)
}

// BenchmarkDepGraphBuild compares the two ways to answer a trigger's
// dependency questions (where is this rank stuck, who is blocked by whom)
// over a long-retention store:
//
//   - incremental: the depgraph frontier is maintained as batches ingest, so
//     each trigger costs only the graph walk;
//   - rescan-baseline: rebuild the frontier from the trace store on every
//     trigger — the pattern the pre-depgraph RCA used, cost proportional to
//     retained history instead of to the answer.
func BenchmarkDepGraphBuild(b *testing.B) {
	const ranks, hz, secs = 32, 10, 600
	mkBatch := func(s int) []trace.Record {
		ts := sim.Time(time.Duration(s) * 100 * time.Millisecond)
		batch := make([]trace.Record, 0, ranks)
		for r := topo.Rank(0); r < ranks; r++ {
			kind := trace.KindState
			if s%4 == 3 {
				kind = trace.KindCompletion
			}
			stuck := int64(0)
			if s > secs*hz-100 { // the last ~10 s: everything wedges mid-op
				kind = trace.KindState
				stuck = int64(time.Duration(s-(secs*hz-100)) * 100 * time.Millisecond)
			}
			batch = append(batch, trace.Record{
				Kind: kind, Time: ts, Rank: r, CommID: uint64(r%4 + 1), IP: "10.0.0.1",
				Op: trace.OpAllReduce, OpSeq: uint64(s / 8), TotalChunks: 128, GPUReady: 64,
				RDMATransmitted: 60, RDMADone: 58, StuckNs: stuck,
			})
		}
		return batch
	}
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	live := depgraph.New()
	db.AddIngestObserver(live.ObserveBatch)
	for s := 0; s < secs*hz; s++ {
		db.Ingest(mkBatch(s))
	}
	now := sim.Time(time.Duration(secs) * time.Second)
	from := now.Add(-5 * time.Second)

	query := func(b *testing.B, g *depgraph.Graph) {
		if _, ok := g.StuckComm(1, 0, from, now); !ok {
			b.Fatal("no stuck comm")
		}
		if len(g.Victims(1)) == 0 {
			b.Fatal("no victims")
		}
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			query(b, live)
		}
	})
	b.Run("rescan-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := depgraph.New()
			db.Replay(g.Observe)
			query(b, g)
		}
	})
}

// BenchmarkScenarioRun tracks scenario-runner throughput: one full run of
// the canonical single-fault scenario (build, simulate 75 virtual seconds,
// assert) per iteration.
func BenchmarkScenarioRun(b *testing.B) {
	spec, ok := scenario.Lookup("nic-down")
	if !ok {
		b.Fatal("nic-down builtin missing")
	}
	b.ReportAllocs()
	var records uint64
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("scenario failed:\n%s", res.Render())
		}
		records = 0
		for _, j := range res.Jobs {
			records += j.Records
		}
	}
	b.ReportMetric(float64(records), "records/run")
}

// --- E-benchmarks: the paper's tables and figures ---

func BenchmarkE1_CapabilityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE1(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE2_FaultInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE2(2)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE3_DetectionCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE3(28)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE4_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE4(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE5_Propagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE5([]int{16, 64, 256})
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE6_DataVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE6(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE7_Sampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE7(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE8_Thresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE8(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkE9_Integration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE9(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

// --- M-benchmarks: implementation claims ---

// M1: the tracepoint write path ("virtually no overhead", §4.2). This is
// real wall-clock cost of one fixed-size record into the preallocated ring.
func BenchmarkM1_TracepointWrite(b *testing.B) {
	ring := trace.NewRing(1 << 16)
	rec := trace.Record{
		Kind: trace.KindState, IP: "10.0.0.1", CommID: 1, Rank: 3,
		Op: trace.OpAllReduce, TotalChunks: 128, GPUReady: 64, RDMATransmitted: 60, RDMADone: 58,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.OpSeq = uint64(i)
		ring.Emit(rec)
	}
}

// M2: record encode/decode (the fixed 112-byte wire format).
func BenchmarkM2_RecordMarshal(b *testing.B) {
	rec := trace.Record{Kind: trace.KindState, IP: "10.0.0.1", CommID: 1, Rank: 3, Op: trace.OpAllReduce}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := rec.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var out trace.Record
		if err := out.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// M3: ring drain throughput (the per-host agent's read path).
func BenchmarkM3_RingDrain(b *testing.B) {
	ring := trace.NewRing(1 << 14)
	rd := ring.NewReader()
	rec := trace.Record{Kind: trace.KindState}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			ring.Emit(rec)
		}
		if got := rd.Drain(); len(got) != 64 {
			b.Fatalf("drained %d", len(got))
		}
	}
}

// M4: cloud-DB ingest + group query (the backend's data access path).
func BenchmarkM4_DBIngestQuery(b *testing.B) {
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	batch := make([]trace.Record, 64)
	ts := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			ts += 1000
			batch[j] = trace.Record{Kind: trace.KindState, Time: ts, Rank: topo.Rank(j % 8), CommID: 1, IP: "10.0.0.1"}
		}
		db.Ingest(batch)
		if got := db.QueryGroup(1, ts-64000, ts); len(got) == 0 {
			b.Fatal("empty query")
		}
	}
}

// M5: one full Algorithm 1 evaluation pass plus Algorithm 2 failure analysis
// over a realistic stuck-state database (seconds-level analysis claim).
func BenchmarkM5_TriggerAndRCA(b *testing.B) {
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	// A stuck 32-rank group: 30 s of state logs at 10 Hz per rank.
	ts := sim.Time(0)
	for s := 0; s < 300; s++ {
		ts = sim.Time(time.Duration(s) * 100 * time.Millisecond)
		var batch []trace.Record
		for r := topo.Rank(0); r < 32; r++ {
			stuck := int64(0)
			if s > 150 {
				stuck = int64(time.Duration(s-150) * 100 * time.Millisecond)
			}
			batch = append(batch, trace.Record{
				Kind: trace.KindState, Time: ts, Rank: r, CommID: 1,
				IP: topo.IP("10.0.0.1"), Op: trace.OpAllReduce, OpSeq: 7,
				TotalChunks: 256, GPUReady: 100, RDMATransmitted: 100, RDMADone: 96,
				StuckNs: stuck,
			})
		}
		db.Ingest(batch)
	}
	eng.RunUntil(ts)
	bk := core.NewBackend(eng, db, core.SampleWorld(32, 10), core.Config{})
	tr := core.Trigger{Kind: core.TriggerFailure, Rank: 0, IP: "10.0.0.1", At: ts, CommID: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk.Evaluate(ts)
		rep := bk.AnalyzeFailure(tr)
		if rep.Suspect < 0 {
			b.Fatal("no suspect")
		}
	}
}

// --- Obs-benchmarks: the observability plane's hot-path budget ---

// BenchmarkObsCounter is the instrument primitive itself: one atomic
// increment, allocation-free — the cost every instrumented event pays.
func BenchmarkObsCounter(b *testing.B) {
	reg := obs.New()
	c := reg.Counter("bench_events_total", "Benchmark counter.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	b.StopTimer()
	if c.Value() != uint64(b.N) {
		b.Fatalf("counter %d after %d Incs", c.Value(), b.N)
	}
}

// BenchmarkIngestInstrumented prices the observability hooks on the M4
// ingest path: identical 64-record batch ingest bare, with metrics
// instruments on the store, and with the pipeline span tracer attached on
// top. The acceptance budget for each instrumented path is a ≤5%
// regression over bare.
func BenchmarkIngestInstrumented(b *testing.B) {
	run := func(b *testing.B, instrumented, spanned bool) {
		eng := sim.NewEngine(1)
		db := clouddb.New(eng, 0)
		if instrumented {
			reg := obs.New()
			db.SetMetrics(&clouddb.Metrics{
				Records:      reg.Counter("mycroft_ingest_records_total", "Records ingested."),
				Bytes:        reg.Counter("mycroft_ingest_bytes_total", "Bytes ingested."),
				Batches:      reg.Counter("mycroft_ingest_batches_total", "Batches accepted."),
				Pruned:       reg.Counter("mycroft_store_pruned_records_total", "Records pruned."),
				Queries:      reg.Counter("mycroft_queries_total", "Queries served."),
				QueryLatency: reg.Histogram("mycroft_query_latency_seconds", "Query latency.", obs.LatencyBuckets),
			})
		}
		if spanned {
			db.SetTracer(otrace.NewTracer(otrace.NewRecorder(otrace.DefaultCapacity, eng.Now), "bench"))
		}
		batch := make([]trace.Record, 64)
		ts := sim.Time(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range batch {
				ts += 1000
				batch[j] = trace.Record{Kind: trace.KindState, Time: ts, Rank: topo.Rank(j % 8), CommID: 1, IP: "10.0.0.1"}
			}
			db.Ingest(batch)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true, false) })
	b.Run("instrumented+spans", func(b *testing.B) { run(b, true, true) })
}

// Ablation benches for the backend's design knobs (§9 heuristics): virtual
// end-to-end detection latency under different knobs, reported as
// ns/op of simulated runtime (lower = same work simulated faster) with the
// detection latency logged.
func benchDetection(b *testing.B, mutate func(*core.Config, *experiments.JobProfile)) {
	cfg := core.Config{}
	profile := experiments.ComputeHeavy
	mutate(&cfg, &profile)
	var lastDetect time.Duration
	for i := 0; i < b.N; i++ {
		c := experiments.RunCase(int64(i+1), experiments.SmallTestbed(),
			faults.Spec{Kind: faults.NICDown, Rank: 5}, 15*time.Second, 30*time.Second)
		if !c.Detected {
			b.Fatal("undetected")
		}
		lastDetect = c.DetectLatency
	}
	b.Logf("detection latency: %v", lastDetect)
}

func BenchmarkAblation_DetectionDefault(b *testing.B) {
	benchDetection(b, func(*core.Config, *experiments.JobProfile) {})
}

func BenchmarkAblation_UploadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationUploadLatency(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkAblation_StateLogPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationStatePeriod(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkAblation_Channels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationChannels(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}

func BenchmarkAblation_ChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationChunkSize(1)
		if i == 0 {
			b.Log("\n" + r.Table())
		}
	}
}
