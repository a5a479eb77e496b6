// The end-to-end benchmarks CI's "Bench smoke" runs once each so the closed
// loop, the scenario runner and the wire round trip cannot silently rot. Per-layer timings
// live in bench/ (one named row each, with a trajectory); the paper's tables
// are printed by cmd/mycroft-eval and asserted by internal/experiments' tests.
//
// This file is an external test package so it can pull in internal/scenario
// (which itself imports mycroft) without an import cycle.
package mycroft_test

import (
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/faults"
	"mycroft/internal/scenario"
)

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

// BenchmarkRemoteRoundTrip prices one wire round trip over loopback against an
// in-process daemon, client and server together: Health, the smallest
// answer, and a 256-record trace page. It uses only the public API.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	svc.MustAddJob("rt", mycroft.JobOptions{})
	svc.Start()
	svc.Run(20 * time.Second)
	ts := httptest.NewServer(mycroft.NewServer(svc).Handler())
	defer ts.Close()
	rc, err := mycroft.Dial(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	defer rc.Close()
	b.Run("Health", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rc.Health(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QueryTrace256", func(b *testing.B) {
		q := mycroft.TraceQuery{Job: "rt", Limit: 256}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := rc.QueryTrace(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Records) != 256 {
				b.Fatalf("a page of %d records, want 256", len(res.Records))
			}
		}
	})
}

// TestFullSizeAllocBudget holds the substrate's steady-state malloc and
// engine-event counts at the size the benchmark runs (bench/ sim-512's
// 512-rank job) until CI gates on bench/ itself. The second ten of twenty
// virtual seconds are counted: by then every communicator has planned each
// shape its script submits, and the free lists, the spare op frames and the
// flight recorder's rings are full, so what is left is mostly the trace store's
// new segments. Both counts are properties of the program, not of the
// machine. Mallocs read 0.0135 per record; they read 0.0724 while every op
// allocated its own frame, 0.35 while the rank scripts built a continuation
// closure per wait, and 1.21 before collectives were planned once. Events read 5.7199 per record; they read 9.2978 while
// every (rank, communicator) pair had its own state-log ticker and every
// transmission scheduled an event of its own.
func TestFullSizeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a 512-rank job for 20 virtual seconds")
	}
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	job := svc.MustAddJob("sim", mycroft.JobOptions{
		Topo: mycroft.TopoConfig{Nodes: 64, GPUsPerNode: 8, TP: 8, PP: 4, DP: 16},
	})
	svc.Start()
	svc.Run(10 * time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm, dispatched := job.RecordsIngested(), svc.Eng.Dispatched()
	svc.Run(10 * time.Second)
	runtime.ReadMemStats(&after)
	mallocs, records := after.Mallocs-before.Mallocs, job.RecordsIngested()-warm
	events := svc.Eng.Dispatched() - dispatched
	if records < 50_000 {
		t.Fatalf("only %d records ingested in 10 virtual seconds", records)
	}
	perRecord := float64(mallocs) / float64(records)
	t.Logf("%d mallocs over %d records: %.4f per record", mallocs, records, perRecord)
	if perRecord > 0.03 {
		t.Errorf("%.4f mallocs per ingested record, want at most 0.03", perRecord)
	}
	eventsPerRecord := float64(events) / float64(records)
	t.Logf("%d engine events over %d records: %.4f per record", events, records, eventsPerRecord)
	if eventsPerRecord > 6.0 {
		t.Errorf("%.4f engine events per ingested record, want at most 6.0", eventsPerRecord)
	}
}
