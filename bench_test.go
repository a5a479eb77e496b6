// The two end-to-end benchmarks CI's "Bench smoke" runs once each so the
// closed loop and the scenario runner cannot silently rot. Per-layer timings
// live in bench/ (one named row each, with a trajectory); the paper's tables
// are printed by cmd/mycroft-eval and asserted by internal/experiments' tests.
//
// This file is an external test package so it can pull in internal/scenario
// (which itself imports mycroft) without an import cycle.
package mycroft_test

import (
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
