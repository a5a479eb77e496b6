// End-to-end fault-injection tests: a full simulated training job with the
// Mycroft backend attached, one fault per run, verifying Algorithm 1 fires
// and Algorithm 2 localizes the injected rank with the right category. This
// is the repository's core integration suite — it exercises every layer
// (GPU, RDMA, CCL, trace ring, collector, cloud DB, trigger, RCA) together.
package faults

import (
	"testing"
	"time"

	"mycroft/internal/collector"
	"mycroft/internal/core"
	"mycroft/internal/pystack"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// harness runs a 2×4 job with the backend attached.
type harness struct {
	eng *sim.Engine
	job *train.Job
	bk  *core.Backend
}

// newHarness builds a compute-heavy job (failure-class faults block it
// outright, so the workload mix does not matter much).
func newHarness(t *testing.T, seed int64) *harness {
	return newHarnessCfg(t, seed, 300*time.Millisecond, 256<<20)
}

// newCommHeavyHarness weights iterations toward communication so that
// degradation-class faults move the throughput/interval needles, as the
// paper's comm-bound production jobs do.
func newCommHeavyHarness(t *testing.T, seed int64) *harness {
	return newHarnessCfg(t, seed, 100*time.Millisecond, 1<<30)
}

func newHarnessCfg(t *testing.T, seed int64, compute time.Duration, dpBytes int64) *harness {
	t.Helper()
	eng := sim.NewEngine(seed)
	job := train.MustNew(eng, train.Config{
		Topo:            topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		LayersPerStage:  2,
		ComputePerLayer: compute,
		TPBytesPerLayer: 32 << 20,
		PPBytes:         16 << 20,
		DPBytes:         dpBytes,
		Collector:       collector.Config{DrainPeriod: 50 * time.Millisecond, UploadLatency: 500 * time.Millisecond},
	})
	sampled := core.SampleRanks(job.Cluster.DPGroups(), 10)
	bk := core.NewBackend(eng, job.DB, sampled, core.Config{
		Window:        5 * time.Second,
		StragglerLate: time.Second,
	})
	return &harness{eng: eng, job: job, bk: bk}
}

// run starts the job and backend, injects the fault after warmup, and runs
// until a report lands or the deadline passes.
func (h *harness) run(t *testing.T, spec Spec, deadline time.Duration) (core.Trigger, core.Report, sim.Time) {
	t.Helper()
	h.job.Start()
	h.bk.Start()
	warmup := 15 * time.Second
	spec.At = warmup
	Inject(h.job, spec)
	faultAt := sim.Time(warmup)
	h.eng.RunFor(warmup + deadline)
	trs, reps := h.bk.Triggers(), h.bk.Reports()
	if len(trs) == 0 {
		t.Fatalf("%v: no trigger within %v of injection", spec, deadline)
	}
	if len(reps) == 0 {
		t.Fatalf("%v: no report", spec)
	}
	return trs[0], reps[0], faultAt
}

func checkVerdict(t *testing.T, spec Spec, tr core.Trigger, rep core.Report, faultAt sim.Time) {
	t.Helper()
	exp := Expect(spec.Kind)
	if !exp.TriggerOK(tr.Kind) {
		t.Errorf("%v: trigger kind %v, want one of %v (reason %q)", spec, tr.Kind, exp.Triggers, tr.Reason)
	}
	if tr.At <= faultAt {
		t.Errorf("%v: trigger at %v before fault at %v", spec, tr.At, faultAt)
	}
	if exp.LocalizeRank && rep.Suspect != spec.Rank {
		t.Errorf("%v: suspect rank %d, want %d (report: %v)", spec, rep.Suspect, spec.Rank, rep)
	}
	if !exp.CategoryOK(rep.Category) {
		t.Errorf("%v: category %v, want one of %v (report: %v)", spec, rep.Category, exp.Categories, rep)
	}
	detect := tr.At.Sub(faultAt)
	if detect > 15*time.Second {
		t.Errorf("%v: detection took %v, want < 15s", spec, detect)
	}
}

func TestNICDownDetectedAndLocalized(t *testing.T) {
	h := newHarness(t, 1)
	spec := Spec{Kind: NICDown, Rank: 5}
	tr, rep, faultAt := h.run(t, spec, 30*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestLinkLossDetectedAndLocalized(t *testing.T) {
	h := newHarness(t, 2)
	spec := Spec{Kind: LinkLoss, Rank: 6}
	tr, rep, faultAt := h.run(t, spec, 30*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestGPUHangDetectedAndLocalized(t *testing.T) {
	h := newHarness(t, 3)
	spec := Spec{Kind: GPUHang, Rank: 2}
	tr, rep, faultAt := h.run(t, spec, 30*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestProxyCrashDetectedAndLocalized(t *testing.T) {
	h := newHarness(t, 4)
	spec := Spec{Kind: ProxyCrash, Rank: 3}
	tr, rep, faultAt := h.run(t, spec, 30*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestNICDegradeDetectedAndLocalized(t *testing.T) {
	h := newCommHeavyHarness(t, 5)
	spec := Spec{Kind: NICDegrade, Rank: 4, Severity: 0.01}
	tr, rep, faultAt := h.run(t, spec, 60*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestGPUSlowDetectedAndLocalized(t *testing.T) {
	h := newHarness(t, 6)
	spec := Spec{Kind: GPUSlow, Rank: 1, Severity: 6}
	tr, rep, faultAt := h.run(t, spec, 60*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestPCIeDegradeDetectedAndLocalized(t *testing.T) {
	h := newCommHeavyHarness(t, 7)
	spec := Spec{Kind: PCIeDegrade, Rank: 7, Severity: 0.001}
	tr, rep, faultAt := h.run(t, spec, 60*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestComputeHangHandsOffOutsideCCL(t *testing.T) {
	h := newHarness(t, 8)
	spec := Spec{Kind: ComputeHang, Rank: 6}
	tr, rep, faultAt := h.run(t, spec, 30*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestDataloaderStallHandsOffOutsideCCL(t *testing.T) {
	h := newHarness(t, 9)
	spec := Spec{Kind: DataloaderStall, Rank: 0}
	tr, rep, faultAt := h.run(t, spec, 30*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestCongestionDetectedAndLocalized(t *testing.T) {
	h := newCommHeavyHarness(t, 13)
	spec := Spec{Kind: Congestion, Rank: 4, Severity: 0.999}
	tr, rep, faultAt := h.run(t, spec, 60*time.Second)
	checkVerdict(t, spec, tr, rep, faultAt)
}

func TestNICFlapRecovers(t *testing.T) {
	// A transient flap shorter than the stall horizon: the job must resume
	// on its own (queued WRs replay on recovery), and iterations continue.
	eng := sim.NewEngine(14)
	job := train.MustNew(eng, train.Config{
		Topo:            topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		ComputePerLayer: 300 * time.Millisecond,
		Collector:       collector.Config{UploadLatency: 500 * time.Millisecond},
	})
	job.Start()
	Inject(job, Spec{Kind: NICFlap, Rank: 5, At: 10 * time.Second, Duration: 3 * time.Second})
	eng.RunFor(15 * time.Second)
	atRecovery := job.IterationsDone()
	eng.RunFor(20 * time.Second)
	if job.IterationsDone() <= atRecovery+2 {
		t.Fatalf("job did not resume after flap: %d then %d iterations", atRecovery, job.IterationsDone())
	}
}

func TestCheckpointStallTriagedByPyspy(t *testing.T) {
	eng := sim.NewEngine(15)
	job := train.MustNew(eng, train.Config{
		Topo:            topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		ComputePerLayer: 300 * time.Millisecond,
		CheckpointEvery: 3,
		Collector:       collector.Config{UploadLatency: 500 * time.Millisecond},
	})
	bk := core.NewBackend(eng, job.DB, core.SampleRanks(job.Cluster.DPGroups(), 10), core.Config{})
	job.Start()
	bk.Start()
	Inject(job, Spec{Kind: CheckpointStall, Rank: 6, At: 5 * time.Second})
	eng.RunFor(60 * time.Second)
	if len(bk.Triggers()) == 0 {
		t.Fatal("checkpoint stall not detected")
	}
	// The stack sampler must show rank 6 alone in checkpoint.save.
	a := pystack.Analyze(job.PyStack.Dump())
	stuck := a.StuckInDataPath()
	if len(stuck) != 1 || stuck[0].Rank != 6 || stuck[0].Frame != pystack.FrameCheckpoint {
		t.Fatalf("py-spy outliers = %+v", stuck)
	}
}

func TestComputeJitterNoFalsePositives(t *testing.T) {
	eng := sim.NewEngine(16)
	job := train.MustNew(eng, train.Config{
		Topo:            topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		ComputePerLayer: 300 * time.Millisecond,
		ComputeJitter:   0.2, // ±20% noise on every compute phase
		Collector:       collector.Config{UploadLatency: 500 * time.Millisecond},
	})
	bk := core.NewBackend(eng, job.DB, core.SampleRanks(job.Cluster.DPGroups(), 10), core.Config{})
	job.Start()
	bk.Start()
	eng.RunFor(120 * time.Second)
	if trs := bk.Triggers(); len(trs) != 0 {
		t.Fatalf("jittered healthy job triggered: %v", trs)
	}
}

func TestNoFaultNoTrigger(t *testing.T) {
	h := newHarness(t, 10)
	h.job.Start()
	h.bk.Start()
	h.eng.RunFor(60 * time.Second)
	if trs := h.bk.Triggers(); len(trs) != 0 {
		t.Fatalf("healthy job triggered: %v", trs)
	}
}

func TestMasterHeavyNoFalsePositive(t *testing.T) {
	// §9: the master rank legitimately does more work; the 1s straggler
	// threshold must tolerate it.
	eng := sim.NewEngine(11)
	job := train.MustNew(eng, train.Config{
		Topo:            topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		ComputePerLayer: 300 * time.Millisecond,
		MasterExtra:     400 * time.Millisecond,
		Collector:       collector.Config{UploadLatency: 500 * time.Millisecond},
	})
	bk := core.NewBackend(eng, job.DB, core.SampleRanks(job.Cluster.DPGroups(), 10), core.Config{})
	job.Start()
	bk.Start()
	eng.RunFor(60 * time.Second)
	if trs := bk.Triggers(); len(trs) != 0 {
		t.Fatalf("master-heavy job triggered: %v", trs)
	}
}

func TestSpecDefaultsAndValidation(t *testing.T) {
	s := Spec{Kind: GPUSlow}.withDefaults()
	if s.Severity != 4 {
		t.Fatalf("GPUSlow default severity = %v", s.Severity)
	}
	s = Spec{Kind: NICDegrade}.withDefaults()
	if s.Severity != 0.1 || s.Duration != 5*time.Second {
		t.Fatalf("NICDegrade defaults = %+v", s)
	}
	if (Spec{Kind: NICDown, Rank: 3}).String() == "" {
		t.Fatal("empty String")
	}
	if len(CoreSeven()) != 7 {
		t.Fatalf("CoreSeven = %d kinds", len(CoreSeven()))
	}
	if len(All()) != 13 {
		t.Fatalf("All = %d kinds", len(All()))
	}
	h := newHarness(t, 12)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range rank did not panic")
			}
		}()
		Inject(h.job, Spec{Kind: NICDown, Rank: 99})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown kind did not panic")
			}
		}()
		Inject(h.job, Spec{Kind: "bogus", Rank: 0})
		h.eng.RunFor(time.Second)
	}()
}

// TestJudge scores fabricated runs: what fired before the injection is
// ignored except as spurious, the first accepted trigger whose report names
// the injected host and the first correct report are found past earlier
// wrong ones, and suspects grade by host.
func TestJudge(t *testing.T) {
	cl := topo.MustNew(topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2})
	at := func(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }
	spec := Spec{Kind: NICDegrade, Rank: 5, At: 15 * time.Second}
	trigs := []core.Trigger{
		{Kind: core.TriggerFailure, Rank: 0, At: at(6)},
		{Kind: core.TriggerFailure, Rank: 0, At: at(18)},
		{Kind: core.TriggerStraggler, Rank: 1, At: at(19)}, // never analyzed
		{Kind: core.TriggerStraggler, Rank: 1, At: at(20)},
	}
	reps := []core.Report{
		{Trigger: trigs[0], Suspect: 2, Category: core.CatNotLaunched, AnalyzedAt: at(6)},
		{Trigger: trigs[3], Suspect: 6, Category: core.CatNetworkDegrade, AnalyzedAt: at(24)},
		{Trigger: trigs[3], Suspect: 5, Category: core.CatNetworkDegrade, AnalyzedAt: at(30)},
	}
	v := Judge(spec, cl, trigs, reps)
	if v.Trigger != &trigs[1] || v.TriggerAfter != 3*time.Second || v.Detected != &trigs[3] {
		t.Errorf("triggers: first %v (+%v), detected %v", v.Trigger, v.TriggerAfter, v.Detected)
	}
	if v.Report != &reps[1] || v.ReportAfter != 9*time.Second || v.Diagnosed != &reps[2] {
		t.Errorf("reports: first %v (+%v), diagnosed %v", v.Report, v.ReportAfter, v.Diagnosed)
	}
	if v.Suspect != SuspectSameHost || !v.RightCategory {
		t.Errorf("first report graded %s, right category %v", v.Suspect, v.RightCategory)
	}
	if len(v.Spurious) != 2 || v.Spurious[0].Suspect != 2 || v.Spurious[1].Suspect != 6 {
		t.Errorf("spurious = %v", v.Spurious)
	}
	// An accepted trigger whose analysis blamed another host detected nothing.
	wrongHost := []core.Report{{Trigger: trigs[3], Suspect: 2, Category: core.CatNetworkDegrade, AnalyzedAt: at(24)}}
	if g := Judge(spec, cl, trigs, wrongHost); g.Detected != nil {
		t.Errorf("trigger blamed on rank 2 counted as detecting rank 5's fault: %v", g.Detected)
	}
	if g := Judge(spec, cl, nil, reps[:1]); g.Report != nil || g.Suspect != "" || len(g.Spurious) != 1 {
		t.Errorf("pre-injection report judged: %+v", g)
	}
	if g := Judge(spec, cl, nil, []core.Report{{Suspect: -1, AnalyzedAt: at(20)}}); g.Suspect != SuspectWrong {
		t.Errorf("no-suspect report graded %s", g.Suspect)
	}
}

func TestExpectCoversAllKinds(t *testing.T) {
	for _, k := range All() {
		e := Expect(k)
		if len(e.Triggers) == 0 || len(e.Categories) == 0 {
			t.Errorf("Expect(%s) incomplete: %+v", k, e)
		}
	}
	if e := Expect("bogus"); len(e.Triggers) != 0 {
		t.Error("unknown kind has expectation")
	}
}
