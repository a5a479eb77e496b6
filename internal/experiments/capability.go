package experiments

import (
	"time"

	"mycroft"
	"mycroft/internal/baseline"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// E1 reproduces Table 1: the capability matrix of tracing designs. It has
// two parts: the static capability rows, and a dynamic demonstration — for
// each fault class and each tracer design, can the design's own data detect
// the anomaly and localize the faulty rank?
type E1Result struct {
	Static  [][]string
	Dynamic [][]string
}

// CapabilityCase is one (design, fault) outcome of the dynamic part.
type CapabilityCase struct {
	Design    baseline.Kind
	Fault     faults.Kind
	Detected  bool
	Localized bool
}

// RunE1 executes the capability matrix experiment.
func RunE1(seed int64) E1Result {
	var res E1Result
	for _, k := range []baseline.Kind{baseline.OpLevel, baseline.KernelLevel, baseline.RDMALevel, baseline.Coll} {
		c := baseline.Caps(k)
		res.Static = append(res.Static, []string{
			string(k), mark(c.RDMAObservability), mark(c.GPUObservability),
			mark(c.GrayFailure), mark(c.PerformanceIssues), mark(c.Distributed), mark(c.RealTime),
		})
	}

	// Dynamic part: NIC-down and GPU-hang (the two gray-failure archetypes
	// with different faulty layers) under each design.
	cases := []struct {
		kind faults.Kind
		rank int
	}{
		{faults.NICDown, 5},
		{faults.GPUHang, 2},
	}
	for _, cs := range cases {
		for _, design := range []baseline.Kind{baseline.OpLevel, baseline.KernelLevel, baseline.RDMALevel, baseline.Coll} {
			out := runCapabilityCase(seed, design, cs.kind, cs.rank)
			res.Dynamic = append(res.Dynamic, []string{
				string(cs.kind), string(design), yn(out.Detected), yn(out.Localized),
			})
		}
	}
	return res
}

// runCapabilityCase runs one fault under one tracer design and asks the
// design's own data for a verdict.
func runCapabilityCase(seed int64, design baseline.Kind, fk faults.Kind, rank int) CapabilityCase {
	out := CapabilityCase{Design: design, Fault: fk}
	warmup := 15 * time.Second
	spec := faults.Spec{Kind: fk, Rank: topo.Rank(rank), At: warmup}
	if design == baseline.Coll {
		_, v := host(seed, mycroft.JobOptions{Topo: topo.Small()}, spec, warmup+30*time.Second)
		out.Detected = v.Trigger != nil
		out.Localized = v.Suspect == faults.SuspectExact
		return out
	}

	eng := sim.NewEngine(seed)
	cfg := train.JobConfig(topo.Small(), train.ComputeHeavy)
	cfg.DisableTracing = true
	tracer := baseline.New(design, eng.Now)
	tracer.Wire(&cfg.CCL)
	job := train.MustNew(eng, cfg)
	job.Start()
	faults.Inject(job, spec)
	eng.RunFor(warmup + 30*time.Second)
	now := eng.Now()

	timeout := 5 * time.Second
	out.Detected = tracer.Detected(now, timeout)
	switch design {
	case baseline.OpLevel:
		// Op-level data: completions only. The stall shows up as global
		// silence; there is no per-flow state to attribute it with, so
		// localization means "the rank whose ops ceased first" — but every
		// rank's completions cease within one iteration of each other, so
		// the earliest-silent rank is arbitrary.
		stalled := tracer.StalledRanks(now, timeout)
		out.Localized = len(stalled) > 0 && stalled[0] == topo.Rank(rank)
	case baseline.KernelLevel, baseline.RDMALevel:
		suspects := tracer.Suspects(now, timeout)
		out.Localized = len(suspects) > 0 && suspects[0] == topo.Rank(rank)
	}
	job.Stop()
	return out
}

// Table renders both parts of E1.
func (r E1Result) Table() string {
	s := "Table 1 — static capabilities (v = has capability)\n"
	s += Table([]string{"tracer", "rdma-vis", "gpu-vis", "gray-failure", "perf-issues", "distributed", "real-time"}, r.Static)
	s += "\nTable 1 (dynamic) — detect & localize under injected gray failures\n"
	s += Table([]string{"fault", "tracer", "detected", "localized-rank"}, r.Dynamic)
	return s
}
