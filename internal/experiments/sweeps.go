package experiments

import (
	"fmt"
	"time"

	"mycroft"
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// E7Result reproduces the sampling design argument (§4.3): because
// anomalies cascade cluster-wide, a handful of sampled ranks detect as well
// as sampling everyone.
type E7Result struct {
	Rows [][]string
}

// RunE7 compares sampling policies on the same NIC-down scenario.
func RunE7(seed int64) E7Result {
	var res E7Result
	policies := []struct {
		name   string
		sample func(j *train.Job) []topo.Rank
	}{
		{"1 rank", func(j *train.Job) []topo.Rank { return []topo.Rank{0} }},
		{"1 per DP group (<=10)", func(j *train.Job) []topo.Rank { return core.SampleRanks(j.Cluster.DPGroups(), 10) }},
		{"every rank", func(j *train.Job) []topo.Rank {
			var all []topo.Rank
			for r := 0; r < j.Cluster.WorldSize(); r++ {
				all = append(all, topo.Rank(r))
			}
			return all
		}},
	}
	for _, p := range policies {
		eng := sim.NewEngine(seed)
		job := train.MustNew(eng, train.JobConfig(Testbed(), train.ComputeHeavy))
		sampled := p.sample(job)
		// The 32-rank testbed's iteration is ~8 s, so the trigger window
		// must exceed it to avoid counting normal gaps as stalls.
		bk := core.NewBackend(eng, job.DB, sampled, core.Config{Window: 15 * time.Second})
		job.Start()
		bk.Start()
		warm := 15 * time.Second
		faults.Inject(job, faults.Spec{Kind: faults.NICDown, Rank: 17, At: warm})
		eng.RunFor(warm + 40*time.Second)
		detect := "-"
		localized := "no"
		if trs := bk.Triggers(); len(trs) > 0 {
			detect = trs[0].At.Sub(sim.Time(warm)).Round(100 * time.Millisecond).String()
		}
		if reps := bk.Reports(); len(reps) > 0 && reps[0].Suspect == 17 {
			localized = "yes"
		}
		res.Rows = append(res.Rows, []string{p.name, fmt.Sprintf("%d", len(sampled)), detect, localized})
		job.Stop()
	}
	return res
}

// Table renders the sampling sweep.
func (r E7Result) Table() string {
	return "sampling policy — NIC-down detection vs. number of monitored ranks\n" +
		Table([]string{"policy", "sampled", "detection", "localized"}, r.Rows)
}

// E8Result reproduces the threshold-tuning discussion (§9): straggler
// thresholds versus false positives on a legitimately-imbalanced job (heavy
// master rank) and missed detections on a true straggler.
type E8Result struct {
	Rows [][]string
}

// RunE8 sweeps the late-start threshold.
func RunE8(seed int64) E8Result {
	var res E8Result
	for _, late := range []time.Duration{200 * time.Millisecond, time.Second, 5 * time.Second} {
		fp := e8FalsePositives(seed, late)
		detected, correct := e8TrueStraggler(seed, late)
		res.Rows = append(res.Rows, []string{
			late.String(), fmt.Sprintf("%d", fp), yn(detected), yn(correct),
		})
	}
	return res
}

// e8FalsePositives runs a healthy master-heavy job and counts triggers that
// produce a (spurious) straggler verdict.
func e8FalsePositives(seed int64, late time.Duration) int {
	cfg := train.JobConfig(topo.Small(), train.ComputeHeavy)
	cfg.MasterExtra = 600 * time.Millisecond
	h, _ := host(seed, mycroft.JobOptions{Train: &cfg, Backend: core.Config{
		StragglerLate: late,
		// Aggressive detection settings so threshold effects show.
		ThroughputDrop: 0.85, IntervalGrow: 1.2, BadWindows: 2, RearmDelay: 10 * time.Second,
	}}, faults.Spec{}, 90*time.Second)
	fp := 0
	for _, rep := range h.Reports() {
		if rep.Suspect >= 0 && rep.Category == core.CatComputeStraggler {
			fp++
		}
	}
	return fp
}

// e8TrueStraggler injects a genuine GPU straggler and checks the verdict.
func e8TrueStraggler(seed int64, late time.Duration) (detected, correct bool) {
	warm := 15 * time.Second
	_, v := host(seed+7, mycroft.JobOptions{Topo: topo.Small(), Backend: core.Config{StragglerLate: late}},
		faults.Spec{Kind: faults.GPUSlow, Rank: 1, Severity: 6, At: warm}, warm+60*time.Second)
	return v.Trigger != nil, v.Suspect == faults.SuspectExact && v.RightCategory
}

// Table renders the threshold sweep.
func (r E8Result) Table() string {
	return "straggler threshold sweep — false positives (master-heavy job) vs. detection of a 6x GPU straggler\n" +
		Table([]string{"late-threshold", "false-positives", "straggler-detected", "verdict-correct"}, r.Rows)
}
