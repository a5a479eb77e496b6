// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate. Each experiment returns a
// structured result with a Table() renderer; cmd/mycroft-eval prints them
// (`-only e2,abl` selects) and this package's tests assert every table's
// shape against the paper's.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mycroft/internal/collector"
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// Testbed mirrors the paper's 32-GPU evaluation cluster: 4 nodes × 8 A100s,
// TP=2, PP=4, DP=4.
func Testbed() topo.Config {
	return topo.Config{Nodes: 4, GPUsPerNode: 8, TP: 2, PP: 4, DP: 4}
}

// SmallTestbed is the 8-GPU shape used where many runs are needed.
func SmallTestbed() topo.Config {
	return topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2}
}

// JobProfile selects the workload mix.
type JobProfile int

const (
	// ComputeHeavy: iteration dominated by compute (failure-class faults).
	ComputeHeavy JobProfile = iota
	// CommHeavy: iteration dominated by collective time (degradation-class
	// faults, bandwidth experiments).
	CommHeavy
)

// JobConfig builds a train.Config for a topology and profile.
func JobConfig(tc topo.Config, profile JobProfile) train.Config {
	cfg := train.Config{
		Topo:            tc,
		LayersPerStage:  2,
		TPBytesPerLayer: 32 << 20,
		PPBytes:         16 << 20,
		Collector:       collector.Config{DrainPeriod: 50 * time.Millisecond, UploadLatency: 500 * time.Millisecond},
	}
	switch profile {
	case CommHeavy:
		cfg.ComputePerLayer = 100 * time.Millisecond
		cfg.DPBytes = 1 << 30
	default:
		cfg.ComputePerLayer = 300 * time.Millisecond
		cfg.DPBytes = 256 << 20
	}
	return cfg
}

// ProfileFor picks the workload mix a fault class needs to be measurable.
// The scenario engine shares this tuning so declarative runs match the
// campaigns.
func ProfileFor(k faults.Kind) JobProfile {
	switch k {
	case faults.NICDegrade, faults.PCIeDegrade:
		return CommHeavy
	default:
		return ComputeHeavy
	}
}

// SeverityFor returns the per-kind default severity used by the campaigns
// (tuned so every class is detectable on the small testbed). Zero means
// "use the faults package default".
func SeverityFor(k faults.Kind) float64 {
	switch k {
	case faults.NICDegrade:
		return 0.01
	case faults.PCIeDegrade:
		return 0.001
	case faults.GPUSlow:
		return 6
	default:
		return 0
	}
}

// CaseResult is the outcome of one fault-injection run.
type CaseResult struct {
	Spec          faults.Spec
	Detected      bool
	DetectLatency time.Duration
	RCADone       bool
	RCALatency    time.Duration
	Trigger       core.Trigger
	Report        core.Report
	SuspectOK     bool
	CategoryOK    bool
}

// RunCase executes one fault-injection scenario on a fresh job and backend.
// warmup is the healthy period before injection; deadline bounds how long
// after injection we wait for a verdict. The canonical NIC-down case is
// also available declaratively as the "nic-down" builtin of
// internal/scenario, which shares this harness's ProfileFor/SeverityFor
// tuning.
func RunCase(seed int64, tc topo.Config, spec faults.Spec, warmup, deadline time.Duration) CaseResult {
	eng := sim.NewEngine(seed)
	job := train.MustNew(eng, JobConfig(tc, ProfileFor(spec.Kind)))
	bk := core.NewBackend(eng, job.DB, core.SampleRanks(job.Cluster.DPGroups(), 10), core.Config{})
	job.Start()
	bk.Start()
	if spec.Severity == 0 {
		spec.Severity = SeverityFor(spec.Kind)
	}
	spec.At = warmup
	faults.Inject(job, spec)
	faultAt := sim.Time(warmup)
	eng.RunFor(warmup + deadline)

	res := CaseResult{Spec: spec}
	if trs := bk.Triggers(); len(trs) > 0 {
		res.Detected = true
		res.Trigger = trs[0]
		res.DetectLatency = trs[0].At.Sub(faultAt)
	}
	if reps := bk.Reports(); len(reps) > 0 {
		res.RCADone = true
		res.Report = reps[0]
		res.RCALatency = reps[0].AnalyzedAt.Sub(faultAt)
		exp := faults.Expect(spec.Kind)
		res.SuspectOK = !exp.LocalizeRank || reps[0].Suspect == spec.Rank
		res.CategoryOK = exp.CategoryOK(reps[0].Category)
	}
	job.Stop()
	return res
}

// Table renders rows with aligned columns.
func Table(headers []string, rows [][]string) string {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func dur(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(10 * time.Millisecond).String()
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func mark(b bool) string {
	if b {
		return "v"
	}
	return "x"
}

func gbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f GB/s", bytesPerSec/1e9)
}
