// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate. Each experiment returns a
// structured result with a Table() renderer; cmd/mycroft-eval prints them
// (`-only e2,abl` selects, and its testdata/tables.golden pins them all) and
// this package's tests assert every table's shape against the paper's.
//
// A case that runs the Mycroft backend hosts its job on a mycroft.Service,
// exactly as a deployment would, and reads the outcome from faults.Judge —
// the same judge the scenario runner scores with. The one exception is E7,
// which hand-wires its backend because the sampled-rank set is what it
// varies. testdata/verdict_matrix.golden pins Judge's verdict for every
// fault kind at twelve positions of a 64-rank job.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mycroft"
	"mycroft/internal/faults"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// Testbed mirrors the paper's 32-GPU evaluation cluster: 4 nodes × 8 A100s,
// TP=2, PP=4, DP=4.
func Testbed() topo.Config {
	return topo.Config{Nodes: 4, GPUsPerNode: 8, TP: 2, PP: 4, DP: 4}
}

// JobConfig forwards to train.JobConfig for bench/live.go, its one caller
// left; it goes when bench's scoring folds into faults.Judge.
func JobConfig(tc topo.Config, profile train.JobProfile) train.Config {
	return train.JobConfig(tc, profile)
}

// ComputeHeavy forwards train.ComputeHeavy alongside JobConfig.
const ComputeHeavy = train.ComputeHeavy

// host runs one job on a fresh mycroft.Service for horizon of virtual time,
// with spec injected unless its Kind is empty, and judges the injection.
// Every experiment that runs the Mycroft backend goes through it except E7,
// which chooses the sampled ranks itself.
func host(seed int64, opts mycroft.JobOptions, spec faults.Spec, horizon time.Duration) (*mycroft.JobHandle, faults.Verdict) {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: seed})
	h := svc.MustAddJob("", opts)
	svc.Start()
	if spec.Kind != "" {
		h.Inject(spec)
	}
	svc.Run(horizon)
	return h, faults.Judge(spec, h.Job.Cluster, h.Triggers(), h.Reports())
}

// CaseResult is the outcome of one fault-injection run: the spec as
// injected (severity and time filled in) and faults.Judge's verdict on it.
type CaseResult struct {
	Spec faults.Spec
	faults.Verdict
}

// RunCase executes one fault-injection scenario on a fresh Service, on the
// workload mix and at the severity faults.ProfileFor and faults.SeverityFor
// pick for the kind. warmup is the healthy period before injection;
// deadline bounds how long after injection we wait for a verdict. The
// canonical NIC-down case is also the "nic-down" builtin of
// internal/scenario, which shares this tuning and this judge.
func RunCase(seed int64, tc topo.Config, spec faults.Spec, warmup, deadline time.Duration) CaseResult {
	if spec.Severity == 0 {
		spec.Severity = faults.SeverityFor(spec.Kind)
	}
	spec.At = warmup
	opts := mycroft.JobOptions{Topo: tc, CommHeavy: faults.ProfileFor(spec.Kind) == train.CommHeavy}
	_, v := host(seed, opts, spec, warmup+deadline)
	return CaseResult{Spec: spec, Verdict: v}
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
