package replay

import (
	"fmt"
	"strings"

	"mycroft/internal/core"
)

// Drift is one positional mismatch between two outcome streams. The String
// renderings are the comparison key: the JSON encoding is proven lossless, so
// string equality is value equality, and the rendering is what an operator
// reads anyway.
type Drift struct {
	Index int
	// A and B are the two sides' renderings; "" marks a missing element
	// (one stream is shorter).
	A, B string
}

// VerdictChange is a report pair whose actionable conclusion — category,
// suspect or analysis path — changed between the two runs.
type VerdictChange struct {
	Index int
	From  core.Report
	To    core.Report
}

func (v VerdictChange) String() string {
	return fmt.Sprintf("report %d: %s rank %d via %s → %s rank %d via %s",
		v.Index, v.From.Category, v.From.Suspect, v.From.Via,
		v.To.Category, v.To.Suspect, v.To.Via)
}

// DiffReport compares two outcomes element-wise: count deltas, per-position
// drift, and the subset of report drift that changes the verdict itself.
type DiffReport struct {
	// TriggersA/B and ReportsA/B are the two sides' stream lengths.
	TriggersA, TriggersB int
	ReportsA, ReportsB   int
	// TriggerDrift and ReportDrift list every position where the streams
	// disagree (including length mismatches).
	TriggerDrift []Drift
	ReportDrift  []Drift
	// VerdictChanges is the actionable subset of ReportDrift.
	VerdictChanges []VerdictChange
}

// Diff compares outcome a (e.g. the recorded original) against b (e.g. a
// replay). Deterministic: same inputs, same report.
func Diff(a, b Outcome) *DiffReport {
	d := &DiffReport{
		TriggersA: len(a.Triggers), TriggersB: len(b.Triggers),
		ReportsA: len(a.Reports), ReportsB: len(b.Reports),
	}
	n := max(len(a.Triggers), len(b.Triggers))
	for i := 0; i < n; i++ {
		var sa, sb string
		if i < len(a.Triggers) {
			sa = a.Triggers[i].String()
		}
		if i < len(b.Triggers) {
			sb = b.Triggers[i].String()
		}
		if sa != sb {
			d.TriggerDrift = append(d.TriggerDrift, Drift{Index: i, A: sa, B: sb})
		}
	}
	n = max(len(a.Reports), len(b.Reports))
	for i := 0; i < n; i++ {
		var sa, sb string
		if i < len(a.Reports) {
			sa = a.Reports[i].String()
		}
		if i < len(b.Reports) {
			sb = b.Reports[i].String()
		}
		if sa != sb {
			d.ReportDrift = append(d.ReportDrift, Drift{Index: i, A: sa, B: sb})
		}
		if i < len(a.Reports) && i < len(b.Reports) {
			ra, rb := a.Reports[i], b.Reports[i]
			if ra.Category != rb.Category || ra.Suspect != rb.Suspect || ra.Via != rb.Via {
				d.VerdictChanges = append(d.VerdictChanges, VerdictChange{Index: i, From: ra, To: rb})
			}
		}
	}
	return d
}

// Zero reports whether the two outcomes were byte-identical.
func (d *DiffReport) Zero() bool {
	return len(d.TriggerDrift) == 0 && len(d.ReportDrift) == 0
}

// Render formats the diff as a deterministic human-readable report.
func (d *DiffReport) Render() string {
	var b strings.Builder
	if d.Zero() {
		fmt.Fprintf(&b, "zero drift: %d trigger(s), %d report(s) identical\n", d.TriggersA, d.ReportsA)
		return b.String()
	}
	fmt.Fprintf(&b, "drift: triggers %d→%d (%d position(s) differ), reports %d→%d (%d position(s) differ)\n",
		d.TriggersA, d.TriggersB, len(d.TriggerDrift), d.ReportsA, d.ReportsB, len(d.ReportDrift))
	for _, dr := range d.TriggerDrift {
		renderDrift(&b, "trigger", dr)
	}
	for _, dr := range d.ReportDrift {
		renderDrift(&b, "report", dr)
	}
	for _, vc := range d.VerdictChanges {
		fmt.Fprintf(&b, "  verdict changed — %s\n", vc)
	}
	return b.String()
}

func renderDrift(b *strings.Builder, kind string, dr Drift) {
	switch {
	case dr.B == "":
		fmt.Fprintf(b, "  %s %d only in A: %s\n", kind, dr.Index, dr.A)
	case dr.A == "":
		fmt.Fprintf(b, "  %s %d only in B: %s\n", kind, dr.Index, dr.B)
	default:
		fmt.Fprintf(b, "  %s %d:\n    A: %s\n    B: %s\n", kind, dr.Index, dr.A, dr.B)
	}
}
