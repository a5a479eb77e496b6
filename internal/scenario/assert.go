package scenario

import (
	"fmt"
	"slices"

	"mycroft/internal/core"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// evaluate checks every assertion against the run, expanding Job == -1 over
// the whole fleet. It returns the number of checks performed and the
// failure messages.
func evaluate(spec Spec, res *Result) (checked int, failures []string) {
	for ai, a := range spec.Assertions {
		for ji := range res.Jobs {
			if a.Job != -1 && a.Job != ji {
				continue
			}
			checked++
			if msg := checkJob(a, &res.Jobs[ji]); msg != "" {
				failures = append(failures, fmt.Sprintf("assertion %d (%s) job %d: %s", ai, a.Kind, ji, msg))
			}
		}
	}
	return checked, failures
}

// checkJob evaluates one assertion against one job; "" means pass.
func checkJob(a Assertion, j *JobResult) string {
	switch a.Kind {
	case AssertDetected:
		inj, v, ok := j.injectionAt(a.Event)
		if !ok {
			return fmt.Sprintf("no injection %d (job saw %d)", a.Event, len(j.injected))
		}
		// Only triggers of a kind the fault's expectation accepts count:
		// a residual firing of the wrong kind from an earlier fault must
		// not pass as detection of this one.
		if v.Detected == nil {
			return fmt.Sprintf("no acceptable trigger after %s", inj)
		}
		if late := v.Detected.At.Sub(sim.Time(inj.At)); a.Within > 0 && late > a.Within.D() {
			return fmt.Sprintf("first acceptable trigger after %s came %v late (bound %v)", inj, late, a.Within)
		}
		return ""

	case AssertDiagnosed:
		inj, v, ok := j.injectionAt(a.Event)
		if !ok {
			return fmt.Sprintf("no injection %d (job saw %d)", a.Event, len(j.injected))
		}
		switch {
		case v.Diagnosed == nil && v.Report == nil:
			return fmt.Sprintf("%s not diagnosed: no report", inj)
		case v.Diagnosed == nil:
			return fmt.Sprintf("%s not diagnosed: first report names rank %d (%s) with category %s", inj, v.Report.Suspect, v.Suspect, v.Report.Category)
		}
		if late := v.Diagnosed.AnalyzedAt.Sub(sim.Time(inj.At)); a.Within > 0 && late > a.Within.D() {
			return fmt.Sprintf("%s not diagnosed: report came %v after injection (bound %v)", inj, late, a.Within)
		}
		return ""

	case AssertCategory:
		for _, rep := range j.reports {
			for _, c := range a.Categories {
				if rep.Category == c {
					return ""
				}
			}
		}
		return fmt.Sprintf("no report with category in %v (%d reports)", a.Categories, len(j.reports))

	case AssertSuspect:
		for _, rep := range j.reports {
			if rep.Suspect == topo.Rank(a.Rank) {
				return ""
			}
		}
		return fmt.Sprintf("no report naming rank %d", a.Rank)

	case AssertNoFalseTrigger:
		first, any := j.injected.First()
		for _, tr := range j.triggers {
			if !any || tr.At < sim.Time(first) {
				return fmt.Sprintf("trigger before any fault: %v", tr)
			}
		}
		return ""

	case AssertMinReports:
		if len(j.reports) < a.Min {
			return fmt.Sprintf("%d reports, want >= %d", len(j.reports), a.Min)
		}
		return ""

	case AssertMinRecords:
		if j.Records < uint64(a.Min) {
			return fmt.Sprintf("%d records ingested, want >= %d", j.Records, a.Min)
		}
		return ""

	case AssertMinIterations:
		if j.Iterations < a.Min {
			return fmt.Sprintf("%d iterations, want >= %d", j.Iterations, a.Min)
		}
		return ""

	case AssertChain:
		best := 0
		for _, rep := range j.reports {
			if len(rep.Chain) >= a.Min {
				return ""
			}
			if len(rep.Chain) > best {
				best = len(rep.Chain)
			}
		}
		return fmt.Sprintf("no report with a >= %d-hop chain (longest %d of %d reports)", a.Min, best, len(j.reports))

	case AssertVictims:
		var last string
		for _, rep := range j.reports {
			if len(rep.Victims) < a.Min {
				last = fmt.Sprintf("%d victims, want >= %d", len(rep.Victims), a.Min)
				continue
			}
			missing := -1
			for _, want := range a.Victims {
				if !slices.Contains(rep.Victims, topo.Rank(want)) {
					missing = want
					break
				}
			}
			if missing >= 0 {
				last = fmt.Sprintf("blast radius %v lacks rank %d", rep.Victims, missing)
				continue
			}
			return ""
		}
		if last == "" {
			last = "no reports"
		}
		return fmt.Sprintf("no report with the expected blast radius: %s", last)

	case AssertRemediation:
		matches := 0
		for _, att := range j.remediations {
			if a.Action != "" && att.Action.Kind != a.Action {
				continue
			}
			if a.Rank != -1 && att.Action.Rank != topo.Rank(a.Rank) {
				continue
			}
			if len(a.Outcomes) > 0 && !slices.Contains(a.Outcomes, att.Outcome) {
				continue
			}
			matches++
		}
		if a.None {
			if matches > 0 {
				return fmt.Sprintf("%d matching remediation attempt(s), want none", matches)
			}
			return ""
		}
		min := a.Min
		if min <= 0 {
			min = 1
		}
		if matches < min {
			return fmt.Sprintf("%d matching remediation attempt(s), want >= %d (log has %d)", matches, min, len(j.remediations))
		}
		return ""

	case AssertChannel:
		info, ok := j.channelInfo(a.Channel)
		if !ok {
			return fmt.Sprintf("no %q channel stats (job reported %d channels)", a.Channel, len(j.channels.Channels))
		}
		if a.None {
			if info.Anomalies != 0 || info.Reports != 0 {
				return fmt.Sprintf("channel %s not quiet: %d anomalies, %d reports", a.Channel, info.Anomalies, info.Reports)
			}
			return ""
		}
		min := a.Min
		if min <= 0 {
			min = 1
		}
		if info.Anomalies < uint64(min) {
			return fmt.Sprintf("channel %s saw %d anomalies, want >= %d", a.Channel, info.Anomalies, min)
		}
		if info.Reports < uint64(a.Reports) {
			return fmt.Sprintf("channel %s delivered %d reports, want >= %d", a.Channel, info.Reports, a.Reports)
		}
		return ""

	case AssertModality:
		m := core.Modality(a.Channel)
		var last string
		for _, rep := range j.reports {
			if !rep.HasEvidence(m) {
				continue
			}
			if a.MinConfidence > 0 && rep.Confidence < a.MinConfidence {
				last = fmt.Sprintf("confidence %.3f below %.3f", rep.Confidence, a.MinConfidence)
				continue
			}
			if a.Outcome != "" && rep.FusionOutcome() != a.Outcome {
				last = fmt.Sprintf("fusion outcome %s, want %s", rep.FusionOutcome(), a.Outcome)
				continue
			}
			return ""
		}
		if last == "" {
			last = fmt.Sprintf("no report carries %s evidence (%d reports)", a.Channel, len(j.reports))
		}
		return fmt.Sprintf("no report satisfies the %s-evidence expectation: %s", a.Channel, last)

	case AssertNoRecords:
		if j.Records != 0 {
			return fmt.Sprintf("%d trace records ingested, want a tracepoint-free run", j.Records)
		}
		return ""

	case AssertRecovered:
		// The loop closed: a succeeded attempt on the rank, after whose
		// verification the suspect never came back — no trigger fired by the
		// rank and no verdict naming it.
		var healed *remedy.Attempt
		for i := range j.remediations {
			att := &j.remediations[i]
			if att.Outcome == remedy.OutcomeSucceeded && (a.Rank == -1 || att.Action.Rank == topo.Rank(a.Rank)) {
				healed = att
			}
		}
		if healed == nil {
			return fmt.Sprintf("no succeeded remediation for rank %d (log has %d attempts)", a.Rank, len(j.remediations))
		}
		for _, tr := range j.triggers {
			if tr.Rank == healed.Action.Rank && tr.At > healed.ResolvedAt {
				return fmt.Sprintf("suspect re-triggered after verification: %v", tr)
			}
		}
		for _, rep := range j.reports {
			if rep.Suspect == healed.Action.Rank && rep.AnalyzedAt > healed.ResolvedAt {
				return fmt.Sprintf("suspect re-detected after verification: %v", rep)
			}
		}
		return ""
	}
	return fmt.Sprintf("unknown assertion kind %q", a.Kind)
}
