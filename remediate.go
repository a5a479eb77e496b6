package mycroft

import (
	"fmt"
	"slices"
	"time"

	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Remediation types, re-exported so downstream users need only this package.
type (
	// RemedyPolicy maps report shapes to mitigation actions (first matching
	// rule wins).
	RemedyPolicy = remedy.Policy
	// RemedyRule is one policy entry: match conditions, action, retry budget.
	RemedyRule = remedy.Rule
	// RemedyActionKind enumerates the mitigations a rule can order.
	RemedyActionKind = remedy.ActionKind
	// RemedyAttempt is one audit-log entry: a detect→act→verify cycle.
	RemedyAttempt = remedy.Attempt
	// RemedyOutcome is the audited fate of an attempt.
	RemedyOutcome = remedy.Outcome
)

// Remediation actions.
const (
	RemedyRecoverFault = remedy.ActRecoverFault
	RemedyIsolateRank  = remedy.ActIsolateRank
	RemedyRebuildComm  = remedy.ActRebuildComm
	RemedyRestartJob   = remedy.ActRestartJob
	RemedyEscalate     = remedy.ActEscalate
)

// Remediation outcomes.
const (
	RemedyPending   = remedy.OutcomePending
	RemedySucceeded = remedy.OutcomeSucceeded
	RemedyFailed    = remedy.OutcomeFailed
	RemedyEscalated = remedy.OutcomeEscalated
)

// SelfHealPolicy is the tuned self-healing rule set the builtin scenarios,
// the mycroft-trace remedy CLI and BenchmarkRemediationLoop all share:
// in-place recovery and straggler isolation with tight budgets, sized for a
// job whose BackendConfig.RearmDelay is lowered to ~10 s (scenario knob
// fleet.rearm) so a failed mitigation is re-detected inside the 15 s verify
// window.
func SelfHealPolicy() RemedyPolicy {
	return RemedyPolicy{Name: "self-heal", Rules: []RemedyRule{
		{
			Name:       "recover",
			Categories: []Category{CatNetworkSendPath, CatNetworkDegrade, CatGPUHang, CatPCIeDegrade},
			Action:     RemedyRecoverFault, MaxAttempts: 3,
			Backoff: 5 * time.Second, VerifyWindow: 15 * time.Second,
		},
		{
			Name:       "replace-straggler",
			Categories: []Category{CatComputeStraggler},
			Action:     RemedyIsolateRank, MaxAttempts: 2,
			Backoff: 5 * time.Second, VerifyWindow: 15 * time.Second,
		},
	}}
}

// AttachPolicy arms closed-loop remediation for one hosted job: every
// subsequent verdict is matched against the policy, matched actions are
// executed against the live job, each attempt is verified by a quiet window
// and audited. Attempt transitions are published as EventAction events.
// A job holds at most one policy; attaching a second is an error.
func (s *Service) AttachPolicy(job JobID, p RemedyPolicy) error {
	h, err := s.resolveJob(job)
	if err != nil {
		return err
	}
	if h.remedy != nil {
		return fmt.Errorf("mycroft: job %q already has policy %q attached", h.ID, h.remedy.Policy().Name)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	h.remedy = remedy.New(s.Eng, p, h.applyRemedy, func(a RemedyAttempt) {
		s.observeRemedyMetrics(h.ID, a)
		s.dispatch(Event{Job: h.ID, Kind: EventAction, At: s.Now(), Action: &a})
	})
	h.remedy.SetTracer(h.tracer)
	return nil
}

// observeRemedy feeds backend events into the job's remediation loop (the
// dispatch hook; a no-op for jobs without a policy).
func (h *JobHandle) observeRemedy(e Event) {
	if h.remedy == nil {
		return
	}
	switch e.Kind {
	case EventTrigger:
		h.remedy.ObserveTrigger(*e.Trigger)
	case EventReport:
		h.remedy.ObserveReport(*e.Report)
	}
}

// RemediationLog returns the job's audit log: every detect→act→verify
// attempt so far, in attempt order (empty without an attached policy).
func (h *JobHandle) RemediationLog() []RemedyAttempt {
	if h.remedy == nil {
		return nil
	}
	return h.remedy.Log()
}

// Isolated lists ranks the remediation loop has cordoned, in isolation
// order.
func (h *JobHandle) Isolated() []Rank { return append([]Rank(nil), h.isolated...) }

// applyRemedy is the remedy.Applier: it carries one ordered mitigation out
// against the simulated substrate.
func (h *JobHandle) applyRemedy(a remedy.Action) error {
	switch a.Kind {
	case remedy.ActRecoverFault:
		k, ok := recoverKindFor(a.Category)
		if !ok {
			return fmt.Errorf("category %s has no in-place recovery", a.Category)
		}
		faults.Recover(h.Job, faults.Spec{Kind: k, Rank: a.Rank})
	case remedy.ActIsolateRank:
		h.resetRank(a.Rank)
		if !slices.Contains(h.isolated, a.Rank) {
			h.isolated = append(h.isolated, a.Rank)
		}
	case remedy.ActRebuildComm:
		comm := h.Job.CommOf(a.Comm)
		if comm == nil {
			return fmt.Errorf("no communicator %d", a.Comm)
		}
		for _, r := range comm.Ranks() {
			h.resetRank(r)
		}
	case remedy.ActRestartJob:
		for r := 0; r < h.WorldSize(); r++ {
			h.resetRank(Rank(r))
		}
	case remedy.ActEscalate:
		// Bookkeeping only: the audit log (and any EventAction subscriber)
		// is the page.
	default:
		return fmt.Errorf("unknown action %q", a.Kind)
	}
	return nil
}

// resetRank models swapping the rank onto healthy hardware: every injected
// NIC/GPU degradation is cleared.
func (h *JobHandle) resetRank(r Rank) {
	if int(r) < 0 || int(r) >= h.WorldSize() {
		return
	}
	nic := h.Job.NICs[r]
	nic.SetDown(false)
	nic.SetWireLoss(false)
	nic.SetBandwidthScale(1)
	gpu := h.Job.GPUs[r]
	gpu.SetHang(false)
	gpu.SetSlowFactor(1)
	gpu.SetCopyBandwidthScale(1)
}

// recoverKindFor maps an RCA category to the recoverable fault kind whose
// undo mitigates it. Categories rooted outside the CCL (proxy crash,
// op-not-launched, unknown) have no in-place recovery.
func recoverKindFor(c Category) (faults.Kind, bool) {
	switch c {
	case core.CatNetworkSendPath:
		return faults.NICDown, true
	case core.CatNetworkDegrade:
		return faults.NICDegrade, true
	case core.CatGPUHang:
		return faults.GPUHang, true
	case core.CatPCIeDegrade:
		return faults.PCIeDegrade, true
	case core.CatComputeStraggler:
		return faults.GPUSlow, true
	}
	return "", false
}

// RemediationQuery asks for audit-log attempts across hosted jobs.
type RemediationQuery struct {
	// Jobs restricts to these hosted jobs (nil = all).
	Jobs []JobID `json:"jobs,omitempty"`
	// Ranks restricts to attempts acting on these ranks.
	Ranks []Rank `json:"ranks,omitempty"`
	// Actions restricts to these mitigation kinds.
	Actions []RemedyActionKind `json:"actions,omitempty"`
	// Outcomes restricts to these audited fates.
	Outcomes []RemedyOutcome `json:"outcomes,omitempty"`
	// From and To bound the attempt's report time, inclusive. To 0 means
	// unbounded.
	From time.Duration `json:"from_ns,omitempty"`
	To   time.Duration `json:"to_ns,omitempty"`
	// Offset and Limit paginate the matched set (Limit 0 = everything).
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// JobRemediation is an audit-log attempt tagged with its job.
type JobRemediation struct {
	Job           JobID `json:"job"`
	RemedyAttempt `json:"attempt"`
}

// RemediationResult is one page of matches, ordered by report time (job
// arrival order breaks ties). Total counts all matches before pagination;
// NextOffset is -1 when this page exhausted them.
type RemediationResult struct {
	Attempts   []JobRemediation `json:"attempts"`
	Total      int              `json:"total"`
	NextOffset int              `json:"next_offset"`
}

// QueryRemediations answers a RemediationQuery across the selected jobs.
func (s *Service) QueryRemediations(q RemediationQuery) (RemediationResult, error) {
	jobs, err := s.selectJobs(q.Jobs)
	if err != nil {
		return RemediationResult{}, err
	}
	return q.over(jobs), nil
}

// over answers the query from the given jobs' audit logs.
func (q RemediationQuery) over(jobs []jobLog) RemediationResult {
	var all []JobRemediation
	for _, j := range jobs {
		for _, a := range j.RemediationLog() {
			if len(q.Ranks) > 0 && !slices.Contains(q.Ranks, topo.Rank(a.Action.Rank)) {
				continue
			}
			if len(q.Actions) > 0 && !slices.Contains(q.Actions, a.Action.Kind) {
				continue
			}
			if len(q.Outcomes) > 0 && !slices.Contains(q.Outcomes, a.Outcome) {
				continue
			}
			if !inWindow(time.Duration(a.ReportedAt), q.From, q.To) {
				continue
			}
			all = append(all, JobRemediation{Job: j.id, RemedyAttempt: a})
		}
	}
	return q.page(all)
}

// page orders the matches by report time and cuts the query's page.
func (q RemediationQuery) page(all []JobRemediation) RemediationResult {
	page, total, next := mergePage(all, func(a JobRemediation) sim.Time { return a.ReportedAt }, q.Offset, q.Limit)
	return RemediationResult{Attempts: page, Total: total, NextOffset: next}
}
