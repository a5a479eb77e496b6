// Package remedy closes the loop the paper's production deployment closes:
// Mycroft's diagnoses feed the fault-tolerance machinery so jobs recover
// without a human in the loop. A Policy maps RCA verdicts (category, via,
// chain shape) to mitigation Actions; the Engine executes matched actions
// against the live job with per-rank backoff and flap-damping, then a
// verification pass watches for a quiet window — no re-detection of the same
// suspect — before marking the attempt succeeded. Every attempt lands in a
// queryable audit log, so "did the mitigation actually work?" is a first-
// class question, not a log-grep.
package remedy

import (
	"fmt"
	"time"

	"mycroft/internal/core"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// ActionKind enumerates the mitigations a policy can order.
type ActionKind string

const (
	// ActRecoverFault undoes the diagnosed fault in place: the NIC is reset,
	// the throttle lifted, the hung GPU recovered (faults.Recover semantics,
	// keyed by the verdict's category).
	ActRecoverFault ActionKind = "recover-fault"
	// ActIsolateRank cordons the suspect: its hardware is replaced wholesale
	// (every NIC/GPU knob reset) and the rank is marked isolated for the
	// operator.
	ActIsolateRank ActionKind = "isolate-rank"
	// ActRebuildComm tears down and rebuilds the implicated communicator:
	// every member rank's transport state is reset.
	ActRebuildComm ActionKind = "rebuild-communicator"
	// ActRestartJob is the big hammer: every rank's substrate is reset, as a
	// checkpoint-restore restart would.
	ActRestartJob ActionKind = "restart-job"
	// ActEscalate pages a human instead of acting. It is also what any rule
	// degrades to once its attempt budget for a rank is exhausted.
	ActEscalate ActionKind = "escalate"
)

// KnownAction reports whether k is in the action catalog.
func KnownAction(k ActionKind) bool {
	switch k {
	case ActRecoverFault, ActIsolateRank, ActRebuildComm, ActRestartJob, ActEscalate:
		return true
	}
	return false
}

// UnmarshalText refuses an action kind outside the catalog.
func (k *ActionKind) UnmarshalText(text []byte) error {
	if got := ActionKind(text); KnownAction(got) {
		*k = got
		return nil
	}
	return fmt.Errorf("remedy: unknown action kind %q", text)
}

// Action is one concrete mitigation order handed to the executor: what to
// do, to whom, and the verdict context it was derived from.
type Action struct {
	Kind     ActionKind    `json:"kind"`
	Rank     topo.Rank     `json:"rank"`
	Comm     uint64        `json:"comm"`
	Category core.Category `json:"category"`
}

func (a Action) String() string {
	return fmt.Sprintf("%s rank %d (comm %d, %s)", a.Kind, a.Rank, a.Comm, a.Category)
}

// Rule is one policy entry: match conditions over a Report, the action to
// take, and the retry/verification budget. Zero-valued conditions match
// everything; set conditions are ANDed. The JSON form is a what-if replay
// file's policy rule, which names no budget: a replay executes nothing.
type Rule struct {
	// Name labels the rule in the audit log. Defaults to the action kind.
	Name string `json:"name,omitempty"`
	// Categories restricts to verdicts with one of these categories.
	Categories []core.Category `json:"categories,omitempty"`
	// Vias restricts to verdicts reached by one of these analysis paths.
	Vias []core.Via `json:"vias,omitempty"`
	// MinChain restricts to verdicts whose causal chain has at least this
	// many hops (cross-communicator cascades).
	MinChain int `json:"min_chain,omitempty"`
	// Action is the mitigation to order.
	Action ActionKind `json:"action"`
	// MaxAttempts is this rule's failed-attempt budget per rank before it
	// escalates instead (flap damping); a verified heal restores it. Each
	// rule's budget is its own — another rule's failures do not consume it.
	// Default 2.
	MaxAttempts int `json:"-"`
	// Backoff is the minimum gap between attempts on the same rank.
	// Default 10 s.
	Backoff time.Duration `json:"-"`
	// VerifyWindow is how long after the action the suspect must stay quiet
	// (no re-detection) before the attempt counts as succeeded. It must
	// outlast the backend's re-arm delay or a persisting fault cannot be
	// observed re-triggering. Default 35 s.
	VerifyWindow time.Duration `json:"-"`
}

func (r Rule) withDefaults() Rule {
	if r.Name == "" {
		r.Name = string(r.Action)
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 2
	}
	if r.Backoff <= 0 {
		r.Backoff = 10 * time.Second
	}
	if r.VerifyWindow <= 0 {
		r.VerifyWindow = 35 * time.Second
	}
	return r
}

// matches reports whether the rule applies to a verdict.
func (r Rule) matches(rep core.Report) bool {
	if len(r.Categories) > 0 {
		ok := false
		for _, c := range r.Categories {
			if rep.Category == c {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Vias) > 0 {
		ok := false
		for _, v := range r.Vias {
			if rep.Via == v {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return len(rep.Chain) >= r.MinChain
}

// Policy is an ordered rule list; the first matching rule wins.
type Policy struct {
	// Name labels the policy in the audit log. Default "default".
	Name  string `json:"name,omitempty"`
	Rules []Rule `json:"rules"`
}

// Validate rejects structurally broken policies before they are attached.
func (p Policy) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("remedy: policy %q has no rules", p.Name)
	}
	for i, r := range p.Rules {
		if !KnownAction(r.Action) {
			return fmt.Errorf("remedy: policy %q rule %d: unknown action %q", p.Name, i, r.Action)
		}
		if r.MaxAttempts < 0 || r.Backoff < 0 || r.VerifyWindow < 0 || r.MinChain < 0 {
			return fmt.Errorf("remedy: policy %q rule %d: negative budget", p.Name, i)
		}
	}
	return nil
}

func (p Policy) withDefaults() Policy {
	if p.Name == "" {
		p.Name = "default"
	}
	rules := make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = r.withDefaults()
	}
	p.Rules = rules
	return p
}

// Match returns the first rule applying to the verdict. The remediation
// engine uses it to pick live actions; what-if replay uses it to compute the
// shadow actions an alternative policy would have ordered.
func (p Policy) Match(rep core.Report) (Rule, bool) {
	for _, r := range p.Rules {
		if r.matches(rep) {
			return r, true
		}
	}
	return Rule{}, false
}

// Outcome is the audited fate of one remediation attempt.
type Outcome string

const (
	// OutcomePending: the action was ordered; verification has not concluded.
	OutcomePending Outcome = "pending"
	// OutcomeSucceeded: the suspect stayed quiet for the full verify window.
	OutcomeSucceeded Outcome = "succeeded"
	// OutcomeFailed: the suspect was re-detected inside the verify window, or
	// the executor rejected the action.
	OutcomeFailed Outcome = "failed"
	// OutcomeEscalated: the per-rank attempt budget was exhausted (or the
	// rule orders escalation directly); a human owns the fault now.
	OutcomeEscalated Outcome = "escalated"
)

// KnownOutcome reports whether o is a valid audit-log outcome.
func KnownOutcome(o Outcome) bool {
	switch o {
	case OutcomePending, OutcomeSucceeded, OutcomeFailed, OutcomeEscalated:
		return true
	}
	return false
}

// UnmarshalText refuses an outcome outside the set.
func (o *Outcome) UnmarshalText(text []byte) error {
	if got := Outcome(text); KnownOutcome(got) {
		*o = got
		return nil
	}
	return fmt.Errorf("remedy: unknown outcome %q", text)
}

// Attempt is one audit-log entry: a single detect→act→verify cycle.
type Attempt struct {
	// ID numbers attempts per engine, in creation order.
	ID int `json:"id"`
	// Policy and Rule name what matched.
	Policy string `json:"policy"`
	Rule   string `json:"rule"`
	// Action is the mitigation that was ordered.
	Action Action `json:"action"`
	// Try is the 1-based attempt number for this rank under this rule.
	Try int `json:"try"`
	// ReportedAt is when the verdict that provoked the attempt was analyzed.
	ReportedAt sim.Time `json:"reported_at_ns"`
	// AppliedAt is when the executor ran the action (>= ReportedAt under
	// backoff). Escalations stamp it too: the page itself is the action.
	AppliedAt sim.Time `json:"applied_at_ns"`
	// ResolvedAt is when the outcome left pending: the quiet window elapsed,
	// the suspect was re-detected, or the escalation was recorded.
	ResolvedAt sim.Time `json:"resolved_at_ns"`
	// Outcome is the attempt's current fate.
	Outcome Outcome `json:"outcome"`
	// Detail is a human-readable note (re-detection reason, executor error).
	Detail string `json:"detail,omitempty"`
}

func (a Attempt) String() string {
	s := fmt.Sprintf("[%v] remedy #%d %s/%s try %d: %s — %s", a.ReportedAt, a.ID, a.Policy, a.Rule, a.Try, a.Action, a.Outcome)
	if a.Detail != "" {
		s += " (" + a.Detail + ")"
	}
	return s
}
