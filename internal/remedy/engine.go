package remedy

import (
	"fmt"

	"mycroft/internal/core"
	"mycroft/internal/otrace"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Applier executes one mitigation against the live job. It returns an error
// when the action cannot be carried out (no recoverable mapping for the
// category, say); the engine audits that as a failed attempt.
type Applier func(Action) error

// rankState is the engine's per-suspect-rank loop state.
type rankState struct {
	// fails counts failed attempts per rule name since the last verified
	// heal (each rule's flap-damping budget is its own).
	fails map[string]int
	// nextAllowed is the earliest time another attempt may apply (backoff).
	nextAllowed sim.Time
	// pending is the attempt awaiting verification, by audit-log index; -1
	// when none.
	pending int
	// escalated latches once a budget is exhausted: the rank belongs to a
	// human and the engine stops acting on it.
	escalated bool
}

// Engine is the closed-loop remediation driver for one job: it consumes the
// backend's verdicts, orders policy-matched actions through the Applier,
// and verifies each attempt by watching for re-detections of the same
// suspect. All scheduling rides the job's deterministic sim engine, so
// remediation replays bit-for-bit with the run.
type Engine struct {
	eng    *sim.Engine
	policy Policy
	apply  Applier
	emit   func(Attempt) // audit-log transition hook (may be nil)

	state map[topo.Rank]*rankState
	log   []Attempt

	tracer *otrace.Recorder
	// spans tracks the open apply/verify spans per audit-log index, plus the
	// incident cause active when the attempt started — so a terminal
	// transition closes exactly its own incident root, not a newer trigger's.
	spans map[int]*attemptSpans
}

// attemptSpans is the span bookkeeping for one in-flight attempt.
type attemptSpans struct {
	apply  otrace.SpanID
	verify otrace.SpanID
	cause  string
}

// SetTracer attaches (or with nil, detaches) the job's span recorder: each
// attempt then records a remedy-apply span (verdict→action, the backoff
// window) and a remedy-verify span (action→outcome, the quiet window), and
// a terminal outcome closes the owning incident's root span.
func (e *Engine) SetTracer(r *otrace.Recorder) { e.tracer = r }

// New builds an engine for one job. The policy must have been Validated;
// emit (optional) observes every audit-log transition — the service layer
// publishes it as an EventAction.
func New(eng *sim.Engine, p Policy, apply Applier, emit func(Attempt)) *Engine {
	if apply == nil {
		panic("remedy: nil applier")
	}
	return &Engine{eng: eng, policy: p.withDefaults(), apply: apply, emit: emit, state: make(map[topo.Rank]*rankState), spans: make(map[int]*attemptSpans)}
}

// Policy returns the effective (defaulted) policy.
func (e *Engine) Policy() Policy { return e.policy }

// Log returns a copy of the audit log, in attempt order.
func (e *Engine) Log() []Attempt { return append([]Attempt(nil), e.log...) }

func (e *Engine) rank(r topo.Rank) *rankState {
	st := e.state[r]
	if st == nil {
		st = &rankState{fails: make(map[string]int), pending: -1}
		e.state[r] = st
	}
	return st
}

func (e *Engine) transition(idx int, outcome Outcome, detail string) {
	a := &e.log[idx]
	a.Outcome = outcome
	if outcome != OutcomePending {
		a.ResolvedAt = e.eng.Now()
	}
	if detail != "" {
		a.Detail = detail
	}
	if e.emit != nil {
		e.emit(*a)
	}
	// Spans close after emit so the terminal EventAction's own fan-out span
	// still parents under the incident tree it resolves.
	if outcome != OutcomePending {
		e.closeSpans(idx, a.ResolvedAt, outcome)
	}
}

// closeSpans ends an attempt's open apply/verify spans at its resolution
// time and, when the attempt belongs to the currently active incident,
// closes the incident root — the end of the tree the trigger opened.
func (e *Engine) closeSpans(idx int, at sim.Time, outcome Outcome) {
	t := e.tracer
	if t == nil {
		return
	}
	if as := e.spans[idx]; as != nil {
		if as.apply != 0 {
			t.EndAt(as.apply, at)
		}
		if as.verify != 0 {
			t.Annotate(as.verify, "", fmt.Sprint(outcome))
			t.EndAt(as.verify, at)
		}
		if _, cause := t.Incident(); cause != "" && cause == as.cause {
			t.CloseIncident(at)
		}
		delete(e.spans, idx)
	} else if _, cause := t.Incident(); cause != "" {
		// An attempt with no spans of its own (an escalation) still ends
		// the incident it answered.
		t.CloseIncident(at)
	}
}

// ObserveTrigger feeds one Algorithm 1 firing. A trigger on a rank whose
// attempt is mid-verification is the fast failure signal: the fault came
// back before the quiet window elapsed.
func (e *Engine) ObserveTrigger(tr core.Trigger) {
	st := e.state[tr.Rank]
	if st == nil || st.pending < 0 {
		return
	}
	a := e.log[st.pending]
	if a.Outcome != OutcomePending || a.AppliedAt == 0 || tr.At <= a.AppliedAt {
		return
	}
	e.failPending(tr.Rank, fmt.Sprintf("re-triggered at %v: %s", tr.At, tr.Reason))
}

// ObserveReport feeds one Algorithm 2 verdict: the loop's input. A verdict
// re-naming a suspect under verification fails the pending attempt first,
// then (budget permitting) starts the next one.
func (e *Engine) ObserveReport(rep core.Report) {
	if rep.Suspect < 0 {
		// An un-localized verdict cannot be acted on, but a rule ordering
		// escalation must still page — the least-diagnosable faults are
		// exactly the ones a human needs to hear about.
		if rule, ok := e.policy.Match(rep); ok && rule.Action == ActEscalate {
			e.escalate(rule, rep, e.rank(rep.Suspect))
		}
		return
	}
	st := e.rank(rep.Suspect)
	if st.escalated {
		return
	}
	if st.pending >= 0 {
		a := e.log[st.pending]
		if a.AppliedAt == 0 || rep.AnalyzedAt <= a.AppliedAt {
			// The action has not applied yet (backoff) or this verdict is the
			// one that provoked it; one attempt in flight per rank.
			return
		}
		e.failPending(rep.Suspect, fmt.Sprintf("re-detected at %v as %s via %s", rep.AnalyzedAt, rep.Category, rep.Via))
	}
	rule, ok := e.policy.Match(rep)
	if !ok {
		return
	}
	if rule.Action == ActEscalate || st.fails[rule.Name] >= rule.MaxAttempts {
		e.escalate(rule, rep, st)
		return
	}
	idx := len(e.log)
	e.log = append(e.log, Attempt{
		ID: idx, Policy: e.policy.Name, Rule: rule.Name,
		Action:     Action{Kind: rule.Action, Rank: rep.Suspect, Comm: rep.CommID, Category: rep.Category},
		Try:        st.fails[rule.Name] + 1,
		ReportedAt: rep.AnalyzedAt, Outcome: OutcomePending,
	})
	st.pending = idx
	if t := e.tracer; t != nil {
		_, cause := t.Incident()
		id := t.StageAt(otrace.StageApply, rep.AnalyzedAt)
		t.Annotate(id, "", fmt.Sprintf("%s: %s rank %d (try %d)", rule.Name, rule.Action, rep.Suspect, st.fails[rule.Name]+1))
		e.spans[idx] = &attemptSpans{apply: id, cause: cause}
	}
	now := e.eng.Now()
	if st.nextAllowed > now {
		e.eng.After(st.nextAllowed.Sub(now), func() { e.applyAttempt(idx, rule) })
		return
	}
	e.applyAttempt(idx, rule)
}

// applyAttempt runs the executor and arms the verification window.
func (e *Engine) applyAttempt(idx int, rule Rule) {
	a := &e.log[idx]
	if a.Outcome != OutcomePending {
		return // resolved while waiting out the backoff
	}
	st := e.rank(a.Action.Rank)
	a.AppliedAt = e.eng.Now()
	st.nextAllowed = a.AppliedAt.Add(rule.Backoff)
	if err := e.apply(a.Action); err != nil {
		e.failPending(a.Action.Rank, fmt.Sprintf("executor rejected: %v", err))
		return
	}
	if t := e.tracer; t != nil {
		if as := e.spans[idx]; as != nil {
			t.EndAt(as.apply, a.AppliedAt)
			as.apply = 0
			as.verify = t.StageAt(otrace.StageVerify, a.AppliedAt)
		}
	}
	e.transition(idx, OutcomePending, "") // applied: publish the pending entry
	e.eng.After(rule.VerifyWindow, func() {
		if st.pending != idx || e.log[idx].Outcome != OutcomePending {
			return // already failed (and possibly superseded)
		}
		st.pending = -1
		st.fails = make(map[string]int) // a verified heal restores every budget
		e.transition(idx, OutcomeSucceeded, fmt.Sprintf("quiet for %v after action", rule.VerifyWindow))
	})
}

// failPending resolves the rank's in-flight attempt as failed and charges
// the owning rule's flap-damping budget.
func (e *Engine) failPending(r topo.Rank, detail string) {
	st := e.rank(r)
	if st.pending < 0 {
		return
	}
	idx := st.pending
	st.pending = -1
	st.fails[e.log[idx].Rule]++
	e.transition(idx, OutcomeFailed, detail)
}

// escalate records an escalation. Budget exhaustion latches the rank — the
// loop gives it up to a human and ignores further verdicts. A rule that
// orders escalation outright does NOT latch: it pages per detection (the
// backend's re-arm delay paces the reports), so a later fault on the same
// rank that an earlier rule CAN mitigate still self-heals. The executor
// sees every escalation so the job layer can page/cordon.
func (e *Engine) escalate(rule Rule, rep core.Report, st *rankState) {
	idx := len(e.log)
	act := Action{Kind: ActEscalate, Rank: rep.Suspect, Comm: rep.CommID, Category: rep.Category}
	var detail string
	if rule.Action == ActEscalate {
		detail = "rule orders escalation"
	} else {
		st.escalated = true
		detail = fmt.Sprintf("%d failed attempt(s) exhausted budget %d", st.fails[rule.Name], rule.MaxAttempts)
	}
	if err := e.apply(act); err != nil {
		detail += fmt.Sprintf("; executor: %v", err)
	}
	e.log = append(e.log, Attempt{
		ID: idx, Policy: e.policy.Name, Rule: rule.Name, Action: act, Try: st.fails[rule.Name] + 1,
		ReportedAt: rep.AnalyzedAt, AppliedAt: e.eng.Now(), Outcome: OutcomePending,
	})
	e.transition(idx, OutcomeEscalated, detail)
}
