package replay

import (
	"fmt"
	"io"
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Overrides is the what-if knob set: every field nil-or-set so JSON absence
// keeps the recorded value. Only thresholds that do not change *when*
// Algorithm 1 ran are overridable — evaluation instants are recorded facts
// (the Interval is therefore not here), while everything about what a pass
// concludes at those instants is fair game.
type Overrides struct {
	WindowNs           *int64   `json:"window_ns,omitempty"`
	ThroughputDrop     *float64 `json:"throughput_drop,omitempty"`
	IntervalGrow       *float64 `json:"interval_grow,omitempty"`
	StragglerLateNs    *int64   `json:"straggler_late_ns,omitempty"`
	LateCount          *int     `json:"late_count,omitempty"`
	StateFreshNs       *int64   `json:"state_fresh_ns,omitempty"`
	StragglerWindowNs  *int64   `json:"straggler_window_ns,omitempty"`
	StragglerSettleNs  *int64   `json:"straggler_settle_ns,omitempty"`
	RearmNs            *int64   `json:"rearm_ns,omitempty"`
	MinBaselineSamples *int     `json:"min_baseline_samples,omitempty"`
	BadWindows         *int     `json:"bad_windows,omitempty"`
	BadWindowSpan      *int     `json:"bad_window_span,omitempty"`
	FlowPressureFrac   *float64 `json:"flow_pressure_frac,omitempty"`
	ChaseDepth         *int     `json:"chase_depth,omitempty"`
}

// Zero reports whether no override is set.
func (o *Overrides) Zero() bool { return o == nil || *o == (Overrides{}) }

// apply layers the set fields over cfg.
func (o *Overrides) apply(cfg core.Config) core.Config {
	if o == nil {
		return cfg
	}
	setD := func(dst *time.Duration, src *int64) {
		if src != nil {
			*dst = time.Duration(*src)
		}
	}
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setI := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setD(&cfg.Window, o.WindowNs)
	setF(&cfg.ThroughputDrop, o.ThroughputDrop)
	setF(&cfg.IntervalGrow, o.IntervalGrow)
	setD(&cfg.StragglerLate, o.StragglerLateNs)
	setI(&cfg.LateCount, o.LateCount)
	setD(&cfg.StateFresh, o.StateFreshNs)
	setD(&cfg.StragglerWindow, o.StragglerWindowNs)
	setD(&cfg.StragglerSettle, o.StragglerSettleNs)
	setD(&cfg.RearmDelay, o.RearmNs)
	setI(&cfg.MinBaselineSamples, o.MinBaselineSamples)
	setI(&cfg.BadWindows, o.BadWindows)
	setI(&cfg.BadWindowSpan, o.BadWindowSpan)
	setF(&cfg.FlowPressureFrac, o.FlowPressureFrac)
	setI(&cfg.ChaseDepth, o.ChaseDepth)
	return cfg
}

// PolicySpec is the JSON form of a what-if remediation policy, mirroring the
// scenario file's remediate stanza.
type PolicySpec struct {
	Name  string     `json:"name,omitempty"`
	Rules []RuleSpec `json:"rules"`
}

// RuleSpec is one what-if policy rule.
type RuleSpec struct {
	Name       string   `json:"name,omitempty"`
	Categories []string `json:"categories,omitempty"`
	Vias       []string `json:"vias,omitempty"`
	MinChain   int      `json:"min_chain,omitempty"`
	Action     string   `json:"action"`
}

// Policy converts the spec to a domain policy, validating action names.
func (s PolicySpec) Policy() (remedy.Policy, error) {
	p := remedy.Policy{Name: s.Name}
	for i, r := range s.Rules {
		if !remedy.KnownAction(remedy.ActionKind(r.Action)) {
			return remedy.Policy{}, fmt.Errorf("replay: policy rule %d: unknown action %q", i, r.Action)
		}
		rule := remedy.Rule{Name: r.Name, MinChain: r.MinChain, Action: remedy.ActionKind(r.Action)}
		for _, c := range r.Categories {
			rule.Categories = append(rule.Categories, core.Category(c))
		}
		for _, v := range r.Vias {
			rule.Vias = append(rule.Vias, core.Via(v))
		}
		p.Rules = append(p.Rules, rule)
	}
	if err := p.Validate(); err != nil {
		return remedy.Policy{}, err
	}
	return p, nil
}

// WhatIf is the -whatif file format: threshold overrides and/or an
// alternative policy to shadow-match against the replayed verdicts.
type WhatIf struct {
	Overrides
	Policy *PolicySpec `json:"policy,omitempty"`
}

// Options tunes one replay.
type Options struct {
	// Overrides replaces detection/analysis thresholds (nil = faithful).
	Overrides *Overrides
	// Policy, when set, is dry-run matched against every replayed report;
	// the hypothetical actions land in Result.Shadow. Nothing is executed —
	// the incident already happened.
	Policy *remedy.Policy
}

// Outcome is one analysis run's ordered trigger and report streams.
type Outcome struct {
	Triggers []core.Trigger
	Reports  []core.Report
}

// ShadowAction is one mitigation a what-if policy would have ordered.
type ShadowAction struct {
	// ReportIndex indexes Result.Replayed.Reports.
	ReportIndex int
	Policy      string
	Rule        string
	Action      remedy.ActionKind
	Rank        topo.Rank
	Comm        uint64
	Category    core.Category
}

func (a ShadowAction) String() string {
	return fmt.Sprintf("report %d → %s/%s: %s rank %d (comm %d, %s)",
		a.ReportIndex, a.Policy, a.Rule, a.Action, a.Rank, a.Comm, a.Category)
}

// Result is one replay's full outcome.
type Result struct {
	Header   Header
	Footer   Footer
	Complete bool

	// Recorded is the original run's outcome, extracted from the artifact's
	// event entries. Replayed is what the fresh engine concluded from the
	// same evidence; under faithful options the two match byte-for-byte.
	Recorded Outcome
	Replayed Outcome

	// RecordsIngested and Evals count the replayed inputs.
	RecordsIngested uint64
	Evals           uint64

	// Shadow lists the actions Options.Policy would have ordered.
	Shadow []ShadowAction
}

// Replay decodes an artifact and re-drives its evidence through a fresh
// analysis stack: a new deterministic engine, a new trace store, a new
// backend built from the header's (possibly overridden) configuration. The
// backend's evaluation timer is never armed — the artifact's eval entries
// are the clock, applied in recorded order after the engine catches up to
// each entry's instant (so deferred straggler analyses scheduled by earlier
// entries fire exactly where they originally did).
func Replay(r io.Reader, opts Options) (*Result, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	h := dec.Header()
	res := &Result{Header: h}

	cfg := opts.Overrides.apply(h.Backend.Config())
	sampled := make([]topo.Rank, len(h.SampledRanks))
	for i, r := range h.SampledRanks {
		sampled[i] = topo.Rank(r)
	}
	if len(sampled) == 0 {
		return nil, fmt.Errorf("%w: header has no sampled ranks", ErrCorrupt)
	}
	eng := sim.NewEngine(h.Seed)
	db := clouddb.New(eng, 0) // retention off: the artifact is already bounded
	bk := core.NewBackend(eng, db, sampled, cfg)
	bk.SetPublisher(func(ev core.Event) {
		switch ev.Kind {
		case core.EventTrigger:
			res.Replayed.Triggers = append(res.Replayed.Triggers, *ev.Trigger)
		case core.EventReport:
			res.Replayed.Reports = append(res.Replayed.Reports, *ev.Report)
		}
	})

	lastAt := h.StartNs
	for {
		entry, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		lastAt = entry.At
		// Catch the engine up first: anything the backend deferred (the
		// straggler settle) to an instant at or before this entry originally
		// ran before it, because it was scheduled strictly earlier.
		eng.RunUntil(sim.Time(entry.At))
		switch entry.Kind {
		case EntryBatch:
			db.Ingest(entry.Batch)
			res.RecordsIngested += uint64(len(entry.Batch))
		case EntryEval:
			bk.Evaluate(sim.Time(entry.At))
			res.Evals++
		case EntryEvent:
			// Lifecycle, action and health events are part of the artifact's
			// audit trail but not of the RCA outcome being compared.
			switch ev := entry.Event; {
			case ev.Trigger != nil:
				res.Recorded.Triggers = append(res.Recorded.Triggers, *ev.Trigger)
			case ev.Report != nil:
				res.Recorded.Reports = append(res.Recorded.Reports, *ev.Report)
			}
		}
	}
	endNs := lastAt
	if f, ok := dec.Footer(); ok {
		res.Footer, res.Complete = f, true
		endNs = f.EndNs
	}
	// Drain deferred analyses up to the recorded horizon — and no further,
	// so a replay never invents verdicts the original run had no time for.
	eng.RunUntil(sim.Time(endNs))

	if opts.Policy != nil {
		p := *opts.Policy
		if p.Name == "" {
			p.Name = "what-if"
		}
		for i, rep := range res.Replayed.Reports {
			rule, ok := p.Match(rep)
			if !ok {
				continue
			}
			name := rule.Name
			if name == "" {
				name = string(rule.Action)
			}
			res.Shadow = append(res.Shadow, ShadowAction{
				ReportIndex: i, Policy: p.Name, Rule: name, Action: rule.Action,
				Rank: rep.Suspect, Comm: rep.CommID, Category: rep.Category,
			})
		}
	}
	return res, nil
}
