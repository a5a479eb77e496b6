package replay

import (
	"fmt"
	"io"

	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Options tunes one replay.
type Options struct {
	// Backend, when set, replaces the header's analysis configuration (nil =
	// faithful). Only thresholds that do not change *when* Algorithm 1 ran
	// may differ from the recorded ones: the evaluation instants are recorded
	// facts, so Interval must match the header, and so must MaxSampled, which
	// sized the recorded sample.
	Backend *core.Config
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
//
// The artifact is decoded on a goroutine of its own, at most a few pages of
// entries ahead of the calling goroutine, which applies them in the same
// order a serial replay would; with GOMAXPROCS=1 the two take turns. A decode
// error is returned once every entry before it has been applied, and the
// decoding goroutine has returned, whatever the outcome, before Replay does.
func Replay(r io.Reader, opts Options) (*Result, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	h := dec.Header()
	res := &Result{Header: h}

	cfg := h.Backend
	if b := opts.Backend; b != nil {
		if b.Interval != cfg.Interval || b.MaxSampled != cfg.MaxSampled {
			return nil, fmt.Errorf("replay: the evaluation interval (%v) and the sample cap (%d) are recorded and cannot be overridden",
				cfg.Interval, cfg.MaxSampled)
		}
		cfg = *b
	}
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

	ra := startReadAhead(dec)
	defer ra.close()
	lastAt := h.StartNs
	for {
		p := ra.next()
		for i := range p.entries {
			entry := &p.entries[i]
			lastAt = entry.At
			// Catch the engine up first: anything the backend deferred (the
			// straggler settle) to an instant at or before this entry
			// originally ran before it, because it was scheduled strictly
			// earlier.
			eng.RunUntil(sim.Time(entry.At))
			switch entry.Kind {
			case EntryBatch:
				db.Ingest(entry.Batch)
				res.RecordsIngested += uint64(len(entry.Batch))
			case EntryEval:
				bk.Evaluate(sim.Time(entry.At))
				res.Evals++
			case EntryEvent:
				// Lifecycle, action and health events are part of the
				// artifact's audit trail but not of the RCA outcome being
				// compared.
				switch ev := entry.Event; {
				case ev.Trigger != nil:
					res.Recorded.Triggers = append(res.Recorded.Triggers, *ev.Trigger)
				case ev.Report != nil:
					res.Recorded.Reports = append(res.Recorded.Reports, *ev.Report)
				}
			}
		}
		err := p.err
		ra.release(p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
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
