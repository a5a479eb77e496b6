package core

import (
	"fmt"
	"sort"

	"mycroft/internal/clouddb"
	"mycroft/internal/depgraph"
	"mycroft/internal/otrace"
	"mycroft/internal/sim"
	"mycroft/internal/stats"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// rankState is the backend's per-sampled-rank rolling baseline.
type rankState struct {
	tpBaseline  *stats.RollingRate // bytes per second over the window
	gapBaseline *stats.RollingRate // mean completion interval (seconds)
	baselineObs int
	tpHist      []bool // recent windows violating the throughput rule
	gapHist     []bool // recent windows violating the interval rule
}

func pushHist(h []bool, v bool, span int) []bool {
	h = append(h, v)
	if len(h) > span {
		h = h[len(h)-span:]
	}
	return h
}

func countTrue(h []bool) int {
	n := 0
	for _, v := range h {
		if v {
			n++
		}
	}
	return n
}

// Backend is the always-on analysis service: it runs Algorithm 1 on a timer
// over the sampled ranks and Algorithm 2 on each firing.
type Backend struct {
	eng     *sim.Engine
	db      *clouddb.DB
	graph   *depgraph.Graph
	cfg     Config
	sampled []topo.Rank
	state   map[topo.Rank]*rankState

	ticker    *sim.Ticker
	muteUntil sim.Time

	triggers []Trigger
	reports  []Report

	publish func(Event)
	evalObs func(sim.Time)
	metrics *Metrics
	spans   *otrace.Tracer
	fusion  *Fusion
}

// NewBackend creates (but does not start) a backend over the sampled ranks,
// with an empty evidence-fusion state of its own. The store must not have
// taken in any record yet: the dependency graph is maintained as records
// ingest, from the first one on. The observer stays attached for the store's
// lifetime (Stop only pauses trigger evaluation), so build at most one
// backend per DB.
func NewBackend(eng *sim.Engine, db *clouddb.DB, sampled []topo.Rank, cfg Config) *Backend {
	if len(sampled) == 0 {
		panic("core: no sampled ranks")
	}
	if n := db.Ingested(); n > 0 {
		panic(fmt.Sprintf("core: store already holds %d ingested records", n))
	}
	cfg = cfg.withDefaults()
	b := &Backend{
		eng: eng, db: db, graph: depgraph.New(), cfg: cfg, sampled: sampled,
		state: make(map[topo.Rank]*rankState), fusion: NewFusion(FusionConfig{}),
	}
	db.AddIngestObserver(b.graph.ObserveBatch)
	for _, r := range sampled {
		b.state[r] = &rankState{
			tpBaseline:  stats.NewRollingRate(0.3),
			gapBaseline: stats.NewRollingRate(0.3),
		}
	}
	return b
}

// Sampled returns the monitored ranks.
func (b *Backend) Sampled() []topo.Rank { return append([]topo.Rank(nil), b.sampled...) }

// Config returns the effective configuration.
func (b *Backend) Config() Config { return b.cfg }

// Graph returns the incrementally maintained dependency graph — the service
// layer's QueryDependencies/BlastRadius and the DOT export read it.
func (b *Backend) Graph() *depgraph.Graph { return b.graph }

// Triggers returns all trigger firings so far.
func (b *Backend) Triggers() []Trigger { return append([]Trigger(nil), b.triggers...) }

// Reports returns all RCA verdicts so far.
func (b *Backend) Reports() []Report { return append([]Report(nil), b.reports...) }

// Start arms the evaluation timer.
func (b *Backend) Start() {
	if b.ticker != nil {
		panic("core: backend already started")
	}
	b.ticker = b.eng.NewTicker(b.cfg.Interval, func(now sim.Time) { b.Evaluate(now) })
	b.emit(Event{Kind: EventLifecycle, At: b.eng.Now(), Phase: PhaseBackendStarted})
}

// Stop disarms the timer.
func (b *Backend) Stop() {
	if b.ticker != nil {
		b.ticker.Stop()
		b.ticker = nil
		b.emit(Event{Kind: EventLifecycle, At: b.eng.Now(), Phase: PhaseBackendStopped})
	}
}

// SetEvalObserver registers fn to run at the top of every Evaluate pass,
// muted or not, before any rule fires. The incident recorder uses it to
// journal evaluation times, so a replayer can re-drive Algorithm 1 at
// exactly the recorded instants instead of re-arming the timer.
func (b *Backend) SetEvalObserver(fn func(sim.Time)) { b.evalObs = fn }

// Evaluate runs one Algorithm 1 pass over the sampled ranks at time t. It is
// exported so tests and ad-hoc tooling can drive the backend without the
// timer.
func (b *Backend) Evaluate(t sim.Time) {
	if b.evalObs != nil {
		b.evalObs(t)
	}
	if t < b.muteUntil {
		return
	}
	for _, rank := range b.sampled {
		if tr, ok := b.evaluateRank(rank, t); ok {
			b.fire(tr)
			return // one trigger per pass: the cascade makes the rest redundant
		}
	}
}

// evaluateRank applies Algorithm 1's rules to one sampled rank.
func (b *Backend) evaluateRank(rank topo.Rank, t sim.Time) (Trigger, bool) {
	if t < sim.Time(b.cfg.Window) {
		return Trigger{}, false // the look-back window is not yet full
	}
	frontier, seen := b.graph.Rank(rank)
	if !seen {
		return Trigger{}, false // job not producing yet
	}
	st := b.state[rank]
	recs := b.db.QueryRank(rank, t.Add(-b.cfg.Window), t)

	var completions, states []trace.Record
	for _, r := range recs {
		switch r.Kind {
		case trace.KindCompletion:
			completions = append(completions, r)
		case trace.KindState:
			states = append(states, r)
		}
	}

	ip, _ := b.db.IPOf(rank)
	if len(completions) == 0 {
		// Stalled mid-operation (state logs without completion) or silent
		// entirely (proxy crash / dead host). Guard against warm-up: before
		// the rank has ever completed an op, require a visibly stuck flow
		// rather than mere absence of completions.
		var maxStuck int64
		for _, s := range states {
			if s.StuckNs > maxStuck {
				maxStuck = s.StuckNs
			}
		}
		if !frontier.Completed && maxStuck <= int64(b.cfg.Window)/2 {
			return Trigger{}, false
		}
		reason := "no CollOp completed in window"
		if len(states) == 0 {
			reason = "rank silent: no logs at all in window"
		}
		return Trigger{
			Kind: TriggerFailure, Rank: rank, IP: ip, At: t,
			CommID: b.implicatedComm(rank, t), Reason: reason,
		}, true
	}

	// Performance rules: windowed throughput and op interval vs. baselines.
	// The interval metric is the MEDIAN gap between completions: a single
	// long gap per iteration (e.g. the master rank's legitimately heavier
	// step, §9) must not read as degradation, while a uniform stretch of
	// the cadence must.
	var bytes int64
	for _, c := range completions {
		bytes += c.MsgSize
	}
	tp := float64(bytes) / b.cfg.Window.Seconds()
	var gap float64
	if len(completions) >= 2 {
		gaps := make([]float64, 0, len(completions)-1)
		for i := 1; i < len(completions); i++ {
			gaps = append(gaps, completions[i].Time.Sub(completions[i-1].Time).Seconds())
		}
		sort.Float64s(gaps)
		gap = gaps[len(gaps)/2]
	}

	if st.baselineObs >= b.cfg.MinBaselineSamples {
		tpBad, gapBad := false, false
		var tpBase, gapBase float64
		if base, ok := st.tpBaseline.Value(); ok && tp < b.cfg.ThroughputDrop*base {
			tpBad, tpBase = true, base
		}
		if base, ok := st.gapBaseline.Value(); ok && gap > 0 && base > 0 && gap > b.cfg.IntervalGrow*base {
			gapBad, gapBase = true, base
		}
		st.tpHist = pushHist(st.tpHist, tpBad, b.cfg.BadWindowSpan)
		st.gapHist = pushHist(st.gapHist, gapBad, b.cfg.BadWindowSpan)
		if countTrue(st.tpHist) >= b.cfg.BadWindows {
			st.tpHist, st.gapHist = nil, nil
			return Trigger{
				Kind: TriggerStraggler, Rank: rank, IP: ip, At: t,
				CommID: b.implicatedComm(rank, t),
				Reason: fmt.Sprintf("throughput %.2g B/s below %.0f%% of baseline %.2g B/s in %d of %d windows", tp, 100*b.cfg.ThroughputDrop, tpBase, b.cfg.BadWindows, b.cfg.BadWindowSpan),
			}, true
		}
		if countTrue(st.gapHist) >= b.cfg.BadWindows {
			st.tpHist, st.gapHist = nil, nil
			return Trigger{
				Kind: TriggerStraggler, Rank: rank, IP: ip, At: t,
				CommID: b.implicatedComm(rank, t),
				Reason: fmt.Sprintf("op interval %.3gs over %.1f× baseline %.3gs in %d of %d windows", gap, b.cfg.IntervalGrow, gapBase, b.cfg.BadWindows, b.cfg.BadWindowSpan),
			}, true
		}
		if tpBad || gapBad {
			return Trigger{}, false // suspicious: freeze baselines, wait for persistence
		}
	}
	st.tpBaseline.Observe(tp)
	if gap > 0 {
		st.gapBaseline.Observe(gap)
	}
	st.baselineObs++
	return Trigger{}, false
}

// implicatedComm picks the communicator a rank's freshest logs point at:
// the in-flight op's comm if state logs exist, else the newest record's. Both
// are dependency-graph frontier lookups.
func (b *Backend) implicatedComm(rank topo.Rank, t sim.Time) uint64 {
	if comm, ok := b.graph.StuckComm(rank, 0, t.Add(-b.cfg.Window), t); ok {
		return comm
	}
	frontier, _ := b.graph.Rank(rank)
	return frontier.Comm
}

// fire records a trigger, publishes it, runs Algorithm 2, and mutes the
// backend while the fault is being handled.
//
// With a tracer attached this is also where an incident's span tree is
// rooted: the trigger opens the incident, the freshest upload/ingest spans
// are adopted as its first children (the batch that carried the evidence),
// a zero-width detect span marks the firing pass, and an rca span opens
// here to be closed by deliver at verdict time — so the trigger→verdict
// stage reads straight off the tree, including the straggler settle window.
func (b *Backend) fire(tr Trigger) {
	b.triggers = append(b.triggers, tr)
	b.muteUntil = tr.At.Add(b.cfg.RearmDelay)
	if m := b.metrics; m != nil {
		if c := m.Triggers[tr.Kind.String()]; c != nil {
			c.Inc()
		}
	}
	var rcaSpan otrace.SpanID
	if t := b.spans; t != nil {
		t.OpenIncident(fmt.Sprintf("trigger-%d", len(b.triggers)), tr.At)
		t.AdoptLatest(otrace.StageUpload)
		t.AdoptLatest(otrace.StageIngest)
		det := t.StageAt(otrace.StageDetect, tr.At)
		t.Annotate(det, "", fmt.Sprintf("%s rank %d: %s", tr.Kind, tr.Rank, tr.Reason))
		t.EndAt(det, tr.At)
		rcaSpan = t.StageAt(otrace.StageRCA, tr.At)
	}
	b.emit(Event{Kind: EventTrigger, At: tr.At, Trigger: &tr})
	switch tr.Kind {
	case TriggerFailure:
		b.deliver(b.timedAnalysis(rcaSpan, func() Report { return b.AnalyzeFailure(tr) }))
	default:
		// Let post-onset evidence (late launches, pressured flows) land in
		// the store before analyzing a performance anomaly.
		b.eng.After(b.cfg.StragglerSettle, func() {
			at := tr
			at.At = b.eng.Now()
			rep := b.timedAnalysis(rcaSpan, func() Report {
				rep := b.AnalyzeStraggler(at)
				if rep.Suspect < 0 {
					// No straggler pattern: the slowdown may be a failure in
					// progress (throughput collapsing toward zero fires the
					// straggler rule first). Re-analyze as a failure.
					if fr := b.AnalyzeFailure(at); fr.Suspect >= 0 {
						rep = fr
					}
				}
				return rep
			})
			rep.Trigger = tr
			b.deliver(rep)
		})
	}
}

// Fusion returns the evidence-fusion state every verdict the backend
// delivers — its own tracepoint analyses and DeliverExternal channel reports
// — is fused against before publishing.
func (b *Backend) Fusion() *Fusion { return b.fusion }

// DeliverExternal routes a channel-sourced verdict (log or perf diagnosis)
// through the standard report path: fusion, the report ledger, metrics, the
// publish span, and the EventReport emit — so subscribers, remediation and
// the cluster replicator cannot tell it from a tracepoint verdict. The
// report's first Evidence entry names the producing channel. The backend's
// own verdicts take the same tail (deliver). Returns the fused report as
// published.
func (b *Backend) DeliverExternal(rep Report, own Evidence) Report {
	b.fusion.Observe(own)
	b.fusion.Finalize(&rep, own, rep.AnalyzedAt)
	b.reports = append(b.reports, rep)
	if m := b.metrics; m != nil {
		m.Reports.Inc()
		m.ChainDepth.Observe(float64(len(rep.Chain)))
	}
	if t := b.spans; t != nil {
		pub := t.StageAt(otrace.StagePublish, rep.AnalyzedAt)
		defer t.EndAt(pub, rep.AnalyzedAt)
	}
	b.emit(Event{Kind: EventReport, At: rep.AnalyzedAt, Report: &rep})
	return rep
}

// deliver closes the rca span fire opened and hands one of the backend's own
// tracepoint verdicts to the tail every channel's verdict takes.
func (b *Backend) deliver(rep Report) {
	if t := b.spans; t != nil {
		if id := t.Recorder().LastOpen(otrace.StageRCA); id != 0 {
			t.Annotate(id, "", fmt.Sprintf("suspect rank %d (%s): chain=%d victims=%d", rep.Suspect, rep.Category, len(rep.Chain), len(rep.Victims)))
			t.EndAt(id, rep.AnalyzedAt)
		}
	}
	b.DeliverExternal(rep, Evidence{
		Channel: ModalityTracepoint, Rank: rep.Suspect, Category: rep.Category,
		At: rep.AnalyzedAt, Detail: string(rep.Via),
	})
}
