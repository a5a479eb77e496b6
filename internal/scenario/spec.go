// Package scenario is the declarative fault-scenario engine: a Spec names a
// cluster (or a generated fleet of clusters), a timed event list of fault
// injections and operational changes, and assertions over the triggers and
// verdicts Mycroft produces. The runner executes a Spec as jobs on one
// mycroft.Service — one deterministic engine — and emits a structured
// pass/fail Result, so stress campaigns reproduce bit-for-bit from a seed.
//
// Specs are plain data: they round-trip through JSON (cmd/mycroft-scenario
// loads them from files) and a built-in library in library.go covers every
// fault kind plus multi-fault, flapping, large-topology and fleet-chaos
// variants.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/remedy"
	"mycroft/internal/topo"
)

// Dur is a time.Duration that marshals as a human-readable string ("15s")
// and unmarshals from either a string or a nanosecond count.
type Dur time.Duration

// D converts to the standard duration type.
func (d Dur) D() time.Duration { return time.Duration(d) }

func (d Dur) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its String form.
func (d Dur) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(time.Duration(d).String())), nil
}

// UnmarshalJSON accepts "15s" strings or raw nanosecond numbers.
func (d *Dur) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		s, err := strconv.Unquote(string(b))
		if err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %s", b)
	}
	*d = Dur(n)
	return nil
}

// Fleet declares the job(s) a scenario runs: either one explicit cluster or
// a generated fleet of weighted templates.
type Fleet struct {
	// Topo shapes the single job (ignored when Gen is set). Zero takes
	// topo.Small.
	Topo topo.Config `json:"topo,omitempty"`
	// CommHeavy weights iterations toward communication (degradation-class
	// faults need it to be measurable).
	CommHeavy bool `json:"comm_heavy,omitempty"`
	// CheckpointEvery enables the checkpoint phase every N iterations
	// (required for checkpoint-stall faults).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// UploadLatency overrides the collector pipeline latency.
	UploadLatency Dur `json:"upload_latency,omitempty"`
	// Window overrides the backend's Algorithm 1 look-back Δ. Large
	// topologies with long iterations need it wider than the 5 s default,
	// or warm-up cadence reads as failure.
	Window Dur `json:"window,omitempty"`
	// MaxSampled overrides the backend's sampled-rank cap (§4.3).
	MaxSampled int `json:"max_sampled,omitempty"`
	// Rearm overrides the backend's post-trigger mute delay. Self-healing
	// scenarios tighten it so a failed mitigation is re-detected (and the
	// verify window can stay short).
	Rearm Dur `json:"rearm,omitempty"`
	// NoTracing disables the Mycroft tracepoints on every fleet member: the
	// job emits zero trace records and the tracepoint channel is blind, so
	// only the log/perf diagnosis channels (the logs:/timings: stanzas) can
	// reach a verdict.
	NoTracing bool `json:"no_tracing,omitempty"`
	// Gen generates a fleet instead of a single job.
	Gen *FleetGen `json:"gen,omitempty"`
	// SharedEngine hosts every fleet member on one mycroft.Service (one
	// virtual clock, one event interleaving) instead of running members
	// sequentially on independent engines. This is the multi-tenant
	// production shape: faults on one job must not trigger another.
	SharedEngine bool `json:"shared_engine,omitempty"`
}

// FleetGen generates Jobs clusters by weighted sampling over Templates.
type FleetGen struct {
	Jobs      int        `json:"jobs"`
	Templates []Template `json:"templates"`
}

// Template is one weighted cluster shape in a generated fleet.
type Template struct {
	Name      string      `json:"name"`
	Weight    int         `json:"weight"`
	Topo      topo.Config `json:"topo"`
	CommHeavy bool        `json:"comm_heavy,omitempty"`
}

// Action is what a timed event does.
type Action string

const (
	// ActInject applies a fault at the event time.
	ActInject Action = "inject"
	// ActRecover undoes a recoverable fault at the event time.
	ActRecover Action = "recover"
	// ActBackendStop halts trigger evaluation (analysis-service maintenance
	// window).
	ActBackendStop Action = "backend-stop"
	// ActBackendStart re-arms trigger evaluation after a stop.
	ActBackendStart Action = "backend-start"
	// ActCollectorStop kills the job's collector agents (the ring keeps
	// overwriting; loss is counted).
	ActCollectorStop Action = "collector-stop"
)

// Fault parameterizes an inject/recover event.
type Fault struct {
	Kind     faults.Kind `json:"kind"`
	Rank     int         `json:"rank"`
	Severity float64     `json:"severity,omitempty"`
	Duration Dur         `json:"duration,omitempty"`
}

// spec converts to the faults package's injection spec at time at.
func (f Fault) spec(at Dur) faults.Spec {
	return faults.Spec{
		Kind: f.Kind, Rank: topo.Rank(f.Rank), At: at.D(),
		Severity: f.Severity, Duration: f.Duration.D(),
	}
}

// Event is one timed entry in the scenario's schedule.
type Event struct {
	At     Dur    `json:"at"`
	Action Action `json:"action"`
	// Job selects the fleet member the event applies to; -1 applies it to
	// every job. Default 0.
	Job   int    `json:"job,omitempty"`
	Fault *Fault `json:"fault,omitempty"`
}

// Logs is one scheduled batch of synthetic training-log lines fed into a
// job's log diagnosis channel: Count repetitions spaced Every apart,
// starting at At, on one rank or the whole fleet. It is how a scenario
// scripts the tracepoint-free signal (driver complaints, fleet-wide phase
// chatter) the logdiag channel clusters and scores.
type Logs struct {
	// Job selects the fleet member the lines feed; -1 feeds every job.
	// Default 0.
	Job int `json:"job,omitempty"`
	// At is when the first batch lands.
	At Dur `json:"at"`
	// Rank is the emitting rank; -1 emits the line on every rank (phase
	// chatter the divergence score must not convict).
	Rank int `json:"rank"`
	// Level is "info", "warn" or "error" (default info).
	Level string `json:"level,omitempty"`
	Text  string `json:"text"`
	// Count repeats the batch (default 1), Every apart (default 1 s).
	Count int `json:"count,omitempty"`
	Every Dur `json:"every,omitempty"`
}

// Timings is one scheduled synthetic iteration-timestamp feed into a job's
// black-box perf channel: every rank completes Count iterations on a fixed
// Period cadence starting at Start, except Rank, which from iteration After
// on takes Factor times longer per iteration — the silent straggler whose
// collectives all still complete.
type Timings struct {
	// Job selects the fleet member the samples feed; -1 feeds every job.
	// Default 0.
	Job int `json:"job,omitempty"`
	// Start is when the feed's clock begins; the first completions land one
	// Period later.
	Start Dur `json:"start"`
	// Period is the healthy per-iteration duration.
	Period Dur `json:"period"`
	// Count is how many iterations the feed covers.
	Count int `json:"count"`
	// Rank straggles when Factor > 1: from iteration After on, its period is
	// multiplied by Factor. With Factor 0 the feed is uniformly healthy and
	// Rank/After are ignored.
	Rank   int     `json:"rank,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	After  int     `json:"after,omitempty"`
}

// RemedyRule is the file-format form of one remediation-policy rule.
type RemedyRule struct {
	Name       string            `json:"name,omitempty"`
	Categories []core.Category   `json:"categories,omitempty"`
	Vias       []core.Via        `json:"vias,omitempty"`
	MinChain   int               `json:"min_chain,omitempty"`
	Action     remedy.ActionKind `json:"action"`
	// MaxAttempts is the per-rank failed-attempt budget before escalation.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Backoff is the minimum gap between attempts on one rank.
	Backoff Dur `json:"backoff,omitempty"`
	// VerifyWindow is the quiet window that marks an attempt succeeded. It
	// must outlast the backend re-arm delay (see Fleet.Rearm) or a failed
	// mitigation can never be observed.
	VerifyWindow Dur `json:"verify_window,omitempty"`
}

// Remediate attaches a remediation policy to fleet member(s): the verdicts
// Mycroft produces are matched against Rules and the matched actions are
// executed, verified and audited during the run.
type Remediate struct {
	// Job selects the fleet member the policy attaches to; -1 attaches it to
	// every job. Default 0.
	Job int `json:"job,omitempty"`
	// Name labels the policy in the audit log.
	Name  string       `json:"name,omitempty"`
	Rules []RemedyRule `json:"rules"`
}

// policy converts to the remedy package's policy.
func (r Remediate) policy() remedy.Policy {
	p := remedy.Policy{Name: r.Name}
	for _, rr := range r.Rules {
		p.Rules = append(p.Rules, remedy.Rule{
			Name: rr.Name, Categories: rr.Categories, Vias: rr.Vias, MinChain: rr.MinChain,
			Action: rr.Action, MaxAttempts: rr.MaxAttempts,
			Backoff: rr.Backoff.D(), VerifyWindow: rr.VerifyWindow.D(),
		})
	}
	return p
}

// AssertKind enumerates the checks a scenario can declare.
type AssertKind string

const (
	// AssertDetected: faults.Judge finds injection [Event] detected — a
	// trigger of an accepted kind fires at/after it (within the optional
	// bound).
	AssertDetected AssertKind = "detected"
	// AssertDiagnosed: faults.Judge finds injection [Event] diagnosed — a
	// report with an accepted category, naming the suspect rank when the
	// fault localizes (within the optional bound).
	AssertDiagnosed AssertKind = "diagnosed"
	// AssertCategory: some report's category is in Categories.
	AssertCategory AssertKind = "category"
	// AssertSuspect: some report names Rank as the suspect.
	AssertSuspect AssertKind = "suspect"
	// AssertNoFalseTrigger: no trigger fires before the first injection (or
	// at all, in a fault-free scenario).
	AssertNoFalseTrigger AssertKind = "no-false-trigger"
	// AssertMinReports: at least Min verdicts were produced.
	AssertMinReports AssertKind = "min-reports"
	// AssertMinRecords: at least Min trace records reached the cloud DB.
	AssertMinRecords AssertKind = "min-records"
	// AssertMinIterations: the job completed at least Min iterations.
	AssertMinIterations AssertKind = "min-iterations"
	// AssertChain: some report's causal chain has at least Min hops — the
	// cross-communicator cascade was traced, not collapsed to its terminal
	// suspect.
	AssertChain AssertKind = "expect_chain"
	// AssertVictims: some single report's blast radius has at least Min
	// ranks and contains every rank in Victims.
	AssertVictims AssertKind = "expect_victims"
	// AssertRemediation: the job's audit log holds at least Min attempts
	// (default 1) matching the optional Action/Outcomes predicates and the
	// Rank (exact; -1 = any rank) — or, with None, no matching attempt at
	// all (policy-isolation checks).
	AssertRemediation AssertKind = "expect_remediation"
	// AssertRecovered: the loop closed for Rank (exact; -1 = any rank) —
	// some audit-log attempt on it succeeded, and the suspect was never
	// re-detected (no trigger on the rank, no report naming it) after that
	// attempt's verification.
	AssertRecovered AssertKind = "expect_recovered"
	// AssertChannel: the Channel diagnosis channel produced at least Min
	// anomalies (default 1) and at least Reports verdicts — or, with None,
	// stayed completely quiet (zero anomalies, zero reports).
	AssertChannel AssertKind = "expect_channel"
	// AssertModality: some report carries non-conflicting evidence from
	// Channel, with fused confidence >= MinConfidence and (when Outcome is
	// set) the given fusion outcome.
	AssertModality AssertKind = "expect_modality"
	// AssertNoRecords: zero trace records reached the cloud DB — the proof a
	// verdict was reached tracepoint-free.
	AssertNoRecords AssertKind = "no-records"
)

// UnknownModalityError is the typed validation error for an assertion
// naming a channel outside the diagnosis-modality vocabulary.
type UnknownModalityError struct {
	Got   string
	Valid []core.Modality
}

func (e *UnknownModalityError) Error() string {
	return fmt.Sprintf("unknown channel %q (valid: %v)", e.Got, e.Valid)
}

// parseChannel resolves an assertion's channel name against the modality
// vocabulary.
func parseChannel(s string) (core.Modality, error) {
	for _, m := range core.Modalities() {
		if string(m) == s {
			return m, nil
		}
	}
	return "", &UnknownModalityError{Got: s, Valid: core.Modalities()}
}

// Assertion is one declarative check evaluated after the run.
type Assertion struct {
	Kind AssertKind `json:"kind"`
	// Job selects which fleet member(s) the check applies to; -1 = every
	// job. Default 0.
	Job int `json:"job,omitempty"`
	// Event indexes the job's time-ordered injection list (inject events
	// plus chaos samples) for detected/diagnosed.
	Event int `json:"event,omitempty"`
	// Within bounds detection/diagnosis latency from the injection.
	Within     Dur             `json:"within,omitempty"`
	Min        int             `json:"min,omitempty"`
	Categories []core.Category `json:"categories,omitempty"`
	Rank       int             `json:"rank,omitempty"`
	// Victims lists ranks a single report's blast radius must contain
	// (expect_victims only).
	Victims []int `json:"victims,omitempty"`
	// Action restricts expect_remediation to attempts of one mitigation
	// kind ("" = any).
	Action remedy.ActionKind `json:"action,omitempty"`
	// Outcomes restricts expect_remediation to attempts with one of these
	// audited fates (nil = any).
	Outcomes []remedy.Outcome `json:"outcomes,omitempty"`
	// None inverts expect_remediation (the job must have NO matching
	// attempt) and expect_channel (the channel must stay quiet).
	None bool `json:"none,omitempty"`
	// Channel names the diagnosis modality for expect_channel and
	// expect_modality ("tracepoint", "log" or "perf").
	Channel string `json:"channel,omitempty"`
	// Reports is the minimum verdict count expect_channel requires from the
	// channel (0 = don't care).
	Reports int `json:"reports,omitempty"`
	// MinConfidence bounds the fused confidence expect_modality requires.
	MinConfidence float64 `json:"min_confidence,omitempty"`
	// Outcome restricts expect_modality to reports with one fusion outcome
	// ("single", "corroborated" or "conflicted"; "" = any).
	Outcome string `json:"outcome,omitempty"`
}

// Spec is a complete declarative scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the default seed (overridable at run time). Default 1.
	Seed int64 `json:"seed,omitempty"`
	// RunFor is the virtual time the scenario simulates. Default 75 s.
	RunFor Dur     `json:"run_for,omitempty"`
	Fleet  Fleet   `json:"fleet"`
	Events []Event `json:"events,omitempty"`
	Chaos  *Chaos  `json:"chaos,omitempty"`
	// Logs and Timings script the synthetic log/perf channel feeds.
	Logs       []Logs      `json:"logs,omitempty"`
	Timings    []Timings   `json:"timings,omitempty"`
	Remediate  []Remediate `json:"remediate,omitempty"`
	Assertions []Assertion `json:"assertions,omitempty"`
}

// DefaultRunFor is the virtual horizon when a spec leaves RunFor unset: a
// 15 s warmup plus a 60 s detection window.
const DefaultRunFor = 75 * time.Second

func (s Spec) runFor() time.Duration {
	if s.RunFor > 0 {
		return s.RunFor.D()
	}
	return DefaultRunFor
}

// JobCount returns how many jobs the fleet declares.
func (s Spec) JobCount() int {
	if s.Fleet.Gen != nil {
		return s.Fleet.Gen.Jobs
	}
	return 1
}

// FaultKinds returns the sorted set of fault kinds the scenario can
// exercise: explicit inject events plus the chaos distribution (including
// the sampler's default kinds when a chaos block declares none).
func (s Spec) FaultKinds() []faults.Kind {
	set := map[faults.Kind]bool{}
	for _, ev := range s.Events {
		if ev.Action == ActInject && ev.Fault != nil {
			set[ev.Fault.Kind] = true
		}
	}
	if s.Chaos != nil {
		kinds := s.Chaos.Kinds
		if len(kinds) == 0 {
			kinds = defaultChaosKinds()
		}
		for _, wk := range kinds {
			set[wk.Kind] = true
		}
	}
	out := make([]faults.Kind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Load resolves a command-line argument to a spec: a readable file is parsed
// as JSON; an unreadable argument that looks like a path (it holds a '.' or
// a '/') is the read error; anything else names a builtin.
func Load(arg string) (Spec, error) {
	if data, err := os.ReadFile(arg); err == nil {
		return Parse(data)
	} else if strings.ContainsAny(arg, "./") {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if spec, ok := Lookup(arg); ok {
		return spec, nil
	}
	return Spec{}, fmt.Errorf("scenario: no file or builtin scenario %q (`mycroft-scenario list` shows the builtins)", arg)
}

// Parse decodes a JSON scenario and validates it.
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// knownKind reports whether k is in the fault catalog.
func knownKind(k faults.Kind) bool {
	for _, x := range faults.All() {
		if x == k {
			return true
		}
	}
	return false
}

// minWorld returns the smallest world size any fleet member can have, for
// validating explicit ranks up front.
func (s Spec) minWorld() int {
	if s.Fleet.Gen == nil {
		t := s.Fleet.Topo
		if t == (topo.Config{}) {
			t = topo.Small()
		}
		return t.Nodes * t.GPUsPerNode
	}
	min := 0
	for _, tpl := range s.Fleet.Gen.Templates {
		w := tpl.Topo.Nodes * tpl.Topo.GPUsPerNode
		if min == 0 || w < min {
			min = w
		}
	}
	return min
}

// Validate checks the spec for structural errors before any simulation is
// built. Explicit fault ranks are bounded by the smallest possible fleet
// member's world size, so a validated spec runs on any sampled template.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.RunFor < 0 {
		return fmt.Errorf("scenario %s: negative run_for", s.Name)
	}
	if g := s.Fleet.Gen; g != nil {
		if g.Jobs <= 0 {
			return fmt.Errorf("scenario %s: fleet gen needs jobs > 0", s.Name)
		}
		if len(g.Templates) == 0 {
			return fmt.Errorf("scenario %s: fleet gen needs templates", s.Name)
		}
		total := 0
		for i, tpl := range g.Templates {
			if tpl.Weight <= 0 {
				return fmt.Errorf("scenario %s: template %d (%s) needs weight > 0", s.Name, i, tpl.Name)
			}
			total += tpl.Weight
			if err := tpl.Topo.Validate(); err != nil {
				return fmt.Errorf("scenario %s: template %d (%s): %w", s.Name, i, tpl.Name, err)
			}
		}
		if total <= 0 {
			return fmt.Errorf("scenario %s: zero total template weight", s.Name)
		}
	} else if s.Fleet.Topo != (topo.Config{}) {
		if err := s.Fleet.Topo.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	// Negative overrides would otherwise be silently replaced with the
	// defaults at run time — the same silent-default trap the collector
	// config used to have.
	if s.Fleet.UploadLatency < 0 || s.Fleet.Window < 0 || s.Fleet.Rearm < 0 {
		return fmt.Errorf("scenario %s: negative fleet duration override", s.Name)
	}
	if s.Fleet.MaxSampled < 0 || s.Fleet.CheckpointEvery < 0 {
		return fmt.Errorf("scenario %s: negative fleet count override", s.Name)
	}
	world := s.minWorld()
	jobs := s.JobCount()
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("scenario %s: event %d: negative time", s.Name, i)
		}
		// An event at or past the horizon never fires; an injection there
		// would still count in the report and dilute accuracy (the chaos
		// sampler drops such samples for the same reason).
		if ev.At.D() >= s.runFor() {
			return fmt.Errorf("scenario %s: event %d at %v, at or beyond run_for %v", s.Name, i, ev.At, Dur(s.runFor()))
		}
		if ev.Job < -1 || ev.Job >= jobs {
			return fmt.Errorf("scenario %s: event %d: job %d out of range (fleet has %d)", s.Name, i, ev.Job, jobs)
		}
		switch ev.Action {
		case ActInject, ActRecover:
			if ev.Fault == nil {
				return fmt.Errorf("scenario %s: event %d: %s needs a fault", s.Name, i, ev.Action)
			}
			if !knownKind(ev.Fault.Kind) {
				return fmt.Errorf("scenario %s: event %d: unknown fault kind %q", s.Name, i, ev.Fault.Kind)
			}
			if ev.Fault.Rank < 0 || ev.Fault.Rank >= world {
				return fmt.Errorf("scenario %s: event %d: rank %d out of range (world %d)", s.Name, i, ev.Fault.Rank, world)
			}
			if ev.Fault.Severity < 0 {
				return fmt.Errorf("scenario %s: event %d: negative severity %v", s.Name, i, ev.Fault.Severity)
			}
			if ev.Fault.Duration < 0 {
				return fmt.Errorf("scenario %s: event %d: negative duration %v", s.Name, i, ev.Fault.Duration)
			}
			if ev.Action == ActRecover && !faults.Recoverable(ev.Fault.Kind) {
				return fmt.Errorf("scenario %s: event %d: %q is not recoverable", s.Name, i, ev.Fault.Kind)
			}
			// CheckpointEvery is fleet-wide, so this holds for generated
			// fleets too: without a checkpoint phase the stall can never
			// manifest.
			if ev.Fault.Kind == faults.CheckpointStall && s.Fleet.CheckpointEvery <= 0 {
				return fmt.Errorf("scenario %s: event %d: checkpoint-stall needs fleet.checkpoint_every > 0", s.Name, i)
			}
		case ActBackendStop, ActBackendStart, ActCollectorStop:
			if ev.Fault != nil {
				return fmt.Errorf("scenario %s: event %d: %s takes no fault", s.Name, i, ev.Action)
			}
		default:
			return fmt.Errorf("scenario %s: event %d: unknown action %q", s.Name, i, ev.Action)
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.validate(s.Name); err != nil {
			return err
		}
		if start := s.Chaos.effectiveStart(); start >= s.runFor() {
			return fmt.Errorf("scenario %s: chaos window starts at %v, at or beyond run_for %v — nothing can inject", s.Name, Dur(start), Dur(s.runFor()))
		}
		if end := s.Chaos.End.D(); end > 0 && end >= s.runFor() {
			return fmt.Errorf("scenario %s: chaos window ends at %v, at or beyond run_for %v — samples past the horizon are dropped", s.Name, s.Chaos.End, Dur(s.runFor()))
		}
		for _, wk := range s.Chaos.Kinds {
			// Same workload precondition explicit events get: a sampled
			// checkpoint stall can never manifest without the phase.
			if wk.Kind == faults.CheckpointStall && s.Fleet.CheckpointEvery <= 0 {
				return fmt.Errorf("scenario %s: chaos kind checkpoint-stall needs fleet.checkpoint_every > 0", s.Name)
			}
		}
	}
	for i, lg := range s.Logs {
		if lg.Job < -1 || lg.Job >= jobs {
			return fmt.Errorf("scenario %s: logs %d: job %d out of range (fleet has %d)", s.Name, i, lg.Job, jobs)
		}
		if lg.At < 0 {
			return fmt.Errorf("scenario %s: logs %d: negative time", s.Name, i)
		}
		if lg.At.D() >= s.runFor() {
			return fmt.Errorf("scenario %s: logs %d at %v, at or beyond run_for %v", s.Name, i, lg.At, Dur(s.runFor()))
		}
		if lg.Text == "" {
			return fmt.Errorf("scenario %s: logs %d: missing text", s.Name, i)
		}
		if lg.Rank < -1 || lg.Rank >= world {
			return fmt.Errorf("scenario %s: logs %d: rank %d out of range (world %d)", s.Name, i, lg.Rank, world)
		}
		if lg.Count < 0 || lg.Every < 0 {
			return fmt.Errorf("scenario %s: logs %d: negative repeat schedule", s.Name, i)
		}
	}
	for i, tm := range s.Timings {
		if tm.Job < -1 || tm.Job >= jobs {
			return fmt.Errorf("scenario %s: timings %d: job %d out of range (fleet has %d)", s.Name, i, tm.Job, jobs)
		}
		if tm.Start < 0 {
			return fmt.Errorf("scenario %s: timings %d: negative start", s.Name, i)
		}
		if tm.Start.D() >= s.runFor() {
			return fmt.Errorf("scenario %s: timings %d starts at %v, at or beyond run_for %v", s.Name, i, tm.Start, Dur(s.runFor()))
		}
		if tm.Period <= 0 {
			return fmt.Errorf("scenario %s: timings %d: period must be > 0", s.Name, i)
		}
		if tm.Count <= 0 {
			return fmt.Errorf("scenario %s: timings %d: count must be > 0", s.Name, i)
		}
		if tm.Factor < 0 || (tm.Factor > 0 && tm.Factor < 1) {
			return fmt.Errorf("scenario %s: timings %d: straggler factor must be >= 1 (or 0 for a healthy feed)", s.Name, i)
		}
		if tm.Factor > 0 && (tm.Rank < 0 || tm.Rank >= world) {
			return fmt.Errorf("scenario %s: timings %d: straggler rank %d out of range (world %d)", s.Name, i, tm.Rank, world)
		}
		if tm.After < 0 {
			return fmt.Errorf("scenario %s: timings %d: negative straggler onset", s.Name, i)
		}
	}
	for i, rem := range s.Remediate {
		if rem.Job < -1 || rem.Job >= jobs {
			return fmt.Errorf("scenario %s: remediate %d: job %d out of range (fleet has %d)", s.Name, i, rem.Job, jobs)
		}
		if err := rem.policy().Validate(); err != nil {
			return fmt.Errorf("scenario %s: remediate %d: %w", s.Name, i, err)
		}
		for j := range s.Remediate[:i] {
			other := s.Remediate[j]
			if other.Job == rem.Job || other.Job == -1 || rem.Job == -1 {
				return fmt.Errorf("scenario %s: remediate %d: job %d already has a policy (stanza %d)", s.Name, i, rem.Job, j)
			}
		}
	}
	for i, a := range s.Assertions {
		if a.Job < -1 || a.Job >= jobs {
			return fmt.Errorf("scenario %s: assertion %d: job %d out of range (fleet has %d)", s.Name, i, a.Job, jobs)
		}
		if a.Within < 0 {
			return fmt.Errorf("scenario %s: assertion %d: negative within bound %v", s.Name, i, a.Within)
		}
		// The remediation kinds use Rank -1 as "any rank" (0 is a real rank
		// there); everywhere else a negative rank is a mistake.
		remedyKind := a.Kind == AssertRemediation || a.Kind == AssertRecovered
		if a.Rank < 0 && !(remedyKind && a.Rank == -1) {
			return fmt.Errorf("scenario %s: assertion %d: negative rank %d", s.Name, i, a.Rank)
		}
		switch a.Kind {
		case AssertDetected, AssertDiagnosed:
			injections := s.minInjections(a.Job, jobs)
			if a.Event < 0 || a.Event >= injections {
				return fmt.Errorf("scenario %s: assertion %d: event %d out of range (job(s) see %d injections)", s.Name, i, a.Event, injections)
			}
		case AssertCategory:
			if len(a.Categories) == 0 {
				return fmt.Errorf("scenario %s: assertion %d: category needs categories", s.Name, i)
			}
		case AssertSuspect:
			if a.Rank >= world {
				return fmt.Errorf("scenario %s: assertion %d: suspect rank %d out of range (world %d)", s.Name, i, a.Rank, world)
			}
		case AssertNoFalseTrigger:
		case AssertMinReports, AssertMinRecords, AssertMinIterations:
			if a.Min <= 0 {
				return fmt.Errorf("scenario %s: assertion %d: %s needs min > 0", s.Name, i, a.Kind)
			}
		case AssertChain:
			if a.Min <= 0 {
				return fmt.Errorf("scenario %s: assertion %d: expect_chain needs min > 0 (hops)", s.Name, i)
			}
		case AssertVictims:
			if a.Min <= 0 && len(a.Victims) == 0 {
				return fmt.Errorf("scenario %s: assertion %d: expect_victims needs min > 0 or victims", s.Name, i)
			}
			for _, v := range a.Victims {
				if v < 0 || v >= world {
					return fmt.Errorf("scenario %s: assertion %d: victim rank %d out of range (world %d)", s.Name, i, v, world)
				}
			}
		case AssertRemediation:
			if a.None && a.Min > 0 {
				return fmt.Errorf("scenario %s: assertion %d: expect_remediation cannot set both none and min", s.Name, i)
			}
			if a.Rank >= world {
				return fmt.Errorf("scenario %s: assertion %d: rank %d out of range (world %d)", s.Name, i, a.Rank, world)
			}
			if a.Action != "" && !remedy.KnownAction(a.Action) {
				return fmt.Errorf("scenario %s: assertion %d: unknown action %q", s.Name, i, a.Action)
			}
			for _, o := range a.Outcomes {
				if !remedy.KnownOutcome(o) {
					return fmt.Errorf("scenario %s: assertion %d: unknown outcome %q", s.Name, i, o)
				}
			}
		case AssertRecovered:
			if a.Rank >= world {
				return fmt.Errorf("scenario %s: assertion %d: rank %d out of range (world %d)", s.Name, i, a.Rank, world)
			}
		case AssertChannel:
			if _, err := parseChannel(a.Channel); err != nil {
				return fmt.Errorf("scenario %s: assertion %d: %w", s.Name, i, err)
			}
			if a.None && (a.Min > 0 || a.Reports > 0) {
				return fmt.Errorf("scenario %s: assertion %d: expect_channel cannot set both none and min/reports", s.Name, i)
			}
			if a.Min < 0 || a.Reports < 0 {
				return fmt.Errorf("scenario %s: assertion %d: negative channel expectation", s.Name, i)
			}
		case AssertModality:
			if _, err := parseChannel(a.Channel); err != nil {
				return fmt.Errorf("scenario %s: assertion %d: %w", s.Name, i, err)
			}
			if a.MinConfidence < 0 || a.MinConfidence > 1 {
				return fmt.Errorf("scenario %s: assertion %d: min_confidence %v outside [0, 1]", s.Name, i, a.MinConfidence)
			}
			switch a.Outcome {
			case "", core.FusionSingle, core.FusionCorroborated, core.FusionConflicted:
			default:
				return fmt.Errorf("scenario %s: assertion %d: unknown fusion outcome %q", s.Name, i, a.Outcome)
			}
		case AssertNoRecords:
		default:
			return fmt.Errorf("scenario %s: assertion %d: unknown kind %q", s.Name, i, a.Kind)
		}
	}
	return nil
}

// injectionsFor counts the injections one job can see: inject events
// targeting it (or all jobs) plus chaos samples.
func (s Spec) injectionsFor(job int) int {
	n := 0
	for _, ev := range s.Events {
		if ev.Action == ActInject && (ev.Job == -1 || ev.Job == job) {
			n++
		}
	}
	if s.Chaos != nil {
		n += s.Chaos.guaranteedFaults(s.runFor())
	}
	return n
}

// minInjections bounds an assertion's Event index: for a specific job, that
// job's injection count; for job == -1 the minimum across the fleet, since
// the assertion must hold for every member.
func (s Spec) minInjections(job, jobs int) int {
	if job >= 0 {
		return s.injectionsFor(job)
	}
	min := s.injectionsFor(0)
	for j := 1; j < jobs; j++ {
		if n := s.injectionsFor(j); n < min {
			min = n
		}
	}
	return min
}
