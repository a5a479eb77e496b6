package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mycroft"
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/remedy"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// JobResult is the per-fleet-member outcome: what ran, what was injected,
// and what Mycroft concluded.
type JobResult struct {
	Index int `json:"index"`
	// JobID is the job's service address ("job-N").
	JobID      string      `json:"job_id"`
	Template   string      `json:"template"`
	Topo       topo.Config `json:"topo"`
	CommHeavy  bool        `json:"comm_heavy,omitempty"`
	WorldSize  int         `json:"world_size"`
	Iterations int         `json:"iterations"`
	// Records is how many trace records reached the cloud DB.
	Records  uint64   `json:"records"`
	Injected []string `json:"injected,omitempty"`
	Triggers []string `json:"triggers,omitempty"`
	Reports  []string `json:"reports,omitempty"`
	// DetectLatency is first-trigger time minus first-injection time (0 when
	// nothing fired or nothing was injected).
	DetectLatency Dur `json:"detect_latency,omitempty"`
	// RCALatency is first-verdict time minus first-injection time.
	RCALatency Dur `json:"rca_latency,omitempty"`
	// Accuracy is the fraction of injections faults.Judge finds diagnosed
	// by some later verdict.
	Accuracy float64 `json:"accuracy"`
	// Remediations is the job's audit log: every detect→act→verify attempt
	// the attached policy made (empty without a remediate stanza).
	Remediations []string `json:"remediations,omitempty"`
	// Channels renders the diagnosis channels that saw anomalies or
	// delivered verdicts (quiet channels are omitted).
	Channels []string `json:"channels,omitempty"`

	injected faults.Plan
	// verdicts holds faults.Judge's reading of each injection, in plan order.
	verdicts     []faults.Verdict
	triggers     []core.Trigger
	reports      []core.Report
	remediations []remedy.Attempt
	channels     mycroft.ChannelStatsResult
	// dispatched is the hosting engine's event count at the horizon (shared
	// by every member of a shared-engine fleet).
	dispatched uint64
}

// channelInfo finds one channel's counters in the job's stats.
func (j *JobResult) channelInfo(name string) (mycroft.ChannelInfo, bool) {
	for _, c := range j.channels.Channels {
		if string(c.Channel) == name {
			return c, true
		}
	}
	return mycroft.ChannelInfo{}, false
}

// Result is the structured pass/fail outcome of one scenario run. Every
// field derives from virtual time, so the same spec and seed render
// byte-for-byte identical Results.
type Result struct {
	Name     string      `json:"name"`
	Seed     int64       `json:"seed"`
	Pass     bool        `json:"pass"`
	Failures []string    `json:"failures,omitempty"`
	Jobs     []JobResult `json:"jobs"`
	// Asserted is how many assertions were evaluated (per-job expansions
	// counted individually).
	Asserted int `json:"asserted"`
}

// Render formats the result as a deterministic human-readable report.
func (r *Result) Render() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s (seed %d): %s\n", r.Name, r.Seed, verdict)
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "  job %s template=%s topo=%s world=%d comm-heavy=%v\n",
			j.JobID, j.Template, j.Topo, j.WorldSize, j.CommHeavy)
		fmt.Fprintf(&b, "    iterations=%d records=%d triggers=%d reports=%d\n",
			j.Iterations, j.Records, len(j.Triggers), len(j.Reports))
		if len(j.Injected) > 0 {
			fmt.Fprintf(&b, "    injected: %s\n", strings.Join(j.Injected, ", "))
			fmt.Fprintf(&b, "    detect=%v rca=%v accuracy=%.2f\n", j.DetectLatency, j.RCALatency, j.Accuracy)
		}
		for _, tr := range j.Triggers {
			fmt.Fprintf(&b, "    trigger: %s\n", tr)
		}
		for _, rep := range j.Reports {
			fmt.Fprintf(&b, "    report:  %s\n", rep)
		}
		for _, rem := range j.Remediations {
			fmt.Fprintf(&b, "    remedy:  %s\n", rem)
		}
		for _, ch := range j.Channels {
			fmt.Fprintf(&b, "    channel: %s\n", ch)
		}
	}
	fmt.Fprintf(&b, "  assertions: %d checked, %d failed\n", r.Asserted, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "    FAIL %s\n", f)
	}
	return b.String()
}

// RunOptions tunes one scenario execution beyond what the spec declares.
type RunOptions struct {
	// RecordDir, when non-empty, captures every fleet member's incident
	// artifact to <dir>/<job-id>.mycrec. Recorders attach before Start and
	// close at the horizon, so each artifact replays byte-for-byte.
	RecordDir string
}

// Run executes the scenario. seed overrides the spec's seed when non-zero.
// By default fleet members run sequentially on independent engines with
// seeds derived from the scenario seed; with Fleet.SharedEngine every
// member is hosted concurrently on one mycroft.Service. Both modes are
// exactly reproducible from the seed.
func Run(spec Spec, seed int64) (*Result, error) {
	return RunWith(spec, seed, RunOptions{})
}

// RunWith is Run with execution options (incident recording).
func RunWith(spec Spec, seed int64, opts RunOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = spec.Seed
	}
	if seed == 0 {
		seed = 1
	}
	res := &Result{Name: spec.Name, Seed: seed}
	jobs := resolveFleet(spec.Fleet, seed)
	if spec.Fleet.SharedEngine {
		p, err := prepare(spec, jobs, seed, seed, nil)
		if err != nil {
			return nil, err
		}
		if res.Jobs, err = run(p, opts); err != nil {
			return nil, err
		}
	} else {
		for i := range jobs {
			p, err := prepare(spec, jobs, seed, mix(seed, int64(i)), func(j int, _ string) bool { return j == i })
			if err != nil {
				return nil, err
			}
			jr, err := run(p, opts)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: job %d: %w", spec.Name, i, err)
			}
			res.Jobs = append(res.Jobs, jr...)
		}
	}
	res.Asserted, res.Failures = evaluate(spec, res)
	res.Pass = len(res.Failures) == 0
	return res, nil
}

// run drives a prepared fleet to its horizon, recording it when opts names
// a directory, and collects its results.
func run(p *Prepared, opts RunOptions) ([]JobResult, error) {
	closeRec, err := record(p.Service, p.Handles, opts.RecordDir)
	if err != nil {
		return nil, err
	}
	p.Start()
	p.Service.Run(p.Horizon())
	// Footers land at the horizon, before Stop's lifecycle events — the
	// artifact captures the analyzed run, not the teardown.
	if err := closeRec(); err != nil {
		return nil, err
	}
	defer p.Service.Stop()
	return p.Collect(), nil
}

// record attaches one incident recorder per fleet member, artifacts landing
// in dir. The returned closer finalizes every artifact (footer + file close)
// and must run before Service.Stop. With dir empty both halves are no-ops.
func record(svc *mycroft.Service, handles []*mycroft.JobHandle, dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []*os.File
	var recs []*mycroft.Recorder
	cleanup := func() error {
		var first error
		for i, rec := range recs {
			if err := rec.Close(); err != nil && first == nil {
				first = err
			}
			if err := files[i].Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, h := range handles {
		f, err := os.Create(filepath.Join(dir, string(h.ID)+".mycrec"))
		if err != nil {
			cleanup()
			return nil, err
		}
		rec, err := svc.Record(h.ID, f)
		if err != nil {
			f.Close()
			cleanup()
			return nil, err
		}
		files = append(files, f)
		recs = append(recs, rec)
	}
	return cleanup, nil
}

// Prepared is a shared-engine fleet built from a spec but not yet driven:
// the Service hosts every member with its policies attached and its
// injection schedule compiled. A caller that wants the classic batch run
// uses Run; a caller that wants to *serve* the fleet (mycroft-serve
// -scenario) wraps Prepared.Service in a mycroft.Server, Starts it, and
// advances virtual time at its own pace.
type Prepared struct {
	Spec    Spec
	Seed    int64
	Service *mycroft.Service
	Handles []*mycroft.JobHandle

	jobs    []jobSpec
	plans   []faults.Plan
	indices []int // original fleet index of each hosted member
}

// PrepareSubset builds only the fleet members keep selects, preserving each
// member's identity: a kept job carries the same id ("job-N"), topology,
// policies, and injection-schedule seed it would have in the full fleet.
// That invariant is what lets a cluster shard a scenario: every
// mycroft-serve peer calls PrepareSubset with the same spec and seed but
// its own placement predicate, and the union of the shards is
// byte-identical to one engine hosting everything. keep == nil keeps all;
// a peer that owns no members gets an empty (but valid) Service. The fleet
// is built on one Service regardless of the spec's shared_engine flag — a
// served fleet is always shared. seed overrides the spec's seed when
// non-zero.
func PrepareSubset(spec Spec, seed int64, keep func(index int, id string) bool) (*Prepared, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = spec.Seed
	}
	if seed == 0 {
		seed = 1
	}
	return prepare(spec, resolveFleet(spec.Fleet, seed), seed, seed, keep)
}

// prepare builds one Service for an already-resolved fleet, hosting only
// the members keep selects (nil keeps all). Per-member identity, and the
// injection schedule drawn from fleetSeed, are derived from the original
// fleet index regardless of the subset, so shards agree with the full
// fleet. svcSeed seeds the Service's engine.
func prepare(spec Spec, jobs []jobSpec, fleetSeed, svcSeed int64, keep func(index int, id string) bool) (*Prepared, error) {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: svcSeed})
	p := &Prepared{Spec: spec, Seed: fleetSeed, Service: svc}
	for i, js := range jobs {
		id := fmt.Sprintf("job-%d", i)
		if keep != nil && !keep(i, id) {
			continue
		}
		h, err := svc.AddJob(mycroft.JobID(id), jobOptions(js))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: job %d: %w", spec.Name, i, err)
		}
		if err := attachPolicies(spec, i, svc, h); err != nil {
			return nil, err
		}
		p.Handles = append(p.Handles, h)
		p.jobs = append(p.jobs, js)
		p.plans = append(p.plans, schedule(spec, i, mix(fleetSeed, int64(i)), h))
		scheduleFeeds(spec, i, svc, h)
		p.indices = append(p.indices, i)
	}
	return p, nil
}

// Start launches every hosted fleet member.
func (p *Prepared) Start() { p.Service.Start() }

// Horizon is how much virtual time the scenario runs for.
func (p *Prepared) Horizon() time.Duration { return p.Spec.runFor() }

// Collect builds the per-job results at the current virtual time.
func (p *Prepared) Collect() []JobResult {
	out := make([]JobResult, 0, len(p.jobs))
	for i, js := range p.jobs {
		out = append(out, collect(js, p.indices[i], p.Service, p.Handles[i], p.plans[i]))
	}
	return out
}

// MustRun is Run for known-good specs (the built-in library).
func MustRun(spec Spec, seed int64) *Result {
	res, err := Run(spec, seed)
	if err != nil {
		panic(err)
	}
	return res
}

// fillSeverity applies the campaign-tuned per-kind severity when the spec
// left it unset, as the evaluation's fault-injection cases do.
func fillSeverity(s faults.Spec) faults.Spec {
	if s.Severity == 0 {
		s.Severity = faults.SeverityFor(s.Kind)
	}
	return s
}

// attachPolicies arms the remediate stanzas targeting one fleet member.
func attachPolicies(spec Spec, idx int, svc *mycroft.Service, h *mycroft.JobHandle) error {
	for _, rem := range spec.Remediate {
		if rem.Job != -1 && rem.Job != idx {
			continue
		}
		if err := svc.AttachPolicy(h.ID, rem.policy()); err != nil {
			return fmt.Errorf("scenario %s: job %d: %w", spec.Name, idx, err)
		}
	}
	return nil
}

// jobOptions maps one resolved fleet member to the service job options.
func jobOptions(js jobSpec) mycroft.JobOptions {
	opts := mycroft.JobOptions{Topo: js.Topo, CommHeavy: js.CommHeavy}
	if js.Window > 0 {
		opts.Backend.Window = js.Window.D()
	}
	if js.MaxSampled > 0 {
		opts.Backend.MaxSampled = js.MaxSampled
	}
	if js.Rearm > 0 {
		opts.Backend.RearmDelay = js.Rearm.D()
	}
	if js.CheckpointEvery > 0 || js.UploadLatency > 0 || js.NoTracing {
		profile := train.ComputeHeavy
		if js.CommHeavy {
			profile = train.CommHeavy
		}
		tc := train.JobConfig(js.Topo, profile)
		tc.CheckpointEvery = js.CheckpointEvery
		if js.UploadLatency > 0 {
			tc.Collector.UploadLatency = js.UploadLatency.D()
		}
		tc.DisableTracing = js.NoTracing
		opts.Train = &tc
	}
	return opts
}

// scheduleFeeds arms one fleet member's synthetic channel feeds (the
// logs:/timings: stanzas) on the engine clock. Every batch lands through
// the same Service ingest path external agents use, so analysis, events,
// fusion and metrics all fire exactly as they would in production.
func scheduleFeeds(spec Spec, idx int, svc *mycroft.Service, h *mycroft.JobHandle) {
	eng := h.Job.Eng
	world := h.WorldSize()
	for _, lg := range spec.Logs {
		if lg.Job != -1 && lg.Job != idx {
			continue
		}
		lg := lg
		count := lg.Count
		if count <= 0 {
			count = 1
		}
		every := lg.Every.D()
		if every <= 0 {
			every = time.Second
		}
		for rep := 0; rep < count; rep++ {
			eng.After(lg.At.D()+time.Duration(rep)*every, func() {
				var lines []mycroft.LogLine
				if lg.Rank < 0 {
					for r := 0; r < world; r++ {
						lines = append(lines, mycroft.LogLine{Rank: mycroft.Rank(r), Level: lg.Level, Text: lg.Text})
					}
				} else {
					lines = []mycroft.LogLine{{Rank: mycroft.Rank(lg.Rank), Level: lg.Level, Text: lg.Text}}
				}
				svc.IngestLogs(h.ID, lines)
			})
		}
	}
	for _, tm := range spec.Timings {
		if tm.Job != -1 && tm.Job != idx {
			continue
		}
		tm := tm
		period := tm.Period.D()
		straggles := tm.Factor > 1
		for i := 0; i < tm.Count; i++ {
			iter := i
			// Healthy ranks complete iteration i on cadence; the straggler
			// shares the batch until its onset, then falls behind on its own
			// stretched clock.
			eng.After(tm.Start.D()+time.Duration(i+1)*period, func() {
				var batch []mycroft.IterationSample
				for r := 0; r < world; r++ {
					if straggles && r == tm.Rank && iter >= tm.After {
						continue
					}
					batch = append(batch, mycroft.IterationSample{Rank: mycroft.Rank(r), Iter: iter})
				}
				svc.IngestTimings(h.ID, batch)
			})
			if straggles && iter >= tm.After {
				slow := time.Duration(float64(period) * tm.Factor)
				at := tm.Start.D() + time.Duration(tm.After)*period + time.Duration(iter-tm.After+1)*slow
				eng.After(at, func() {
					svc.IngestTimings(h.ID, []mycroft.IterationSample{{Rank: mycroft.Rank(tm.Rank), Iter: iter}})
				})
			}
		}
	}
}

// schedule compiles one job's timed schedule — explicit events targeting
// it, then its chaos samples — onto the handle, and returns the
// time-ordered injection plan.
func schedule(spec Spec, idx int, jobSeed int64, h *mycroft.JobHandle) faults.Plan {
	var plan, recoveries faults.Plan
	backendRunning := true
	eng := h.Job.Eng
	for _, ev := range spec.Events {
		if ev.Job != -1 && ev.Job != idx {
			continue
		}
		switch ev.Action {
		case ActInject:
			plan = append(plan, fillSeverity(ev.Fault.spec(ev.At)))
		case ActRecover:
			recoveries = append(recoveries, ev.Fault.spec(ev.At))
		case ActBackendStop:
			eng.After(ev.At.D(), func() {
				if backendRunning {
					backendRunning = false
					h.Backend.Stop()
				}
			})
		case ActBackendStart:
			eng.After(ev.At.D(), func() {
				if !backendRunning {
					backendRunning = true
					h.Backend.Start()
				}
			})
		case ActCollectorStop:
			eng.After(ev.At.D(), func() {
				for _, a := range h.Job.Agents {
					a.Stop()
				}
			})
		}
	}
	if spec.Chaos != nil {
		rng := rand.New(rand.NewSource(mix(jobSeed, 0x6368616f73))) // "chaos"
		cp := spec.Chaos.plan(rng, h.WorldSize(), spec.runFor())
		for _, s := range cp.inject {
			plan = append(plan, fillSeverity(s))
		}
		recoveries = append(recoveries, cp.recover...)
	}
	plan = plan.Sorted()
	h.InjectPlan(plan)
	for _, s := range recoveries.Sorted() {
		h.Recover(s)
	}
	return plan
}

// collect builds the per-job result after the horizon.
func collect(js jobSpec, idx int, svc *mycroft.Service, h *mycroft.JobHandle, plan faults.Plan) JobResult {
	jr := JobResult{
		Index: idx, JobID: string(h.ID), Template: js.Template, Topo: js.Topo, CommHeavy: js.CommHeavy,
		WorldSize: h.WorldSize(), Iterations: h.Job.IterationsDone(), Records: h.RecordsIngested(),
		injected: plan, triggers: h.Triggers(), reports: h.Reports(), remediations: h.RemediationLog(),
		dispatched: svc.Eng.Dispatched(),
	}
	if stats, err := svc.ChannelStats(h.ID); err == nil {
		jr.channels = stats
		for _, c := range stats.Channels {
			if c.Anomalies == 0 && c.Reports == 0 {
				continue
			}
			jr.Channels = append(jr.Channels, fmt.Sprintf("%s: ingested=%d anomalies=%d reports=%d",
				c.Channel, c.Ingested, c.Anomalies, c.Reports))
		}
	}
	for _, s := range plan {
		jr.Injected = append(jr.Injected, s.String())
	}
	for _, a := range jr.remediations {
		jr.Remediations = append(jr.Remediations, a.String())
	}
	for _, tr := range jr.triggers {
		jr.Triggers = append(jr.Triggers, tr.String())
	}
	for _, rep := range jr.reports {
		jr.Reports = append(jr.Reports, rep.String())
	}
	// The plan is time-ordered, so the first verdict's latencies are
	// measured from the earliest injection.
	diagnosed := 0
	for _, s := range plan {
		v := faults.Judge(s, h.Job.Cluster, jr.triggers, jr.reports)
		jr.verdicts = append(jr.verdicts, v)
		if v.Diagnosed != nil {
			diagnosed++
		}
	}
	if len(plan) > 0 {
		jr.DetectLatency = Dur(jr.verdicts[0].TriggerAfter)
		jr.RCALatency = Dur(jr.verdicts[0].ReportAfter)
		jr.Accuracy = float64(diagnosed) / float64(len(plan))
	}
	return jr
}

// injectionAt returns the job's i-th time-ordered injection and its verdict.
func (j JobResult) injectionAt(i int) (faults.Spec, faults.Verdict, bool) {
	if i < 0 || i >= len(j.injected) {
		return faults.Spec{}, faults.Verdict{}, false
	}
	return j.injected[i], j.verdicts[i], true
}
