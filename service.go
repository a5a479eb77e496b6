package mycroft

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/obs"
	"mycroft/internal/otrace"
	"mycroft/internal/pystack"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
	"mycroft/internal/train"
)

// JobID addresses one hosted training job inside a Service.
type JobID = api.JobID

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// Seed makes every hosted job's run reproducible. Default 1.
	Seed int64
}

// Service is Mycroft's multi-tenant analysis backend: N independent training
// jobs — each with its own topology, workload profile, trace store and
// always-on backend — hosted on one deterministic discrete-event engine.
// Jobs are addressed by JobID; observers attach with Subscribe and the
// QueryTrace/QueryTriggers/QueryReports layer answers questions the old
// single-job callbacks could not express.
type Service struct {
	Eng *sim.Engine

	jobs    map[JobID]*JobHandle
	order   []JobID
	started bool
	seed    int64

	// streamsMu guards the subscription list and the event-log hook alone: a
	// consumer goroutine may Subscribe or Close a Stream while the engine
	// dispatches (the daemon shape). Everything else on the Service keeps the
	// engine's single-threaded contract.
	streamsMu sync.Mutex
	streams   []*Stream
	// logEvent, when set, receives every dispatched event beside the streams:
	// it is how a Server feeds the per-job event logs remote subscribers
	// tail. It is not a Stream, so it counts in no subscription statistic.
	logEvent func(Event)

	// Observability plane: the instrument registry, the subscription
	// counters Stream.deliver bumps, and the heartbeat monitor.
	reg          *obs.Registry
	subDelivered *obs.Counter
	subDropped   *obs.Counter
	healthTicker *sim.Ticker
}

// NewService builds an empty Service; add jobs with AddJob.
func NewService(opts ServiceOptions) *Service {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	s := &Service{Eng: sim.NewEngine(opts.Seed), jobs: make(map[JobID]*JobHandle), seed: opts.Seed}
	s.initMetrics()
	return s
}

// JobOptions sizes one hosted job. The zero value is a runnable 8-GPU job.
type JobOptions struct {
	// Topo sizes the cluster. Default topo.Small: 2 nodes × 4 GPUs, TP=2
	// PP=2 DP=2.
	Topo TopoConfig
	// Train overrides the workload; leave zero to derive from Topo with
	// defaults. If both Train.Topo and Topo are set they must agree.
	Train *TrainConfig
	// Backend tunes the trigger/RCA thresholds (§9 heuristics).
	Backend BackendConfig
	// CommHeavy weights iterations toward communication.
	CommHeavy bool
}

// resolve fills defaults and reconciles the two places a topology can be
// declared. A caller-supplied Train.Topo that disagrees with Topo is an
// error, not something to silently clobber.
func (o JobOptions) resolve() (train.Config, error) {
	topoSet := o.Topo != (TopoConfig{})
	if o.Train == nil {
		if !topoSet {
			o.Topo = topo.Small()
		}
		profile := train.ComputeHeavy
		if o.CommHeavy {
			profile = train.CommHeavy
		}
		return train.JobConfig(o.Topo, profile), nil
	}
	tc := *o.Train
	trainTopoSet := tc.Topo != (TopoConfig{})
	switch {
	case trainTopoSet && topoSet && tc.Topo != o.Topo:
		return train.Config{}, fmt.Errorf("mycroft: Train.Topo %+v conflicts with Topo %+v (set one, or make them agree)", tc.Topo, o.Topo)
	case trainTopoSet:
		// The workload's own topology wins when Topo is unset.
	default:
		if !topoSet {
			o.Topo = topo.Small()
		}
		tc.Topo = o.Topo
	}
	return tc, nil
}

// AddJob hosts a new job on the service's engine. An empty id is assigned
// "job-N" in arrival order; a duplicate id is an error. The job is built
// immediately but idle until Start.
func (s *Service) AddJob(id JobID, opts JobOptions) (*JobHandle, error) {
	if id == "" {
		for i := len(s.order); ; i++ {
			candidate := JobID(fmt.Sprintf("job-%d", i))
			if _, taken := s.jobs[candidate]; !taken {
				id = candidate
				break
			}
		}
	}
	if _, dup := s.jobs[id]; dup {
		return nil, fmt.Errorf("mycroft: job %q already hosted", id)
	}
	tc, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	job, err := train.New(s.Eng, tc)
	if err != nil {
		return nil, err
	}
	sampled := core.SampleRanks(job.Cluster.DPGroups(), opts.Backend.MaxSampled)
	if len(sampled) == 0 {
		sampled = core.SampleWorld(job.Cluster.WorldSize(), opts.Backend.MaxSampled)
	}
	bk := core.NewBackend(s.Eng, job.DB, sampled, opts.Backend)
	h := &JobHandle{ID: id, svc: s, Job: job, Backend: bk, health: HealthStopped}
	// One span recorder per job: every pipeline layer — collector upload,
	// store ingest, detection, RCA, publish, fan-out, remediation — threads
	// its stage spans through the same tracer so an incident reads as one
	// causal tree.
	h.tracer = otrace.NewTracer(otrace.NewRecorder(otrace.DefaultCapacity, s.Eng.Now), string(id))
	job.DB.SetTracer(h.tracer)
	bk.SetTracer(h.tracer)
	for _, agent := range job.Agents {
		agent.SetTracer(h.tracer)
	}
	bk.SetPublisher(func(ev core.Event) {
		s.dispatch(Event{
			Job: id, Kind: ev.Kind, At: time.Duration(ev.At),
			Trigger: ev.Trigger, Report: ev.Report, Phase: ev.Phase,
			LogAnomaly: ev.LogAnomaly,
		})
	})
	// The non-tracepoint channels report through the backend's evidence
	// fusion, as its own tracepoint verdicts do.
	h.channels = s.newJobChannels(id, job.Cluster.WorldSize(), bk.Fusion())
	s.registerJobMetrics(h)
	// The heartbeat watermark: any batch reaching the store proves the job's
	// agents are alive right now (virtual time).
	job.DB.AddIngestObserver(func([]trace.Record) { h.lastIngest = s.Now() })
	s.jobs[id] = h
	s.order = append(s.order, id)
	if s.started {
		h.Start()
	}
	return h, nil
}

// MustAddJob is AddJob for known-good options.
func (s *Service) MustAddJob(id JobID, opts JobOptions) *JobHandle {
	h, err := s.AddJob(id, opts)
	if err != nil {
		panic(err)
	}
	return h
}

// Tracer returns a hosted job's pipeline span tracer (nil for unknown jobs).
// Hosting layers — the cluster node's replicator, say — use it to extend an
// incident's tree with their own stages.
func (s *Service) Tracer(job JobID) *otrace.Tracer {
	if h, ok := s.jobs[job]; ok {
		return h.tracer
	}
	return nil
}

// Job returns the handle for a hosted job.
func (s *Service) Job(id JobID) (*JobHandle, bool) {
	h, ok := s.jobs[id]
	return h, ok
}

// Jobs lists hosted job ids in arrival order.
func (s *Service) Jobs() []JobID { return append([]JobID(nil), s.order...) }

// Start launches every hosted job and its backend, and arms the heartbeat
// monitor. Jobs added later start immediately.
func (s *Service) Start() {
	s.started = true
	for _, id := range s.order {
		s.jobs[id].Start()
	}
	s.armHealthMonitor()
}

// Stop halts every hosted job and backend and disarms the heartbeat monitor.
func (s *Service) Stop() {
	for _, id := range s.order {
		s.jobs[id].Stop()
	}
	s.disarmHealthMonitor()
	s.started = false
}

// Run advances virtual time by d for every hosted job.
func (s *Service) Run(d time.Duration) { s.Eng.RunFor(d) }

// Now returns the current virtual time from the start of the run.
func (s *Service) Now() time.Duration { return time.Duration(s.Eng.Now()) }

// dispatch fans one event out to the event-log hook and every live
// subscription, in subscribe order, then to the owning job's remediation
// loop — after the streams, so a subscriber always sees the provoking
// trigger/report before any EventAction it causes (the loop's reaction
// recursively dispatches).
func (s *Service) dispatch(e Event) {
	s.streamsMu.Lock()
	streams, logEvent := slices.Clone(s.streams), s.logEvent
	s.streamsMu.Unlock()
	if logEvent != nil {
		logEvent(e)
	}
	matched := 0
	for _, st := range streams {
		if st.filter.matches(e) {
			st.deliver(e)
			matched++
		}
	}
	if h := s.jobs[e.Job]; h != nil {
		// Pipeline events (not lifecycle/health chatter) record a deliver span
		// under the incident tree: virtually instantaneous, wall-timed.
		switch e.Kind {
		case EventTrigger, EventReport, EventAction:
			if t := h.tracer; t != nil {
				span := t.StageAt(otrace.StageDeliver, sim.Time(e.At))
				t.Annotate(span, "", fmt.Sprintf("%s fan-out to %d stream(s)", e.Kind, matched))
				t.EndAt(span, sim.Time(e.At))
			}
		}
		if e.Kind == EventReport && e.Report != nil {
			h.observeFusion(*e.Report)
		}
		h.observeRemedy(e)
	}
}

// resolveJob maps a query's job field to a handle; empty means "the sole
// hosted job" and is an error when the service hosts several.
func (s *Service) resolveJob(id JobID) (*JobHandle, error) {
	if id == "" {
		if len(s.order) == 1 {
			return s.jobs[s.order[0]], nil
		}
		return nil, fmt.Errorf("mycroft: query needs a Job id (service hosts %d jobs)", len(s.order))
	}
	h, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("mycroft: no job %q", id)
	}
	return h, nil
}

// selectJobs resolves a multi-job filter: nil/empty = every job, else the
// named jobs in arrival order.
func (s *Service) selectJobs(ids []JobID) ([]jobLog, error) {
	want := make(map[JobID]bool, len(ids))
	for _, id := range ids {
		if _, ok := s.jobs[id]; !ok {
			return nil, fmt.Errorf("mycroft: no job %q", id)
		}
		want[id] = true
	}
	out := make([]jobLog, 0, len(s.order))
	for _, id := range s.order {
		if len(ids) == 0 || want[id] {
			out = append(out, jobLog{id, s.jobs[id]})
		}
	}
	return out, nil
}

// JobHandle is one hosted job: the simulated training run, its trace store
// and its analysis backend.
type JobHandle struct {
	ID      JobID
	Job     *train.Job
	Backend *core.Backend

	svc      *Service
	started  bool
	remedy   *remedy.Engine
	isolated []Rank
	recorder *Recorder
	tracer   *otrace.Tracer
	channels *jobChannels

	// Heartbeat state, owned by the service's health monitor. lastIngest is
	// the virtual time records last reached the store.
	health       HealthState
	healthSince  time.Duration
	healthReason string
	lastIngest   time.Duration
}

// Start launches the job's training script and backend (idempotent). Health
// moves to healthy silently — the lifecycle event is the announcement; only
// watermark-driven transitions emit EventHealth.
func (h *JobHandle) Start() {
	if h.started {
		return
	}
	h.started = true
	h.health, h.healthSince, h.healthReason = HealthHealthy, h.svc.Now(), ""
	h.lastIngest = h.svc.Now()
	h.svc.dispatch(Event{Job: h.ID, Kind: EventLifecycle, At: h.svc.Now(), Phase: PhaseJobStarted})
	h.Job.Start()
	h.Backend.Start()
}

// Stop halts the job and its backend (idempotent). Health moves to stopped
// silently, mirroring Start.
func (h *JobHandle) Stop() {
	if !h.started {
		return
	}
	h.started = false
	h.health, h.healthSince, h.healthReason = HealthStopped, h.svc.Now(), ""
	h.Backend.Stop()
	h.Job.Stop()
	h.svc.dispatch(Event{Job: h.ID, Kind: EventLifecycle, At: h.svc.Now(), Phase: PhaseJobStopped})
}

// Inject schedules a fault on this job.
func (h *JobHandle) Inject(f Fault) { faults.Inject(h.Job, f) }

// InjectPlan schedules a whole programmatic injection plan.
func (h *JobHandle) InjectPlan(p faults.Plan) { p.Inject(h.Job) }

// Recover schedules the undo of a recoverable fault (see faults.Recover).
func (h *JobHandle) Recover(f Fault) { faults.Recover(h.Job, f) }

// WorldSize returns the number of ranks in this job's cluster.
func (h *JobHandle) WorldSize() int { return h.Job.Cluster.WorldSize() }

// RecordsIngested returns how many trace records reached this job's store.
func (h *JobHandle) RecordsIngested() uint64 { return h.Job.DB.Ingested() }

// StoreStats reports the job's trace-store counters.
func (h *JobHandle) StoreStats() clouddb.Stats { return h.Job.DB.Stats() }

// DependencyDOT renders the job's current dependency graph in Graphviz dot
// syntax (deterministic; see internal/depgraph).
func (h *JobHandle) DependencyDOT() string { return h.Backend.Graph().DOT() }

// Triggers returns every Algorithm 1 firing so far.
func (h *JobHandle) Triggers() []Trigger { return h.Backend.Triggers() }

// Reports returns every Algorithm 2 verdict so far.
func (h *JobHandle) Reports() []Report { return h.Backend.Reports() }

// Triage runs the Fig. 6 integration pipeline over the latest report and
// returns which reliability system named the root cause ("py-spy",
// "flight-recorder" or "mycroft"), the rank it named and what it said.
// py-spy stacks go first (dataloader/checkpoint stalls), then the Flight
// Recorder rings (synchronization bugs), and only then does the Coll-level
// verdict stand — bounding the problematic layer before blaming the CCL
// (§6.2).
func (h *JobHandle) Triage() (source string, rank Rank, summary string, ok bool) {
	reps := h.Backend.Reports()
	if len(reps) == 0 {
		return "", -1, "", false
	}
	rep := reps[len(reps)-1]
	if stuck := pystack.Analyze(h.Job.PyStack.Dump()).StuckInDataPath(); len(stuck) > 0 {
		return "py-spy", stuck[0].Rank, fmt.Sprintf("rank %d stuck in %s since %v", stuck[0].Rank, stuck[0].Frame, stuck[0].Since), true
	}
	for _, f := range h.Job.FlightRec.Analyze(h.svc.Eng.Now(), 5*time.Second) {
		if f.Kind == "skipped-launch" && len(f.Ranks) > 0 {
			return "flight-recorder", f.Ranks[0], fmt.Sprintf("rank %d skipped a collective on comm %d: %s", f.Ranks[0], f.CommID, f.Details), true
		}
	}
	// Cross-check: Mycroft concluded "rank never launched the op", but if
	// the Flight Recorder shows the rank DID launch it, the layer between
	// the framework and the wire — the proxy — is dead.
	if rep.Category == core.CatNotLaunched && rep.Suspect >= 0 {
		last := h.Job.FlightRec.LastOpPerRank(rep.CommID)
		var peerMax uint64
		for r, s := range last {
			if r != rep.Suspect && s > peerMax {
				peerMax = s
			}
		}
		if s, ok := last[rep.Suspect]; ok && s >= peerMax && peerMax > 0 {
			return "mycroft", rep.Suspect, fmt.Sprintf("rank %d launched op seq %d but its proxy produced no trace — proxy crash", rep.Suspect, s), true
		}
	}
	return "mycroft", rep.Suspect, rep.String(), true
}
