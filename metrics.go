package mycroft

import (
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/obs"
)

// initMetrics builds the service's registry and the service-wide
// instruments. The GaugeFunc callbacks here read engine-owned state, so a
// scraper must serialize with the drive loop (the daemon samples them under
// its request mutex and renders the scrape after).
func (s *Service) initMetrics() {
	s.reg = obs.New()
	s.subDelivered = s.reg.Counter("mycroft_subscription_events_total",
		"Events delivered to subscription streams.")
	s.subDropped = s.reg.Counter("mycroft_subscription_events_dropped_total",
		"Events aged out of full subscription buffers.")
	s.reg.GaugeFunc("mycroft_subscriptions_active", "Live subscription streams.", func() float64 {
		s.streamsMu.Lock()
		defer s.streamsMu.Unlock()
		return float64(len(s.streams))
	})
	s.reg.GaugeFunc("mycroft_jobs", "Hosted jobs.", func() float64 { return float64(len(s.order)) })
}

// Metrics returns the service's instrument registry, for exposition
// (Registry.WritePrometheus) or ad-hoc inspection.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// registerJobMetrics attaches the per-job instrument sets: store ingest and
// query instruments, detection instruments, occupancy gauges and the health
// gauge, all labeled {job="<id>"}.
func (s *Service) registerJobMetrics(h *JobHandle) {
	jl := obs.L("job", string(h.ID))
	db := h.Job.DB
	db.SetMetrics(&clouddb.Metrics{
		Records:      s.reg.Counter("mycroft_ingest_records_total", "Trace records ingested into the store.", jl),
		Bytes:        s.reg.Counter("mycroft_ingest_bytes_total", "Trace bytes ingested, counted as the 112-byte wire slot (trace.WireSize) per record.", jl),
		Batches:      s.reg.Counter("mycroft_ingest_batches_total", "Ingest batches accepted.", jl),
		Pruned:       s.reg.Counter("mycroft_store_pruned_records_total", "Records dropped by the retention horizon.", jl),
		Queries:      s.reg.Counter("mycroft_queries_total", "Unified store query pages served.", jl),
		QueryLatency: s.reg.Histogram("mycroft_query_latency_seconds", "Wall-clock store query latency in seconds.", obs.LatencyBuckets, jl),
	})
	h.Backend.SetMetrics(&core.Metrics{
		Triggers: map[string]*obs.Counter{
			"failure":   s.reg.Counter("mycroft_triggers_total", "Algorithm 1 firings, by kind.", jl, obs.L("kind", "failure")),
			"straggler": s.reg.Counter("mycroft_triggers_total", "Algorithm 1 firings, by kind.", jl, obs.L("kind", "straggler")),
		},
		Reports:    s.reg.Counter("mycroft_reports_total", "Algorithm 2 verdicts delivered.", jl),
		RCALatency: s.reg.Histogram("mycroft_rca_latency_seconds", "Wall-clock root-cause analysis latency in seconds.", obs.LatencyBuckets, jl),
		ChainDepth: s.reg.Histogram("mycroft_rca_chain_depth", "Causal-chain hops per report.", obs.DepthBuckets, jl),
	})
	s.reg.GaugeFunc("mycroft_store_records", "Live (unpruned) records in the store.",
		func() float64 { return float64(db.LiveRecords()) }, jl)
	s.reg.GaugeFunc("mycroft_store_bytes", "Heap bytes the store holds: sealed segments and open buffers at their size class, and flow tables.",
		func() float64 { return float64(db.StoreBytes()) }, jl)
	s.reg.GaugeFunc("mycroft_job_health", "Job health (0 stopped, 1 healthy, 2 degraded, 3 stale).",
		func() float64 { return float64(healthScore(h.health)) }, jl)
	s.reg.GaugeFunc("mycroft_job_last_ingest_age_seconds", "Virtual seconds since records last reached the store.",
		func() float64 { return (s.Now() - h.lastIngest).Seconds() }, jl)
}

// observeRemedyMetrics audits one remediation transition. Attempts are rare
// (human-scale), so register-on-demand keeps the outcome label space exact
// without pre-declaring every action×outcome pair.
func (s *Service) observeRemedyMetrics(job JobID, a RemedyAttempt) {
	jl := obs.L("job", string(job))
	s.reg.Counter("mycroft_remedy_attempts_total", "Remediation attempt transitions, by action and outcome.",
		jl, obs.L("action", string(a.Action.Kind)), obs.L("outcome", string(a.Outcome))).Inc()
	if a.Outcome == RemedySucceeded {
		s.reg.Histogram("mycroft_remedy_verify_seconds", "Virtual seconds from action applied to verified success.",
			obs.DurationBuckets, jl).Observe(time.Duration(a.ResolvedAt - a.AppliedAt).Seconds())
	}
}
