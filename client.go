package mycroft

import (
	"time"

	"mycroft/internal/api"
)

// Client is the transport-agnostic face of a Mycroft deployment: the one
// method set every consumer — CLI, scenario runner, dashboard — programs
// against, whether the engine runs in-process (*Service), behind a
// mycroft-serve daemon (*RemoteClient, via Dial) or across a fleet of them
// (*ClusterClient, via DialCluster). Every method but Subscribe is declared
// once more, for the transports, in the operation table in ops.go.
//
// Queries return explicit pagination (Total plus a cursor or NextOffset),
// and Subscribe hands back a *Stream: the streaming cursor. On a remote
// client the stream is fed by long-polls of each job's event log
// (POST /v1/tail); failures close it and surface through Stream.Err.
type Client interface {
	// ListJobs describes every hosted job and the service's virtual clock.
	ListJobs() (JobsResult, error)
	// QueryTrace pages raw Coll-level records out of a job's trace store.
	QueryTrace(TraceQuery) (TraceResult, error)
	// QueryTriggers pages Algorithm 1 firings across hosted jobs.
	QueryTriggers(TriggerQuery) (TriggerResult, error)
	// QueryReports pages Algorithm 2 verdicts across hosted jobs.
	QueryReports(ReportQuery) (ReportResult, error)
	// QueryDependencies reads a job's live dependency-graph wait edges.
	QueryDependencies(DependencyQuery) (DependencyResult, error)
	// BlastRadius lists the ranks transitively blocked by a suspect.
	BlastRadius(job JobID, suspect Rank) ([]Rank, error)
	// QueryRemediations pages the remediation audit log across hosted jobs.
	QueryRemediations(RemediationQuery) (RemediationResult, error)
	// QuerySpans reads a job's pipeline span ring: per-incident latency
	// attribution from ingest to remediation.
	QuerySpans(SpanQuery) (SpanResult, error)
	// Triage runs the Fig. 6 integration pipeline over a job's latest report.
	Triage(job JobID) (TriageResult, error)
	// Health reports per-job heartbeat state and subscription fan-out.
	Health() (HealthResult, error)
	// IngestLogs feeds structured training-log lines into a job's log
	// diagnosis channel (the tracepoint-free ingest path).
	IngestLogs(job JobID, lines []LogLine) (IngestResult, error)
	// IngestTimings feeds per-rank iteration timestamps into a job's
	// black-box perf channel.
	IngestTimings(job JobID, samples []IterationSample) (IngestResult, error)
	// ChannelStats reports a job's per-channel diagnosis counters and fusion
	// summary.
	ChannelStats(job JobID) (ChannelStatsResult, error)
	// Subscribe attaches a typed event subscription as a streaming cursor.
	Subscribe(EventFilter) *Stream
}

// Every transport satisfies the one Client contract.
var (
	_ Client = (*Service)(nil)
	_ Client = (*RemoteClient)(nil)
	_ Client = (*ClusterClient)(nil)
)

// JobInfo describes one hosted job: identity, size, progress, store
// occupancy and remediation state.
type JobInfo = api.JobInfo

// JobsResult is the job listing plus the service's current virtual time.
type JobsResult struct {
	Now  time.Duration `json:"now_ns"`
	Jobs []JobInfo     `json:"jobs"`
}

// ListJobs describes every hosted job in arrival order.
func (s *Service) ListJobs() (JobsResult, error) {
	res := JobsResult{Now: s.Now()}
	if len(s.order) > 0 { // an empty listing stays nil: null on the wire, not []
		res.Jobs = make([]JobInfo, 0, len(s.order))
	}
	for _, id := range s.order {
		h := s.jobs[id]
		info := JobInfo{
			ID: id, WorldSize: h.WorldSize(), Iterations: h.Job.IterationsDone(),
			Records: h.RecordsIngested(), Store: h.StoreStats(), Isolated: h.Isolated(),
		}
		if h.remedy != nil {
			info.Policy = h.remedy.Policy().Name
		}
		res.Jobs = append(res.Jobs, info)
	}
	return res, nil
}

// TriageResult is the combined py-spy / Flight Recorder / Mycroft verdict
// for a job's latest report. OK is false when the job has no reports yet.
type TriageResult struct {
	Job     JobID  `json:"job"`
	Source  string `json:"source"`
	Rank    Rank   `json:"rank"`
	Summary string `json:"summary"`
	OK      bool   `json:"ok"`
}

// Triage runs the Fig. 6 integration pipeline over one hosted job. An empty
// job id is allowed only when the service hosts exactly one job.
func (s *Service) Triage(job JobID) (TriageResult, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return TriageResult{}, err
	}
	source, rank, summary, ok := h.Triage()
	return TriageResult{Job: h.ID, Source: source, Rank: rank, Summary: summary, OK: ok}, nil
}
