package mycroft

import (
	"slices"
	"sort"
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/depgraph"
	"mycroft/internal/sim"
)

// TraceQuery asks one hosted job's trace store for raw Coll-level
// records. Zero-value predicates match everything.
//
// The JSON tags on the query and result types are the /v1 wire protocol (see
// internal/api): the struct a caller fills in is the request body.
type TraceQuery struct {
	// Job selects the hosted job. Empty is allowed only when the service
	// hosts exactly one.
	Job JobID `json:"job,omitempty"`
	// Ranks restricts to these ranks (nil = all; with Comm set, the
	// communicator's members).
	Ranks []Rank `json:"ranks,omitempty"`
	// Comm restricts to one communicator (0 = any).
	Comm uint64 `json:"comm,omitempty"`
	// Kinds restricts record kinds (nil = any).
	Kinds []RecordKind `json:"kinds,omitempty"`
	// From and To bound emission time as (From, To] in virtual time.
	// To 0 means "now".
	From time.Duration `json:"from_ns,omitempty"`
	To   time.Duration `json:"to_ns,omitempty"`
	// Limit caps the page size (0 = everything). Resume with Cursor.
	Limit int `json:"limit,omitempty"`
	// Cursor continues a paginated query; pass TraceResult.Next verbatim.
	Cursor *TraceCursor `json:"cursor,omitempty"`
}

// TraceCursor marks where a paginated TraceQuery resumes.
type TraceCursor = clouddb.Cursor

// TraceResult is one page of matching records, ordered by (rank, time).
type TraceResult struct {
	Job     JobID         `json:"job"`
	Records []TraceRecord `json:"records"`
	// Total counts every match of the query, computed on the walk's first
	// page; a cursor-resumed page that fills to Limit reports -1 instead of
	// re-scanning the remainder (track progress from the first page).
	Total int `json:"total"`
	// Next is non-nil when Limit cut the page short.
	Next *TraceCursor `json:"next,omitempty"`
}

// QueryTrace answers a TraceQuery against the job's trace store.
func (s *Service) QueryTrace(q TraceQuery) (TraceResult, error) {
	h, err := s.resolveJob(q.Job)
	if err != nil {
		return TraceResult{}, err
	}
	to := sim.Time(q.To)
	if q.To == 0 {
		to = s.Eng.Now()
	}
	res := h.Job.DB.Query(clouddb.Query{
		Ranks: q.Ranks, Comm: q.Comm, Kinds: q.Kinds,
		From: sim.Time(q.From), To: to,
		Limit: q.Limit, Cursor: q.Cursor,
	})
	return TraceResult{Job: h.ID, Records: res.Records, Total: res.Total, Next: res.Next}, nil
}

// TriggerQuery asks for Algorithm 1 firings across hosted jobs.
type TriggerQuery struct {
	// Jobs restricts to these hosted jobs (nil = all).
	Jobs []JobID `json:"jobs,omitempty"`
	// Ranks restricts to triggers fired by these sampled ranks.
	Ranks []Rank `json:"ranks,omitempty"`
	// Kinds restricts to failure and/or straggler triggers.
	Kinds []TriggerKind `json:"kinds,omitempty"`
	// From and To bound the firing time, inclusive. To 0 means unbounded.
	From time.Duration `json:"from_ns,omitempty"`
	To   time.Duration `json:"to_ns,omitempty"`
	// Offset and Limit paginate the matched set (Limit 0 = everything).
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// JobTrigger is a trigger tagged with the job it fired on. The tag makes the
// embedded trigger a named member on the wire, not a flattened one.
type JobTrigger struct {
	Job     JobID `json:"job"`
	Trigger `json:"trigger"`
}

// TriggerResult is one page of matches, ordered by firing time (job arrival
// order breaks ties). Total counts all matches before pagination;
// NextOffset is the offset of the first unreturned match, -1 when this page
// exhausted them.
type TriggerResult struct {
	Triggers   []JobTrigger `json:"triggers"`
	Total      int          `json:"total"`
	NextOffset int          `json:"next_offset"`
}

// QueryTriggers answers a TriggerQuery across the selected jobs.
func (s *Service) QueryTriggers(q TriggerQuery) (TriggerResult, error) {
	jobs, err := s.selectJobs(q.Jobs)
	if err != nil {
		return TriggerResult{}, err
	}
	return q.over(jobs), nil
}

// over answers the query from the given jobs' histories.
func (q TriggerQuery) over(jobs []jobLog) TriggerResult {
	var all []JobTrigger
	for _, j := range jobs {
		for _, tr := range j.Triggers() {
			if len(q.Ranks) > 0 && !slices.Contains(q.Ranks, tr.Rank) {
				continue
			}
			if len(q.Kinds) > 0 && !slices.Contains(q.Kinds, tr.Kind) {
				continue
			}
			if !inWindow(time.Duration(tr.At), q.From, q.To) {
				continue
			}
			all = append(all, JobTrigger{Job: j.id, Trigger: tr})
		}
	}
	return q.page(all)
}

// page orders the matches by firing time and cuts the query's page.
func (q TriggerQuery) page(all []JobTrigger) TriggerResult {
	page, total, next := mergePage(all, func(t JobTrigger) sim.Time { return t.At }, q.Offset, q.Limit)
	return TriggerResult{Triggers: page, Total: total, NextOffset: next}
}

// ReportQuery asks for Algorithm 2 verdicts across hosted jobs.
type ReportQuery struct {
	// Jobs restricts to these hosted jobs (nil = all).
	Jobs []JobID `json:"jobs,omitempty"`
	// Suspects restricts to verdicts naming these ranks.
	Suspects []Rank `json:"suspects,omitempty"`
	// Categories restricts to these RC-table categories.
	Categories []Category `json:"categories,omitempty"`
	// Comm restricts to verdicts reached on one communicator (0 = any).
	Comm uint64 `json:"comm,omitempty"`
	// From and To bound the analysis time, inclusive. To 0 means unbounded.
	From time.Duration `json:"from_ns,omitempty"`
	To   time.Duration `json:"to_ns,omitempty"`
	// Offset and Limit paginate the matched set (Limit 0 = everything).
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// JobReport is a verdict tagged with the job it was produced for.
type JobReport struct {
	Job    JobID `json:"job"`
	Report `json:"report"`
}

// ReportResult is one page of matches, ordered by analysis time (job
// arrival order breaks ties). Total counts all matches before pagination;
// NextOffset is -1 when this page exhausted them.
type ReportResult struct {
	Reports    []JobReport `json:"reports"`
	Total      int         `json:"total"`
	NextOffset int         `json:"next_offset"`
}

// QueryReports answers a ReportQuery across the selected jobs.
func (s *Service) QueryReports(q ReportQuery) (ReportResult, error) {
	jobs, err := s.selectJobs(q.Jobs)
	if err != nil {
		return ReportResult{}, err
	}
	return q.over(jobs), nil
}

// over answers the query from the given jobs' histories.
func (q ReportQuery) over(jobs []jobLog) ReportResult {
	var all []JobReport
	for _, j := range jobs {
		for _, rep := range j.Reports() {
			if len(q.Suspects) > 0 && !slices.Contains(q.Suspects, rep.Suspect) {
				continue
			}
			if len(q.Categories) > 0 && !slices.Contains(q.Categories, rep.Category) {
				continue
			}
			if q.Comm != 0 && rep.CommID != q.Comm {
				continue
			}
			if !inWindow(time.Duration(rep.AnalyzedAt), q.From, q.To) {
				continue
			}
			all = append(all, JobReport{Job: j.id, Report: rep})
		}
	}
	return q.page(all)
}

// page orders the matches by analysis time and cuts the query's page.
func (q ReportQuery) page(all []JobReport) ReportResult {
	page, total, next := mergePage(all, func(r JobReport) sim.Time { return r.AnalyzedAt }, q.Offset, q.Limit)
	return ReportResult{Reports: page, Total: total, NextOffset: next}
}

// Dependency-graph views. The graph is maintained incrementally as each
// job's records ingest, so these queries read the current frontier without
// touching the trace store.
type (
	// DependencyNode is one op-level state: (rank, communicator, op seq).
	DependencyNode = depgraph.Node
	// DependencyEdge is one wait: From is blocked by To.
	DependencyEdge = depgraph.Edge
	// DependencyEdgeKind classifies an edge (barrier, pipeline, nested).
	DependencyEdgeKind = depgraph.EdgeKind
)

// Dependency edge kinds.
const (
	EdgeBarrier  = depgraph.EdgeBarrier
	EdgePipeline = depgraph.EdgePipeline
	EdgeNested   = depgraph.EdgeNested
)

// DependencyQuery asks one hosted job's dependency graph for its current
// wait edges.
type DependencyQuery struct {
	// Job selects the hosted job. Empty is allowed only when the service
	// hosts exactly one.
	Job JobID `json:"job,omitempty"`
	// Comm restricts to edges touching one communicator, including nested
	// hops out of it (0 = all).
	Comm uint64 `json:"comm,omitempty"`
	// Ranks restricts to edges whose endpoints involve one of these ranks
	// (nil = all).
	Ranks []Rank `json:"ranks,omitempty"`
	// RenderDOT additionally renders the whole (unfiltered) graph as
	// Graphviz dot into DependencyResult.DOT, so a remote caller gets the
	// deterministic export without a second round trip.
	RenderDOT bool `json:"render_dot,omitempty"`
}

// DependencyResult is the matched edge set, grouped per communicator in
// ascending id order (wait edges first, then nested hops; deterministic).
type DependencyResult struct {
	Job   JobID            `json:"job"`
	Edges []DependencyEdge `json:"edges"`
	// DOT is the Graphviz export of the job's full graph (RenderDOT only).
	DOT string `json:"dot,omitempty"`
}

// QueryDependencies answers a DependencyQuery from the job's live graph.
func (s *Service) QueryDependencies(q DependencyQuery) (DependencyResult, error) {
	h, err := s.resolveJob(q.Job)
	if err != nil {
		return DependencyResult{}, err
	}
	edges := h.Backend.Graph().Edges(q.Comm)
	if len(q.Ranks) > 0 {
		edges = slices.DeleteFunc(edges, func(e DependencyEdge) bool {
			return !slices.Contains(q.Ranks, e.From.Rank) && !slices.Contains(q.Ranks, e.To.Rank)
		})
	}
	res := DependencyResult{Job: h.ID, Edges: edges}
	if q.RenderDOT {
		res.DOT = h.Backend.Graph().DOT()
	}
	return res, nil
}

// BlastRadius returns every rank the job's dependency graph shows
// transitively blocked by the given rank right now (sorted; the rank itself
// is excluded). An empty job id is allowed only when the service hosts
// exactly one job.
func (s *Service) BlastRadius(job JobID, suspect Rank) ([]Rank, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return nil, err
	}
	return h.Backend.Graph().Victims(suspect), nil
}

// verdictLog is one job's verdict history as the paged queries read it: a
// hosted job answers from its backend and remediation loop, a job this
// daemon merely follows from its replica's decoded event log.
type verdictLog interface {
	Triggers() []Trigger
	Reports() []Report
	RemediationLog() []RemedyAttempt
}

// jobLog is a verdictLog tagged with the job it belongs to.
type jobLog struct {
	id JobID
	verdictLog
}

// mergePage is the step every paged verdict answer ends in — a Service over
// its hosted jobs, a replica over the jobs it follows, a cluster client over
// its peers' answers: order the gathered matches by time and cut one page.
// The sort is stable, so ties keep the order the caller gathered them in.
func mergePage[T any](all []T, at func(T) sim.Time, offset, limit int) (page []T, total, next int) {
	sort.SliceStable(all, func(i, j int) bool { return at(all[i]) < at(all[j]) })
	page = paginate(all, offset, limit)
	return page, len(all), nextOffset(offset, len(page), len(all))
}

func inWindow(at, from, to time.Duration) bool {
	if at < from {
		return false
	}
	if to > 0 && at > to {
		return false
	}
	return true
}

// nextOffset computes a paginated result's resume offset: the index of the
// first unreturned match, or -1 when the page reached the end of the
// matched set.
func nextOffset(offset, page, total int) int {
	if offset < 0 {
		offset = 0
	}
	if offset+page >= total {
		return -1
	}
	return offset + page
}

// paginate slices one page out of the matched set. Negative Offset/Limit
// are clamped to "from the start" / "no cap" — callers hand these straight
// from user queries, so they must never panic or mis-slice.
func paginate[T any](all []T, offset, limit int) []T {
	if offset < 0 {
		offset = 0
	}
	if offset >= len(all) {
		return nil
	}
	all = all[offset:]
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}
