package mycroft

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"mycroft/internal/otrace"
)

// Span re-exports the pipeline span record so downstream users need only
// this package. Spans carry both virtual (Start/End) and wall-clock
// (WallStart/WallEnd) timestamps; deterministic surfaces render only the
// virtual fields.
type Span = otrace.Span

// SpanID identifies one recorded span (monotonic per job; 0 = none).
type SpanID = otrace.SpanID

// Pipeline stage labels, re-exported for query filters and renderers.
const (
	StageIncident    = otrace.StageIncident
	StageUpload      = otrace.StageUpload
	StageIngest      = otrace.StageIngest
	StageDetect      = otrace.StageDetect
	StageRCA         = otrace.StageRCA
	StagePublish     = otrace.StagePublish
	StageDeliver     = otrace.StageDeliver
	StageApply       = otrace.StageApply
	StageVerify      = otrace.StageVerify
	StageReplicate   = otrace.StageReplicate
	StageLogAnalyze  = otrace.StageLogAnalyze
	StagePerfAnalyze = otrace.StagePerfAnalyze
)

// SpanQuery asks for pipeline spans from one job's recorder.
type SpanQuery struct {
	// Job addresses the hosted job (empty = the sole hosted job).
	Job JobID
	// Incident restricts to one causal tree by its cause label ("trigger-1").
	Incident string
	// Stage restricts to one pipeline stage ("rca", "remedy-apply", ...).
	Stage string
	// AfterID restricts to spans with ID > AfterID (incremental tailing).
	AfterID SpanID
	// MinWall keeps only closed spans at least this wall-clock wide — the
	// slow-op scan shape.
	MinWall time.Duration
	// Limit caps the returned page (0 = everything); Total still counts all.
	Limit int
}

// spanQueryToValues renders a span query's filters as the query string
// GET /v1/jobs/{id}/spans takes (the job rides the path).
func spanQueryToValues(q SpanQuery) url.Values {
	v := url.Values{}
	if q.Incident != "" {
		v.Set("incident", q.Incident)
	}
	if q.Stage != "" {
		v.Set("stage", q.Stage)
	}
	if q.AfterID != 0 {
		v.Set("after_id", strconv.FormatUint(uint64(q.AfterID), 10))
	}
	if q.MinWall > 0 {
		v.Set("min_wall_ns", strconv.FormatInt(int64(q.MinWall), 10))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return v
}

// spanQueryFromValues is its inverse, refusing a number that does not parse.
func spanQueryFromValues(v url.Values) (SpanQuery, error) {
	q := SpanQuery{Incident: v.Get("incident"), Stage: v.Get("stage")}
	if s := v.Get("after_id"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return q, fmt.Errorf("api: bad after_id %q", s)
		}
		q.AfterID = SpanID(id)
	}
	if s := v.Get("min_wall_ns"); s != "" {
		ns, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return q, fmt.Errorf("api: bad min_wall_ns %q", s)
		}
		q.MinWall = time.Duration(ns)
	}
	if s := v.Get("limit"); s != "" {
		var err error
		if q.Limit, err = strconv.Atoi(s); err != nil {
			return q, fmt.Errorf("api: bad limit %q", s)
		}
	}
	return q, nil
}

// SpanResult is one query's answer: matching spans ascending by ID (record
// order), the total matched before Limit, and how many spans the ring has
// overwritten over the recorder's lifetime.
type SpanResult struct {
	Job     JobID  `json:"job"`
	Spans   []Span `json:"spans"`
	Total   int    `json:"total"`
	Dropped uint64 `json:"dropped,omitempty"`
}

// QuerySpans answers a SpanQuery against the job's span recorder.
func (s *Service) QuerySpans(q SpanQuery) (SpanResult, error) {
	h, err := s.resolveJob(q.Job)
	if err != nil {
		return SpanResult{}, err
	}
	res := h.tracer.Spans(otrace.Query{
		Cause: q.Incident, Stage: q.Stage, AfterID: q.AfterID, MinWall: q.MinWall, Limit: q.Limit,
	})
	return SpanResult{Job: h.ID, Spans: res.Spans, Total: res.Total, Dropped: res.Dropped}, nil
}
