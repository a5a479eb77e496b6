package mycroft

// Domain ↔ wire conversions shared by the two transport endpoints: the
// Server (wire request in, domain query out, domain result in, wire response
// out) and the RemoteClient (the exact inverse). The operation table in
// ops.go names one pair per direction for each Client operation; keeping
// both directions in one file makes a wire-breaking asymmetry a local diff.

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/sim"
)

// mapSlice converts a slice element by element. An empty input maps to nil,
// so an empty list crosses the wire the way it always has (null, or omitted).
func mapSlice[A, B any](in []A, f func(A) B) []B {
	if len(in) == 0 {
		return nil
	}
	out := make([]B, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// mapSliceErr is mapSlice for a conversion that can refuse an element.
func mapSliceErr[A, B any](in []A, f func(A) (B, error)) ([]B, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]B, len(in))
	for i, v := range in {
		var err error
		if out[i], err = f(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ints re-types a list of integer-kinded values (ranks) between its domain
// and wire types. Unlike mapSlice it keeps nil and empty apart: an empty
// blast radius is [] on the wire, not null.
func ints[B, A ~int](in []A) []B {
	if in == nil {
		return nil
	}
	out := make([]B, len(in))
	for i, v := range in {
		out[i] = B(v)
	}
	return out
}

// strs is ints for string-kinded values (job ids, categories, outcomes).
func strs[B, A ~string](in []A) []B {
	if in == nil {
		return nil
	}
	out := make([]B, len(in))
	for i, v := range in {
		out[i] = B(v)
	}
	return out
}

// --- trace ---

func traceCursorToWire(c *TraceCursor) *api.TraceCursor {
	if c == nil {
		return nil
	}
	return &api.TraceCursor{Rank: int(c.Rank), TimeNs: int64(c.Time), Emitted: c.Emitted}
}

func traceCursorFromWire(c *api.TraceCursor) *TraceCursor {
	if c == nil {
		return nil
	}
	return &TraceCursor{Rank: Rank(c.Rank), Time: sim.Time(c.TimeNs), Emitted: c.Emitted}
}

func traceQueryToWire(q TraceQuery) api.TraceRequest {
	return api.TraceRequest{
		Job: string(q.Job), Ranks: ints[int](q.Ranks), Comm: q.Comm,
		Kinds:  mapSlice(q.Kinds, api.RecordKindName),
		FromNs: int64(q.From), ToNs: int64(q.To), Limit: q.Limit,
		Cursor: traceCursorToWire(q.Cursor),
	}
}

func traceQueryFromWire(req api.TraceRequest) (TraceQuery, error) {
	kinds, err := mapSliceErr(req.Kinds, api.ParseRecordKind)
	return TraceQuery{
		Job: JobID(req.Job), Ranks: ints[Rank](req.Ranks), Comm: req.Comm, Kinds: kinds,
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Limit: req.Limit,
		Cursor: traceCursorFromWire(req.Cursor),
	}, err
}

func traceResultToWire(res TraceResult) api.TraceResponse {
	return api.TraceResponse{
		Job: string(res.Job), Records: mapSlice(res.Records, api.FromRecord),
		Total: res.Total, Next: traceCursorToWire(res.Next),
	}
}

func traceResultFromWire(resp api.TraceResponse) (TraceResult, error) {
	recs, err := mapSliceErr(resp.Records, api.TraceRecord.Record)
	return TraceResult{Job: JobID(resp.Job), Records: recs, Total: resp.Total, Next: traceCursorFromWire(resp.Next)}, err
}

// --- triggers ---

func triggerQueryToWire(q TriggerQuery) api.TriggersRequest {
	return api.TriggersRequest{
		Jobs: strs[string](q.Jobs), Ranks: ints[int](q.Ranks), Kinds: mapSlice(q.Kinds, api.TriggerKindName),
		FromNs: int64(q.From), ToNs: int64(q.To), Offset: q.Offset, Limit: q.Limit,
	}
}

func triggerQueryFromWire(req api.TriggersRequest) (TriggerQuery, error) {
	kinds, err := mapSliceErr(req.Kinds, api.ParseTriggerKind)
	return TriggerQuery{
		Jobs: strs[JobID](req.Jobs), Ranks: ints[Rank](req.Ranks), Kinds: kinds,
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Offset: req.Offset, Limit: req.Limit,
	}, err
}

func triggerResultToWire(res TriggerResult) api.TriggersResponse {
	return api.TriggersResponse{
		Triggers: mapSlice(res.Triggers, func(t JobTrigger) api.JobTrigger {
			return api.JobTrigger{Job: string(t.Job), Trigger: api.FromTrigger(t.Trigger)}
		}),
		Total: res.Total, NextOffset: res.NextOffset,
	}
}

func triggerResultFromWire(resp api.TriggersResponse) (TriggerResult, error) {
	triggers, err := mapSliceErr(resp.Triggers, func(t api.JobTrigger) (JobTrigger, error) {
		tr, err := t.Trigger.Trigger()
		return JobTrigger{Job: JobID(t.Job), Trigger: tr}, err
	})
	return TriggerResult{Triggers: triggers, Total: resp.Total, NextOffset: resp.NextOffset}, err
}

// --- reports ---

func reportQueryToWire(q ReportQuery) api.ReportsRequest {
	return api.ReportsRequest{
		Jobs: strs[string](q.Jobs), Suspects: ints[int](q.Suspects), Categories: strs[string](q.Categories),
		Comm: q.Comm, FromNs: int64(q.From), ToNs: int64(q.To), Offset: q.Offset, Limit: q.Limit,
	}
}

func reportQueryFromWire(req api.ReportsRequest) (ReportQuery, error) {
	return ReportQuery{
		Jobs: strs[JobID](req.Jobs), Suspects: ints[Rank](req.Suspects), Categories: strs[core.Category](req.Categories),
		Comm: req.Comm, From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Offset: req.Offset, Limit: req.Limit,
	}, nil
}

func reportResultToWire(res ReportResult) api.ReportsResponse {
	return api.ReportsResponse{
		Reports: mapSlice(res.Reports, func(r JobReport) api.JobReport {
			return api.JobReport{Job: string(r.Job), Report: api.FromReport(r.Report)}
		}),
		Total: res.Total, NextOffset: res.NextOffset,
	}
}

func reportResultFromWire(resp api.ReportsResponse) (ReportResult, error) {
	reports, err := mapSliceErr(resp.Reports, func(r api.JobReport) (JobReport, error) {
		rep, err := r.Report.Report()
		return JobReport{Job: JobID(r.Job), Report: rep}, err
	})
	return ReportResult{Reports: reports, Total: resp.Total, NextOffset: resp.NextOffset}, err
}

// --- dependencies ---

func dependencyQueryToWire(q DependencyQuery) api.DependenciesRequest {
	return api.DependenciesRequest{Job: string(q.Job), Comm: q.Comm, Ranks: ints[int](q.Ranks), RenderDOT: q.RenderDOT}
}

func dependencyQueryFromWire(req api.DependenciesRequest) (DependencyQuery, error) {
	return DependencyQuery{Job: JobID(req.Job), Comm: req.Comm, Ranks: ints[Rank](req.Ranks), RenderDOT: req.RenderDOT}, nil
}

func dependencyResultToWire(res DependencyResult) api.DependenciesResponse {
	return api.DependenciesResponse{Job: string(res.Job), Edges: mapSlice(res.Edges, api.FromEdge), DOT: res.DOT}
}

func dependencyResultFromWire(resp api.DependenciesResponse) (DependencyResult, error) {
	edges, err := mapSliceErr(resp.Edges, api.Edge.Edge)
	return DependencyResult{Job: JobID(resp.Job), Edges: edges, DOT: resp.DOT}, err
}

func blastArgsToWire(a blastArgs) api.BlastRadiusRequest {
	return api.BlastRadiusRequest{Job: string(a.Job), Suspect: int(a.Suspect)}
}

func blastArgsFromWire(req api.BlastRadiusRequest) (blastArgs, error) {
	return blastArgs{Job: JobID(req.Job), Suspect: Rank(req.Suspect)}, nil
}

func blastResultToWire(res blastResult) api.BlastRadiusResponse {
	return api.BlastRadiusResponse{Job: string(res.Job), Suspect: int(res.Suspect), Victims: ints[int](res.Victims)}
}

func blastResultFromWire(resp api.BlastRadiusResponse) (blastResult, error) {
	return blastResult{
		blastArgs: blastArgs{Job: JobID(resp.Job), Suspect: Rank(resp.Suspect)},
		Victims:   ints[Rank](resp.Victims),
	}, nil
}

// --- remediations ---

func remediationQueryToWire(q RemediationQuery) api.RemediationsRequest {
	return api.RemediationsRequest{
		Jobs: strs[string](q.Jobs), Ranks: ints[int](q.Ranks),
		Actions: strs[string](q.Actions), Outcomes: strs[string](q.Outcomes),
		FromNs: int64(q.From), ToNs: int64(q.To), Offset: q.Offset, Limit: q.Limit,
	}
}

func remediationQueryFromWire(req api.RemediationsRequest) (RemediationQuery, error) {
	actions, err := mapSliceErr(req.Actions, api.ParseActionKind)
	if err != nil {
		return RemediationQuery{}, err
	}
	outcomes, err := mapSliceErr(req.Outcomes, api.ParseOutcome)
	return RemediationQuery{
		Jobs: strs[JobID](req.Jobs), Ranks: ints[Rank](req.Ranks), Actions: actions, Outcomes: outcomes,
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Offset: req.Offset, Limit: req.Limit,
	}, err
}

func remediationResultToWire(res RemediationResult) api.RemediationsResponse {
	return api.RemediationsResponse{
		Attempts: mapSlice(res.Attempts, func(a JobRemediation) api.JobAttempt {
			return api.JobAttempt{Job: string(a.Job), Attempt: api.FromAttempt(a.RemedyAttempt)}
		}),
		Total: res.Total, NextOffset: res.NextOffset,
	}
}

func remediationResultFromWire(resp api.RemediationsResponse) (RemediationResult, error) {
	attempts, err := mapSliceErr(resp.Attempts, func(a api.JobAttempt) (JobRemediation, error) {
		att, err := a.Attempt.Attempt()
		return JobRemediation{Job: JobID(a.Job), RemedyAttempt: att}, err
	})
	return RemediationResult{Attempts: attempts, Total: resp.Total, NextOffset: resp.NextOffset}, err
}

// --- spans ---

func spanQueryToWire(q SpanQuery) api.SpansRequest {
	return api.SpansRequest{
		Job: string(q.Job), Incident: q.Incident, Stage: q.Stage,
		AfterID: uint64(q.AfterID), MinWallNs: int64(q.MinWall), Limit: q.Limit,
	}
}

func spanQueryFromWire(req api.SpansRequest) (SpanQuery, error) {
	return SpanQuery{
		Job: JobID(req.Job), Incident: req.Incident, Stage: req.Stage,
		AfterID: SpanID(req.AfterID), MinWall: time.Duration(req.MinWallNs), Limit: req.Limit,
	}, nil
}

// spansRequestToValues renders a span query's filters as the query string
// GET /v1/jobs/{id}/spans takes (the job rides the path).
func spansRequestToValues(req api.SpansRequest) url.Values {
	v := url.Values{}
	if req.Incident != "" {
		v.Set("incident", req.Incident)
	}
	if req.Stage != "" {
		v.Set("stage", req.Stage)
	}
	if req.AfterID != 0 {
		v.Set("after_id", strconv.FormatUint(req.AfterID, 10))
	}
	if req.MinWallNs > 0 {
		v.Set("min_wall_ns", strconv.FormatInt(req.MinWallNs, 10))
	}
	if req.Limit > 0 {
		v.Set("limit", strconv.Itoa(req.Limit))
	}
	return v
}

func spansRequestFromValues(v url.Values) (api.SpansRequest, error) {
	req := api.SpansRequest{Incident: v.Get("incident"), Stage: v.Get("stage")}
	var err error
	if s := v.Get("after_id"); s != "" {
		if req.AfterID, err = strconv.ParseUint(s, 10, 64); err != nil {
			return req, fmt.Errorf("api: bad after_id %q", s)
		}
	}
	if s := v.Get("min_wall_ns"); s != "" {
		if req.MinWallNs, err = strconv.ParseInt(s, 10, 64); err != nil {
			return req, fmt.Errorf("api: bad min_wall_ns %q", s)
		}
	}
	if s := v.Get("limit"); s != "" {
		if req.Limit, err = strconv.Atoi(s); err != nil {
			return req, fmt.Errorf("api: bad limit %q", s)
		}
	}
	return req, nil
}

func spanResultToWire(res SpanResult) api.SpansResponse {
	return api.SpansResponse{Job: string(res.Job), Spans: mapSlice(res.Spans, api.FromSpan), Total: res.Total, Dropped: res.Dropped}
}

func spanResultFromWire(resp api.SpansResponse) (SpanResult, error) {
	return SpanResult{Job: JobID(resp.Job), Spans: mapSlice(resp.Spans, api.Span.Span), Total: resp.Total, Dropped: resp.Dropped}, nil
}

// --- triage ---

func triageJobToWire(job JobID) api.TriageRequest { return api.TriageRequest{Job: string(job)} }

func triageJobFromWire(req api.TriageRequest) (JobID, error) { return JobID(req.Job), nil }

func triageResultToWire(res TriageResult) api.TriageResponse {
	return api.TriageResponse{Job: string(res.Job), Source: res.Source, Rank: int(res.Rank), Summary: res.Summary, OK: res.OK}
}

func triageResultFromWire(resp api.TriageResponse) (TriageResult, error) {
	return TriageResult{Job: JobID(resp.Job), Source: resp.Source, Rank: Rank(resp.Rank), Summary: resp.Summary, OK: resp.OK}, nil
}

// --- diagnosis channels ---

func logsArgsToWire(a logsArgs) api.LogsRequest {
	return api.LogsRequest{Lines: mapSlice(a.Lines, func(l LogLine) api.LogLine {
		return api.LogLine{Rank: int(l.Rank), AtNs: int64(l.At), Level: l.Level, Text: l.Text}
	})}
}

func logsArgsFromWire(req api.LogsRequest) (logsArgs, error) {
	return logsArgs{Lines: mapSlice(req.Lines, func(l api.LogLine) LogLine {
		return LogLine{Rank: Rank(l.Rank), At: time.Duration(l.AtNs), Level: l.Level, Text: l.Text}
	})}, nil
}

func timingsArgsToWire(a timingsArgs) api.TimingsRequest {
	return api.TimingsRequest{Samples: mapSlice(a.Samples, func(s IterationSample) api.TimingSample {
		return api.TimingSample{Rank: int(s.Rank), Iter: s.Iter, AtNs: int64(s.At)}
	})}
}

func timingsArgsFromWire(req api.TimingsRequest) (timingsArgs, error) {
	return timingsArgs{Samples: mapSlice(req.Samples, func(s api.TimingSample) IterationSample {
		return IterationSample{Rank: Rank(s.Rank), Iter: s.Iter, At: time.Duration(s.AtNs)}
	})}, nil
}

func ingestResultToWire(res IngestResult) api.IngestChannelResponse {
	return api.IngestChannelResponse{Job: string(res.Job), Accepted: res.Accepted, Anomalies: res.Anomalies}
}

func ingestResultFromWire(resp api.IngestChannelResponse) (IngestResult, error) {
	return IngestResult{Job: JobID(resp.Job), Accepted: resp.Accepted, Anomalies: resp.Anomalies}, nil
}

func channelStatsToWire(res ChannelStatsResult) api.ChannelsResponse {
	w := api.ChannelsResponse{
		Job: string(res.Job),
		Channels: mapSlice(res.Channels, func(c ChannelInfo) api.ChannelInfo {
			return api.ChannelInfo{
				Channel: string(c.Channel), Ingested: c.Ingested,
				Anomalies: c.Anomalies, Reports: c.Reports, Templates: c.Templates,
			}
		}),
		Fusion: api.FusionInfo{
			WindowNs: int64(res.Fusion.Window), LastOutcome: res.Fusion.LastOutcome,
			LastConfidence: res.Fusion.LastConfidence,
		},
	}
	if len(res.Fusion.Outcomes) > 0 {
		w.Fusion.Outcomes = make(map[string]uint64, len(res.Fusion.Outcomes))
		for k, v := range res.Fusion.Outcomes {
			w.Fusion.Outcomes[k] = v
		}
	}
	return w
}

func channelStatsFromWire(w api.ChannelsResponse) (ChannelStatsResult, error) {
	channels, err := mapSliceErr(w.Channels, func(c api.ChannelInfo) (ChannelInfo, error) {
		m, err := api.ParseModality(c.Channel)
		return ChannelInfo{
			Channel: m, Ingested: c.Ingested,
			Anomalies: c.Anomalies, Reports: c.Reports, Templates: c.Templates,
		}, err
	})
	res := ChannelStatsResult{
		Job: JobID(w.Job), Channels: channels,
		Fusion: FusionInfo{
			Window: time.Duration(w.Fusion.WindowNs), LastOutcome: w.Fusion.LastOutcome,
			LastConfidence: w.Fusion.LastConfidence,
			Outcomes:       make(map[string]uint64, len(w.Fusion.Outcomes)),
		},
	}
	for k, v := range w.Fusion.Outcomes {
		res.Fusion.Outcomes[k] = v
	}
	return res, err
}

// --- jobs ---

func jobsResultToWire(res JobsResult) api.JobsResponse {
	return api.JobsResponse{NowNs: int64(res.Now), Jobs: mapSlice(res.Jobs, func(j JobInfo) api.JobInfo {
		return api.JobInfo{
			ID: string(j.ID), WorldSize: j.WorldSize, Iterations: j.Iterations,
			Records: j.Records, Store: api.FromStats(j.Store),
			Isolated: ints[int](j.Isolated), Policy: j.Policy, Source: j.Source,
		}
	})}
}

func jobsResultFromWire(resp api.JobsResponse) (JobsResult, error) {
	return JobsResult{Now: time.Duration(resp.NowNs), Jobs: mapSlice(resp.Jobs, func(j api.JobInfo) JobInfo {
		return JobInfo{
			ID: JobID(j.ID), WorldSize: j.WorldSize, Iterations: j.Iterations,
			Records: j.Records, Store: j.Store.Stats(),
			Isolated: ints[Rank](j.Isolated), Policy: j.Policy, Source: j.Source,
		}
	})}, nil
}

// --- health ---

func healthChangeToWire(c HealthChange) api.HealthChange {
	return api.HealthChange{
		From: string(c.From), To: string(c.To),
		LastIngestNs: int64(c.LastIngest), Reason: c.Reason,
	}
}

func healthChangeFromWire(w api.HealthChange) (HealthChange, error) {
	from, err := api.ParseHealthState(w.From)
	if err != nil {
		return HealthChange{}, err
	}
	to, err := api.ParseHealthState(w.To)
	if err != nil {
		return HealthChange{}, err
	}
	return HealthChange{
		From: HealthState(from), To: HealthState(to),
		LastIngest: time.Duration(w.LastIngestNs), Reason: w.Reason,
	}, nil
}

func healthResultToWire(res HealthResult) api.HealthResponse {
	return api.HealthResponse{
		NowNs: int64(res.Now), UptimeMs: res.Uptime.Milliseconds(),
		Server: res.Server, Version: api.Version,
		Subscriptions: api.SubscriptionStats{
			Active: res.Subs.Active, Delivered: res.Subs.Delivered, Dropped: res.Subs.Dropped,
		},
		Jobs: mapSlice(res.Jobs, func(j JobHealth) api.JobHealthInfo {
			return api.JobHealthInfo{
				Job: string(j.Job), State: string(j.State),
				SinceNs: int64(j.Since), LastIngestNs: int64(j.LastIngest), Reason: j.Reason,
			}
		}),
	}
}

func healthResultFromWire(resp api.HealthResponse) (HealthResult, error) {
	jobs, err := mapSliceErr(resp.Jobs, func(j api.JobHealthInfo) (JobHealth, error) {
		state, err := api.ParseHealthState(j.State)
		return JobHealth{
			Job: JobID(j.Job), State: HealthState(state),
			Since: time.Duration(j.SinceNs), LastIngest: time.Duration(j.LastIngestNs), Reason: j.Reason,
		}, err
	})
	return HealthResult{
		Now: time.Duration(resp.NowNs), Uptime: time.Duration(resp.UptimeMs) * time.Millisecond,
		Server: resp.Server, Jobs: jobs,
		Subs: SubStats{
			Active: resp.Subscriptions.Active, Delivered: resp.Subscriptions.Delivered, Dropped: resp.Subscriptions.Dropped,
		},
	}, err
}

// --- events and filters ---

func eventFilterToWire(f EventFilter) api.EventFilter {
	return api.EventFilter{
		Jobs: strs[string](f.Jobs), Ranks: ints[int](f.Ranks), Victims: ints[int](f.Victims),
		Kinds: mapSlice(f.Kinds, api.EventKindName), Categories: strs[string](f.Categories), Outcomes: strs[string](f.Outcomes),
		MinChain: f.MinChain, FromNs: int64(f.From), ToNs: int64(f.To), Buffer: f.Buffer,
	}
}

func eventFilterFromWire(w api.EventFilter) (EventFilter, error) {
	kinds, err := mapSliceErr(w.Kinds, api.ParseEventKind)
	if err != nil {
		return EventFilter{}, err
	}
	outcomes, err := mapSliceErr(w.Outcomes, api.ParseOutcome)
	return EventFilter{
		Jobs: strs[JobID](w.Jobs), Ranks: ints[Rank](w.Ranks), Victims: ints[Rank](w.Victims),
		Kinds: kinds, Categories: strs[core.Category](w.Categories), Outcomes: outcomes,
		MinChain: w.MinChain, From: time.Duration(w.FromNs), To: time.Duration(w.ToNs), Buffer: w.Buffer,
	}, err
}

func eventToWire(e Event) api.Event {
	w := api.Event{Job: string(e.Job), Kind: api.EventKindName(e.Kind), AtNs: int64(e.At), Phase: e.Phase}
	if e.Trigger != nil {
		t := api.FromTrigger(*e.Trigger)
		w.Trigger = &t
	}
	if e.Report != nil {
		r := api.FromReport(*e.Report)
		w.Report = &r
	}
	if e.Action != nil {
		a := api.FromAttempt(*e.Action)
		w.Action = &a
	}
	if e.Health != nil {
		h := healthChangeToWire(*e.Health)
		w.Health = &h
	}
	if e.LogAnomaly != nil {
		a := api.FromLogAnomaly(*e.LogAnomaly)
		w.LogAnomaly = &a
	}
	return w
}

func eventFromWire(w api.Event) (Event, error) {
	kind, err := api.ParseEventKind(w.Kind)
	if err != nil {
		return Event{}, err
	}
	e := Event{Job: JobID(w.Job), Kind: kind, At: time.Duration(w.AtNs), Phase: w.Phase}
	if w.Trigger != nil {
		t, err := w.Trigger.Trigger()
		if err != nil {
			return Event{}, err
		}
		e.Trigger = &t
	}
	if w.Report != nil {
		r, err := w.Report.Report()
		if err != nil {
			return Event{}, err
		}
		e.Report = &r
	}
	if w.Action != nil {
		a, err := w.Action.Attempt()
		if err != nil {
			return Event{}, err
		}
		e.Action = &a
	}
	if w.Health != nil {
		h, err := healthChangeFromWire(*w.Health)
		if err != nil {
			return Event{}, err
		}
		e.Health = &h
	}
	if w.LogAnomaly != nil {
		a, err := w.LogAnomaly.LogAnomaly()
		if err != nil {
			return Event{}, err
		}
		e.LogAnomaly = &a
	}
	return e, nil
}
