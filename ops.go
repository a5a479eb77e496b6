package mycroft

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"mycroft/internal/api"
)

// The operation table. Every request/response method of Client is declared
// exactly once below, as an op value: its route, the Client method behind it,
// how a cluster places it, and whether a replica may answer it. The method's
// own request and result types are what crosses the wire — their JSON tags are
// the protocol — so an entry names no conversion. Everything the transports do
// with an operation is derived from that value:
//
//   - Server.Handler mounts op.mount — decode, then op.serve;
//   - every *RemoteClient method is remoteCall(c, op, q);
//   - every *ClusterClient method is clusterCall(cc, op, q).
//
// Subscribe is the one Client method not here: a subscription is a
// conversation (a long-poll per job's event log, resumed from a cursor), not
// a request and a response.

// routing says how a cluster client places an operation on the fleet.
type routing int

const (
	// byJob operations name one job: the ring picks its primary and the call
	// fails over to its replicas on transport errors.
	byJob routing = iota
	// fanOut operations are paged queries over a job list: each listed job is
	// routed like a byJob call (every peer is asked when none is listed) and
	// the answers merge into one time-ordered page.
	fanOut
	// everyPeer operations ask every reachable peer and merge the answers.
	everyPeer
)

// op describes one Client operation. Q and R are the method's request and
// result, encoded as they are: a POST route carries Q as its JSON body, and R
// is the answer's. Methods taking no request use struct{} for Q.
type op[Q, R any] struct {
	name   string // the Client method
	method string // HTTP method
	path   string // route, api.Prefix included, so a call without a job builds no path; "{id}" is the job
	call   func(Client, Q) (R, error)

	// toQuery and fromQuery are set on a GET route whose request rides the
	// query string rather than a JSON body.
	toQuery   func(Q) url.Values
	fromQuery func(url.Values) (Q, error)

	route routing
	// job points at the job id inside a request (byJob, and every "{id}" path).
	job func(*Q) *JobID
	// paging points at a fanOut query's job list and page bounds.
	paging func(*Q) (jobs *[]JobID, offset, limit *int)
	// merge folds several peers' answers into one (fanOut and everyPeer).
	merge func(Q, []R) R

	// replica, when set, is how a cluster peer answers for jobs it follows but
	// does not host — from replicated state, without the engine and so outside
	// Server.mu. It reports false to let the live path answer, or an error to
	// refuse: an answer that lives only in the primary's engine is
	// refuseFollowed, never a partial copy.
	replica func(*Server, Q) (R, bool, error)
	// stamp adds what only the serving process knows to a live answer (its
	// identity, the jobs it follows). It runs under Server.mu.
	stamp func(*Server, *R)
}

// tableOp is what the table's entries have in common once their type
// parameters are out of the way.
type tableOp interface {
	clientMethod() string
	mount(*Server, *api.Mux)
	// recode decodes a request exactly as the mounted route does and encodes
	// it again as remoteCall does, serving nothing. FuzzOpDecode drives every
	// decode path of the table through it.
	recode(*http.Request) (path string, body any, err error)
}

// Request bundles for the Client methods that take more than one value (or a
// bare job id a JSON body must name), and the blast-radius answer as the wire
// carries it: the request echoed back beside the victims. A job that rides the
// route's path is not in the body.
type (
	blastArgs struct {
		Job     JobID `json:"job,omitempty"`
		Suspect Rank  `json:"suspect"`
	}
	blastResult struct {
		Job     JobID  `json:"job"`
		Suspect Rank   `json:"suspect"`
		Victims []Rank `json:"victims"`
	}
	triageArgs struct {
		Job JobID `json:"job,omitempty"`
	}
	logsArgs struct {
		Job   JobID     `json:"-"`
		Lines []LogLine `json:"lines"`
	}
	timingsArgs struct {
		Job     JobID             `json:"-"`
		Samples []IterationSample `json:"samples"`
	}
)

var (
	opListJobs = &op[struct{}, JobsResult]{
		name: "ListJobs", method: "GET", path: api.Prefix + "/jobs",
		call:  func(c Client, _ struct{}) (JobsResult, error) { return c.ListJobs() },
		route: everyPeer, merge: mergeJobs,
		stamp: (*Server).stampJobs,
	}
	opQueryTrace = &op[TraceQuery, TraceResult]{
		name: "QueryTrace", method: "POST", path: api.Prefix + "/trace/query",
		call:  Client.QueryTrace,
		route: byJob, job: func(q *TraceQuery) *JobID { return &q.Job },
		replica: func(sv *Server, q TraceQuery) (TraceResult, bool, error) {
			return TraceResult{}, false, sv.refuseFollowed(q.Job)
		},
	}
	opQueryTriggers = &op[TriggerQuery, TriggerResult]{
		name: "QueryTriggers", method: "POST", path: api.Prefix + "/triggers/query",
		call:   Client.QueryTriggers,
		route:  fanOut,
		paging: func(q *TriggerQuery) (*[]JobID, *int, *int) { return &q.Jobs, &q.Offset, &q.Limit },
		merge: func(q TriggerQuery, parts []TriggerResult) TriggerResult {
			var all []JobTrigger
			for _, p := range parts {
				all = append(all, p.Triggers...)
			}
			return q.page(all)
		},
		replica: func(sv *Server, q TriggerQuery) (TriggerResult, bool, error) {
			jobs := sv.followed(q.Jobs...)
			return q.over(jobs), jobs != nil, nil
		},
	}
	opQueryReports = &op[ReportQuery, ReportResult]{
		name: "QueryReports", method: "POST", path: api.Prefix + "/reports/query",
		call:   Client.QueryReports,
		route:  fanOut,
		paging: func(q *ReportQuery) (*[]JobID, *int, *int) { return &q.Jobs, &q.Offset, &q.Limit },
		merge: func(q ReportQuery, parts []ReportResult) ReportResult {
			var all []JobReport
			for _, p := range parts {
				all = append(all, p.Reports...)
			}
			return q.page(all)
		},
		replica: func(sv *Server, q ReportQuery) (ReportResult, bool, error) {
			jobs := sv.followed(q.Jobs...)
			return q.over(jobs), jobs != nil, nil
		},
	}
	opQueryDependencies = &op[DependencyQuery, DependencyResult]{
		name: "QueryDependencies", method: "POST", path: api.Prefix + "/dependencies/query",
		call:  Client.QueryDependencies,
		route: byJob, job: func(q *DependencyQuery) *JobID { return &q.Job },
		replica: func(sv *Server, q DependencyQuery) (DependencyResult, bool, error) {
			return DependencyResult{}, false, sv.refuseFollowed(q.Job)
		},
	}
	opBlastRadius = &op[blastArgs, blastResult]{
		name: "BlastRadius", method: "POST", path: api.Prefix + "/blast-radius",
		call: func(c Client, a blastArgs) (blastResult, error) {
			victims, err := c.BlastRadius(a.Job, a.Suspect)
			return blastResult{a.Job, a.Suspect, victims}, err
		},
		route: byJob, job: func(a *blastArgs) *JobID { return &a.Job },
		replica: func(sv *Server, a blastArgs) (blastResult, bool, error) {
			return blastResult{}, false, sv.refuseFollowed(a.Job)
		},
	}
	opQueryRemediations = &op[RemediationQuery, RemediationResult]{
		name: "QueryRemediations", method: "POST", path: api.Prefix + "/remediations/query",
		call:   Client.QueryRemediations,
		route:  fanOut,
		paging: func(q *RemediationQuery) (*[]JobID, *int, *int) { return &q.Jobs, &q.Offset, &q.Limit },
		merge: func(q RemediationQuery, parts []RemediationResult) RemediationResult {
			var all []JobRemediation
			for _, p := range parts {
				all = append(all, p.Attempts...)
			}
			return q.page(all)
		},
		replica: func(sv *Server, q RemediationQuery) (RemediationResult, bool, error) {
			jobs := sv.followed(q.Jobs...)
			return q.over(jobs), jobs != nil, nil
		},
	}
	opQuerySpans = &op[SpanQuery, SpanResult]{
		name: "QuerySpans", method: "GET", path: api.Prefix + "/jobs/{id}/spans",
		call:    Client.QuerySpans,
		toQuery: spanQueryToValues, fromQuery: spanQueryFromValues,
		route: byJob, job: func(q *SpanQuery) *JobID { return &q.Job },
		replica: func(sv *Server, q SpanQuery) (SpanResult, bool, error) {
			return SpanResult{}, false, sv.refuseFollowed(q.Job)
		},
	}
	opTriage = &op[triageArgs, TriageResult]{
		name: "Triage", method: "POST", path: api.Prefix + "/triage",
		call:  func(c Client, a triageArgs) (TriageResult, error) { return c.Triage(a.Job) },
		route: byJob, job: func(a *triageArgs) *JobID { return &a.Job },
		replica: (*Server).replicaTriage,
	}
	opHealth = &op[struct{}, HealthResult]{
		name: "Health", method: "GET", path: api.Prefix + "/health",
		call:  func(c Client, _ struct{}) (HealthResult, error) { return c.Health() },
		route: everyPeer, merge: mergeHealth,
		stamp: (*Server).stampHealth,
	}
	opIngestLogs = &op[logsArgs, IngestResult]{
		name: "IngestLogs", method: "POST", path: api.Prefix + "/jobs/{id}/logs",
		call:  func(c Client, a logsArgs) (IngestResult, error) { return c.IngestLogs(a.Job, a.Lines) },
		route: byJob, job: func(a *logsArgs) *JobID { return &a.Job },
	}
	opIngestTimings = &op[timingsArgs, IngestResult]{
		name: "IngestTimings", method: "POST", path: api.Prefix + "/jobs/{id}/timings",
		call:  func(c Client, a timingsArgs) (IngestResult, error) { return c.IngestTimings(a.Job, a.Samples) },
		route: byJob, job: func(a *timingsArgs) *JobID { return &a.Job },
	}
	opChannelStats = &op[JobID, ChannelStatsResult]{
		name: "ChannelStats", method: "GET", path: api.Prefix + "/jobs/{id}/channels",
		call:  Client.ChannelStats,
		route: byJob, job: func(job *JobID) *JobID { return job },
		replica: (*Server).replicaChannels,
	}

	opTable = []tableOp{
		opListJobs, opQueryTrace, opQueryTriggers, opQueryReports, opQueryDependencies,
		opBlastRadius, opQueryRemediations, opQuerySpans, opTriage, opHealth,
		opIngestLogs, opIngestTimings, opChannelStats,
	}
)

// RemoteClient implements each table operation as one remoteCall: a wire
// round trip to its daemon.

func (c *RemoteClient) ListJobs() (JobsResult, error) {
	return remoteCall(c, opListJobs, struct{}{})
}
func (c *RemoteClient) QueryTrace(q TraceQuery) (TraceResult, error) {
	return remoteCall(c, opQueryTrace, q)
}
func (c *RemoteClient) QueryTriggers(q TriggerQuery) (TriggerResult, error) {
	return remoteCall(c, opQueryTriggers, q)
}
func (c *RemoteClient) QueryReports(q ReportQuery) (ReportResult, error) {
	return remoteCall(c, opQueryReports, q)
}
func (c *RemoteClient) QueryDependencies(q DependencyQuery) (DependencyResult, error) {
	return remoteCall(c, opQueryDependencies, q)
}
func (c *RemoteClient) BlastRadius(job JobID, suspect Rank) ([]Rank, error) {
	res, err := remoteCall(c, opBlastRadius, blastArgs{job, suspect})
	return res.Victims, err
}
func (c *RemoteClient) QueryRemediations(q RemediationQuery) (RemediationResult, error) {
	return remoteCall(c, opQueryRemediations, q)
}
func (c *RemoteClient) QuerySpans(q SpanQuery) (SpanResult, error) {
	return remoteCall(c, opQuerySpans, q)
}
func (c *RemoteClient) Triage(job JobID) (TriageResult, error) {
	return remoteCall(c, opTriage, triageArgs{job})
}
func (c *RemoteClient) Health() (HealthResult, error) {
	return remoteCall(c, opHealth, struct{}{})
}
func (c *RemoteClient) IngestLogs(job JobID, lines []LogLine) (IngestResult, error) {
	return remoteCall(c, opIngestLogs, logsArgs{job, lines})
}
func (c *RemoteClient) IngestTimings(job JobID, samples []IterationSample) (IngestResult, error) {
	return remoteCall(c, opIngestTimings, timingsArgs{job, samples})
}
func (c *RemoteClient) ChannelStats(job JobID) (ChannelStatsResult, error) {
	return remoteCall(c, opChannelStats, job)
}

// ClusterClient implements each table operation as one clusterCall: placed on
// the fleet by the operation's routing class.

func (cc *ClusterClient) ListJobs() (JobsResult, error) {
	return clusterCall(cc, opListJobs, struct{}{})
}
func (cc *ClusterClient) QueryTrace(q TraceQuery) (TraceResult, error) {
	return clusterCall(cc, opQueryTrace, q)
}
func (cc *ClusterClient) QueryTriggers(q TriggerQuery) (TriggerResult, error) {
	return clusterCall(cc, opQueryTriggers, q)
}
func (cc *ClusterClient) QueryReports(q ReportQuery) (ReportResult, error) {
	return clusterCall(cc, opQueryReports, q)
}
func (cc *ClusterClient) QueryDependencies(q DependencyQuery) (DependencyResult, error) {
	return clusterCall(cc, opQueryDependencies, q)
}
func (cc *ClusterClient) BlastRadius(job JobID, suspect Rank) ([]Rank, error) {
	res, err := clusterCall(cc, opBlastRadius, blastArgs{job, suspect})
	return res.Victims, err
}
func (cc *ClusterClient) QueryRemediations(q RemediationQuery) (RemediationResult, error) {
	return clusterCall(cc, opQueryRemediations, q)
}
func (cc *ClusterClient) QuerySpans(q SpanQuery) (SpanResult, error) {
	return clusterCall(cc, opQuerySpans, q)
}
func (cc *ClusterClient) Triage(job JobID) (TriageResult, error) {
	return clusterCall(cc, opTriage, triageArgs{job})
}
func (cc *ClusterClient) Health() (HealthResult, error) {
	return clusterCall(cc, opHealth, struct{}{})
}
func (cc *ClusterClient) IngestLogs(job JobID, lines []LogLine) (IngestResult, error) {
	return clusterCall(cc, opIngestLogs, logsArgs{job, lines})
}
func (cc *ClusterClient) IngestTimings(job JobID, samples []IterationSample) (IngestResult, error) {
	return clusterCall(cc, opIngestTimings, timingsArgs{job, samples})
}
func (cc *ClusterClient) ChannelStats(job JobID) (ChannelStatsResult, error) {
	return clusterCall(cc, opChannelStats, job)
}

func (o *op[Q, R]) clientMethod() string { return o.name }

// jobInPath reports whether the route carries the job id as a path segment.
func (o *op[Q, R]) jobInPath() bool { return strings.Contains(o.path, "{id}") }

// jobPath fills a by-job route ("/v1/jobs/{id}/...") with an escaped job id:
// the one place such a URL is built.
func jobPath(route string, job JobID) string {
	return strings.Replace(route, "{id}", url.PathEscape(string(job)), 1)
}

// mount derives the operation's server route: decode the request, serve it,
// encode the answer — by the result's own wireCodec when it has one and that
// accepts the value, by encoding/json otherwise.
func (o *op[Q, R]) mount(sv *Server, mux *api.Mux) {
	mux.Handle(o.method, strings.TrimPrefix(o.path, api.Prefix), func(w http.ResponseWriter, r *http.Request) {
		q, err := o.decode(w, r)
		if err != nil {
			api.Fail(w, err)
			return
		}
		resp, err := o.serve(sv, q)
		ans := any(&resp)
		if c, ok := ans.(wireCodec); ok && err == nil {
			if body, ok := c.appendWire(nil); ok {
				api.Write(w, body)
				return
			}
		}
		api.Answer(w, ans, err)
	})
}

// decode reads the request — query string, JSON body or nothing — taking the
// job from the path when the route carries it there. A body is read by the
// request's wireReader when it has one and that accepts it, and by
// encoding/json otherwise. An enum name outside its set fails here, in the
// field's UnmarshalText, before any Service call.
func (o *op[Q, R]) decode(w http.ResponseWriter, r *http.Request) (q Q, err error) {
	switch {
	case o.fromQuery != nil:
		q, err = o.fromQuery(r.URL.Query())
	case o.method == http.MethodPost:
		var body []byte
		if body, err = api.ReadBody(w, r); err != nil {
			break
		}
		if rd, ok := any(&q).(wireReader); !ok || !rd.parseWire(body) {
			err = api.DecodeJSON(body, &q)
		}
	}
	if err == nil && o.jobInPath() {
		*o.job(&q) = JobID(r.PathValue("id"))
	}
	return q, err
}

func (o *op[Q, R]) recode(r *http.Request) (string, any, error) {
	q, err := o.decode(nil, r)
	if err != nil {
		return "", nil, err
	}
	path, body := o.encode(q)
	return path, body, nil
}

// encode is decode's inverse, the request as a client sends it: the route
// with the job and query string in place, and the JSON body (nil when the
// route takes none).
func (o *op[Q, R]) encode(q Q) (path string, body any) {
	path = o.path
	if o.jobInPath() {
		path = jobPath(o.path, *o.job(&q))
	}
	switch {
	case o.toQuery != nil:
		if enc := o.toQuery(q).Encode(); enc != "" {
			path += "?" + enc
		}
	case o.method == http.MethodPost:
		body = q
	}
	return path, body
}

// serve answers one decoded request. A replica answer or refusal needs no
// engine and takes no lock beyond the replica store's own; the live call and
// its stamp run under Server.mu, serialized with Advance; how long each call
// waited for the lock and held it is observed per operation on /metrics.
//
// The result is encoded by the caller after serve returns, so a slow client
// never holds the engine: the result value is the one thing read outside
// Server.mu. That is safe because every result owns its memory or shares only
// memory nothing writes again. The pages — triggers, reports, attempts, spans,
// records, edges, victims — are slices built for the call (Backend.Triggers
// and Reports, RemediationLog, Recorder.Spans, DB.Query, Graph.Edges and
// Victims all copy out); a report's Chain, Victims and Evidence are shared
// with the backend's ledger, which never touches a report once
// DeliverExternal has appended it; ChannelStats clones its outcome map;
// a JobInfo carries copies (StoreStats, Isolated); a replica's snapshot is
// replaced whole, never edited. Nothing reachable only through the Service —
// the store, the graph, the span rings — is read outside the lock.
// TestTableOpsRaceAdvance holds all of this under the race detector: an
// answer that starts sharing mutable state fails there.
func (o *op[Q, R]) serve(sv *Server, q Q) (res R, err error) {
	if o.replica != nil {
		if res, ok, err := o.replica(sv, q); ok || err != nil {
			return res, err
		}
	}
	defer sv.lock(o.name).unlock()
	if res, err = o.call(sv.svc, q); err == nil && o.stamp != nil {
		o.stamp(sv, &res)
	}
	return res, err
}

// remoteCall is every RemoteClient operation: encode the request, cross HTTP
// on the operation's route, decode the answer. On a route that carries the job
// in its path an empty job resolves against the daemon's job list, mirroring
// the in-process "sole hosted job" rule.
func remoteCall[Q, R any](c *RemoteClient, o *op[Q, R], q Q) (res R, err error) {
	if o.jobInPath() {
		at := o.job(&q)
		if *at, err = soleLiveJob(c, *at); err != nil {
			return res, err
		}
	}
	path, body := o.encode(q)
	err = c.do(o.method, path, body, &res)
	return res, err
}

// clusterCall is every ClusterClient operation: place the call on the fleet
// by the operation's routing class, each leg a remoteCall to one peer.
func clusterCall[Q, R any](cc *ClusterClient, o *op[Q, R], q Q) (res R, err error) {
	leg := func(q Q) func(*RemoteClient) (R, error) {
		return func(rc *RemoteClient) (R, error) { return remoteCall(rc, o, q) }
	}
	var parts []R
	switch o.route {
	case byJob:
		at := o.job(&q)
		if *at, err = soleLiveJob(cc, *at); err != nil {
			return res, err
		}
		return routed(cc, *at, leg(q))
	case fanOut:
		jobs, _, _ := o.paging(&q)
		if len(*jobs) == 1 {
			return routed(cc, (*jobs)[0], leg(q)) // the owning peer cuts the page itself
		}
		// Each leg asks for everything it has; the page is cut after the merge.
		full := q
		legJobs, offset, limit := o.paging(&full)
		*offset, *limit = 0, 0
		for i, job := range *jobs {
			if slices.Contains((*jobs)[:i], job) {
				continue
			}
			*legJobs = []JobID{job}
			part, err := routed(cc, job, leg(full))
			if err != nil {
				return res, err
			}
			parts = append(parts, part)
		}
		if len(*jobs) == 0 {
			parts, err = eachPeer(cc, leg(full))
		}
	case everyPeer:
		parts, err = eachPeer(cc, leg(q))
	}
	if err != nil {
		return res, err
	}
	return o.merge(q, parts), nil
}

// mergeJobs merges every peer's job listing: live rows win over replicated
// snapshots of the same job, and Now is the furthest virtual clock.
func mergeJobs(_ struct{}, parts []JobsResult) JobsResult {
	var out JobsResult
	byID := make(map[JobID]JobInfo)
	for _, res := range parts {
		out.Now = max(out.Now, res.Now)
		for _, j := range res.Jobs {
			if have, ok := byID[j.ID]; !ok || (have.Source != "" && j.Source == "") {
				byID[j.ID] = j
			}
		}
	}
	for _, j := range byID {
		out.Jobs = append(out.Jobs, j)
	}
	sort.Slice(out.Jobs, func(i, j int) bool { return out.Jobs[i].ID < out.Jobs[j].ID })
	return out
}

// mergeHealth merges every peer's health: one row per job (live rows win over
// replicated snapshots of the same job, as in mergeJobs), summed subscription
// stats, furthest clock, longest uptime.
func mergeHealth(_ struct{}, parts []HealthResult) HealthResult {
	var out HealthResult
	byJob := make(map[JobID]JobHealth)
	for _, res := range parts {
		out.Now = max(out.Now, res.Now)
		out.Uptime = max(out.Uptime, res.Uptime)
		out.Subs.Active += res.Subs.Active
		out.Subs.Delivered += res.Subs.Delivered
		out.Subs.Dropped += res.Subs.Dropped
		for _, j := range res.Jobs {
			if have, ok := byJob[j.Job]; !ok || (have.Source != "" && j.Source == "") {
				byJob[j.Job] = j
			}
		}
	}
	for _, j := range byJob {
		out.Jobs = append(out.Jobs, j)
	}
	sort.Slice(out.Jobs, func(i, j int) bool { return out.Jobs[i].Job < out.Jobs[j].Job })
	out.Server = fmt.Sprintf("mycroft-cluster/%d peers=%d", api.Version, len(parts))
	return out
}

// stampJobs appends the jobs this daemon follows to its live listing, from
// their latest replicated snapshot, marked so clients can tell live from
// mirrored rows.
func (sv *Server) stampJobs(res *JobsResult) {
	for _, snap := range sv.snapshots() {
		ji := snap.Job
		ji.Source = "replica"
		res.Jobs = append(res.Jobs, ji)
	}
}

// stampHealth fills what the serving process, not the Service, owns — uptime
// and identity — and appends the followed jobs' replicated health rows.
func (sv *Server) stampHealth(res *HealthResult) {
	res.Uptime = time.Since(sv.started)
	res.Server = sv.identity
	for _, snap := range sv.snapshots() {
		if jh := snap.Health; jh.Job != "" {
			jh.Source = "replica"
			res.Jobs = append(res.Jobs, jh)
		}
	}
}
