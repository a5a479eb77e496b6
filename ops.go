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
// exactly once below, as an op value: its route, its wire forms, the Client
// method behind it, how a cluster places it, and whether a replica may answer
// it. Everything the transports do with an operation is derived from that
// value:
//
//   - Server.Handler mounts op.mount — decode, then op.serve;
//   - every *RemoteClient method is remoteCall(c, op, q);
//   - every *ClusterClient method is clusterCall(cc, op, q).
//
// Subscribe is the one Client method not here: a subscription is a stateful
// conversation (subscribe, poll, unsubscribe), not a request and a response.

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

// op describes one Client operation. Q and R are the method's domain request
// and result, WQ and WR their wire forms. Methods taking no request use
// struct{} for Q and WQ and leave the request conversions nil.
type op[Q, R, WQ, WR any] struct {
	name   string // the Client method
	method string // HTTP method
	path   string // route under api.Prefix; "{id}" is the job
	call   func(Client, Q) (R, error)

	reqToWire   func(Q) WQ
	reqFromWire func(WQ) (Q, error)
	resToWire   func(R) WR
	resFromWire func(WR) (R, error)
	// toQuery and fromQuery are set on a GET route whose request rides the
	// query string rather than a JSON body.
	toQuery   func(WQ) url.Values
	fromQuery func(url.Values) (WQ, error)

	route routing
	// job points at the job id inside a request (byJob, and every "{id}" path).
	job func(*Q) *JobID
	// paging points at a fanOut query's job list and page bounds.
	paging func(*Q) (jobs *[]JobID, offset, limit *int)
	// merge folds several peers' answers into one (fanOut and everyPeer).
	merge func(Q, []R) R

	// replica, when set, is how a cluster peer answers for jobs it follows but
	// does not host — from replicated state, without the engine and so outside
	// Server.mu. It reports false to let the live path answer.
	replica func(*serverCluster, Q) (R, bool, error)
	// stamp adds what only the serving process knows to a live answer (its
	// identity, the jobs it follows). It runs under Server.mu.
	stamp func(*Server, *WR)
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

// Argument bundles for the Client methods that take more than one value, and
// the blast-radius result as the wire carries it (the request echoed back).
type (
	blastArgs struct {
		Job     JobID
		Suspect Rank
	}
	blastResult struct {
		blastArgs
		Victims []Rank
	}
	logsArgs struct {
		Job   JobID
		Lines []LogLine
	}
	timingsArgs struct {
		Job     JobID
		Samples []IterationSample
	}
)

var (
	opListJobs = &op[struct{}, JobsResult, struct{}, api.JobsResponse]{
		name: "ListJobs", method: "GET", path: "/jobs",
		call:      func(c Client, _ struct{}) (JobsResult, error) { return c.ListJobs() },
		resToWire: jobsResultToWire, resFromWire: jobsResultFromWire,
		route: everyPeer, merge: mergeJobs,
		stamp: (*Server).stampJobs,
	}
	opQueryTrace = &op[TraceQuery, TraceResult, api.TraceRequest, api.TraceResponse]{
		name: "QueryTrace", method: "POST", path: "/trace/query",
		call:      Client.QueryTrace,
		reqToWire: traceQueryToWire, reqFromWire: traceQueryFromWire,
		resToWire: traceResultToWire, resFromWire: traceResultFromWire,
		route: byJob, job: func(q *TraceQuery) *JobID { return &q.Job },
		replica: (*serverCluster).replicaTrace,
	}
	opQueryTriggers = &op[TriggerQuery, TriggerResult, api.TriggersRequest, api.TriggersResponse]{
		name: "QueryTriggers", method: "POST", path: "/triggers/query",
		call:      Client.QueryTriggers,
		reqToWire: triggerQueryToWire, reqFromWire: triggerQueryFromWire,
		resToWire: triggerResultToWire, resFromWire: triggerResultFromWire,
		route:  fanOut,
		paging: func(q *TriggerQuery) (*[]JobID, *int, *int) { return &q.Jobs, &q.Offset, &q.Limit },
		merge: func(q TriggerQuery, parts []TriggerResult) TriggerResult {
			var all []JobTrigger
			for _, p := range parts {
				all = append(all, p.Triggers...)
			}
			return q.page(all)
		},
		replica: func(cl *serverCluster, q TriggerQuery) (TriggerResult, bool, error) {
			jobs := cl.followed(q.Jobs...)
			return q.over(jobs), jobs != nil, nil
		},
	}
	opQueryReports = &op[ReportQuery, ReportResult, api.ReportsRequest, api.ReportsResponse]{
		name: "QueryReports", method: "POST", path: "/reports/query",
		call:      Client.QueryReports,
		reqToWire: reportQueryToWire, reqFromWire: reportQueryFromWire,
		resToWire: reportResultToWire, resFromWire: reportResultFromWire,
		route:  fanOut,
		paging: func(q *ReportQuery) (*[]JobID, *int, *int) { return &q.Jobs, &q.Offset, &q.Limit },
		merge: func(q ReportQuery, parts []ReportResult) ReportResult {
			var all []JobReport
			for _, p := range parts {
				all = append(all, p.Reports...)
			}
			return q.page(all)
		},
		replica: func(cl *serverCluster, q ReportQuery) (ReportResult, bool, error) {
			jobs := cl.followed(q.Jobs...)
			return q.over(jobs), jobs != nil, nil
		},
	}
	opQueryDependencies = &op[DependencyQuery, DependencyResult, api.DependenciesRequest, api.DependenciesResponse]{
		name: "QueryDependencies", method: "POST", path: "/dependencies/query",
		call:      Client.QueryDependencies,
		reqToWire: dependencyQueryToWire, reqFromWire: dependencyQueryFromWire,
		resToWire: dependencyResultToWire, resFromWire: dependencyResultFromWire,
		route: byJob, job: func(q *DependencyQuery) *JobID { return &q.Job },
		replica: func(cl *serverCluster, q DependencyQuery) (DependencyResult, bool, error) {
			return DependencyResult{}, false, cl.refuseGraph(q.Job)
		},
	}
	opBlastRadius = &op[blastArgs, blastResult, api.BlastRadiusRequest, api.BlastRadiusResponse]{
		name: "BlastRadius", method: "POST", path: "/blast-radius",
		call: func(c Client, a blastArgs) (blastResult, error) {
			victims, err := c.BlastRadius(a.Job, a.Suspect)
			return blastResult{a, victims}, err
		},
		reqToWire: blastArgsToWire, reqFromWire: blastArgsFromWire,
		resToWire: blastResultToWire, resFromWire: blastResultFromWire,
		route: byJob, job: func(a *blastArgs) *JobID { return &a.Job },
		replica: func(cl *serverCluster, a blastArgs) (blastResult, bool, error) {
			return blastResult{}, false, cl.refuseGraph(a.Job)
		},
	}
	opQueryRemediations = &op[RemediationQuery, RemediationResult, api.RemediationsRequest, api.RemediationsResponse]{
		name: "QueryRemediations", method: "POST", path: "/remediations/query",
		call:      Client.QueryRemediations,
		reqToWire: remediationQueryToWire, reqFromWire: remediationQueryFromWire,
		resToWire: remediationResultToWire, resFromWire: remediationResultFromWire,
		route:  fanOut,
		paging: func(q *RemediationQuery) (*[]JobID, *int, *int) { return &q.Jobs, &q.Offset, &q.Limit },
		merge: func(q RemediationQuery, parts []RemediationResult) RemediationResult {
			var all []JobRemediation
			for _, p := range parts {
				all = append(all, p.Attempts...)
			}
			return q.page(all)
		},
		replica: func(cl *serverCluster, q RemediationQuery) (RemediationResult, bool, error) {
			jobs := cl.followed(q.Jobs...)
			return q.over(jobs), jobs != nil, nil
		},
	}
	opQuerySpans = &op[SpanQuery, SpanResult, api.SpansRequest, api.SpansResponse]{
		name: "QuerySpans", method: "GET", path: "/jobs/{id}/spans",
		call:      Client.QuerySpans,
		reqToWire: spanQueryToWire, reqFromWire: spanQueryFromWire,
		resToWire: spanResultToWire, resFromWire: spanResultFromWire,
		toQuery: spansRequestToValues, fromQuery: spansRequestFromValues,
		route: byJob, job: func(q *SpanQuery) *JobID { return &q.Job },
		replica: (*serverCluster).replicaSpans,
	}
	opTriage = &op[JobID, TriageResult, api.TriageRequest, api.TriageResponse]{
		name: "Triage", method: "POST", path: "/triage",
		call:      Client.Triage,
		reqToWire: triageJobToWire, reqFromWire: triageJobFromWire,
		resToWire: triageResultToWire, resFromWire: triageResultFromWire,
		route: byJob, job: func(job *JobID) *JobID { return job },
		replica: (*serverCluster).replicaTriage,
	}
	opHealth = &op[struct{}, HealthResult, struct{}, api.HealthResponse]{
		name: "Health", method: "GET", path: "/health",
		call:      func(c Client, _ struct{}) (HealthResult, error) { return c.Health() },
		resToWire: healthResultToWire, resFromWire: healthResultFromWire,
		route: everyPeer, merge: mergeHealth,
		stamp: (*Server).stampHealth,
	}
	opIngestLogs = &op[logsArgs, IngestResult, api.LogsRequest, api.IngestChannelResponse]{
		name: "IngestLogs", method: "POST", path: "/jobs/{id}/logs",
		call:      func(c Client, a logsArgs) (IngestResult, error) { return c.IngestLogs(a.Job, a.Lines) },
		reqToWire: logsArgsToWire, reqFromWire: logsArgsFromWire,
		resToWire: ingestResultToWire, resFromWire: ingestResultFromWire,
		route: byJob, job: func(a *logsArgs) *JobID { return &a.Job },
	}
	opIngestTimings = &op[timingsArgs, IngestResult, api.TimingsRequest, api.IngestChannelResponse]{
		name: "IngestTimings", method: "POST", path: "/jobs/{id}/timings",
		call:      func(c Client, a timingsArgs) (IngestResult, error) { return c.IngestTimings(a.Job, a.Samples) },
		reqToWire: timingsArgsToWire, reqFromWire: timingsArgsFromWire,
		resToWire: ingestResultToWire, resFromWire: ingestResultFromWire,
		route: byJob, job: func(a *timingsArgs) *JobID { return &a.Job },
	}
	opChannelStats = &op[JobID, ChannelStatsResult, struct{}, api.ChannelsResponse]{
		name: "ChannelStats", method: "GET", path: "/jobs/{id}/channels",
		call:      Client.ChannelStats,
		resToWire: channelStatsToWire, resFromWire: channelStatsFromWire,
		route: byJob, job: func(job *JobID) *JobID { return job },
		replica: (*serverCluster).replicaChannels,
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
	return remoteCall(c, opTriage, job)
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
	return clusterCall(cc, opTriage, job)
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

func (o *op[Q, R, WQ, WR]) clientMethod() string { return o.name }

// jobInPath reports whether the route carries the job id as a path segment.
func (o *op[Q, R, WQ, WR]) jobInPath() bool { return strings.Contains(o.path, "{id}") }

// jobPath fills a by-job route pattern ("/jobs/{id}/...") with an escaped
// job id: the one place such a URL is built.
func jobPath(pattern string, job JobID) string {
	return api.Prefix + strings.Replace(pattern, "{id}", url.PathEscape(string(job)), 1)
}

// mount derives the operation's server route: decode the request, serve it,
// encode the answer.
func (o *op[Q, R, WQ, WR]) mount(sv *Server, mux *api.Mux) {
	mux.Handle(o.method, o.path, func(w http.ResponseWriter, r *http.Request) {
		q, err := o.decode(w, r)
		if err != nil {
			api.Fail(w, err)
			return
		}
		resp, err := o.serve(sv, q)
		api.Answer(w, resp, err)
	})
}

// decode reads the wire request — query string, JSON body or nothing — and
// converts it to the domain request, taking the job from the path when the
// route carries it there.
func (o *op[Q, R, WQ, WR]) decode(w http.ResponseWriter, r *http.Request) (q Q, err error) {
	var wq WQ
	switch {
	case o.fromQuery != nil:
		wq, err = o.fromQuery(r.URL.Query())
	case o.method == http.MethodPost:
		err = api.ReadJSON(w, r, &wq)
	}
	if err == nil && o.reqFromWire != nil {
		q, err = o.reqFromWire(wq)
	}
	if err == nil && o.jobInPath() {
		*o.job(&q) = JobID(r.PathValue("id"))
	}
	return q, err
}

func (o *op[Q, R, WQ, WR]) recode(r *http.Request) (string, any, error) {
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
func (o *op[Q, R, WQ, WR]) encode(q Q) (path string, body any) {
	path = api.Prefix + o.path
	if o.jobInPath() {
		path = jobPath(o.path, *o.job(&q))
	}
	if o.reqToWire != nil {
		wq := o.reqToWire(q)
		switch {
		case o.toQuery != nil:
			if enc := o.toQuery(wq).Encode(); enc != "" {
				path += "?" + enc
			}
		case o.method == http.MethodPost:
			body = wq
		}
	}
	return path, body
}

// serve answers one decoded request in wire form. A replica answer needs no
// engine and takes no lock beyond the replica store's own; the live call and
// the conversion of its result (which may alias engine-owned memory) run
// under Server.mu, serialized with Advance. Encoding happens in the caller,
// outside the lock.
func (o *op[Q, R, WQ, WR]) serve(sv *Server, q Q) (resp WR, err error) {
	if o.replica != nil {
		res, ok, err := o.replica(sv.loadCluster(), q)
		if err != nil {
			return resp, err
		}
		if ok {
			return o.resToWire(res), nil
		}
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	res, err := o.call(sv.svc, q)
	if err != nil {
		return resp, err
	}
	resp = o.resToWire(res)
	if o.stamp != nil {
		o.stamp(sv, &resp)
	}
	return resp, nil
}

// remoteCall is every RemoteClient operation: convert the request to its
// wire form, cross HTTP on the operation's route, convert the answer back.
// On a route that carries the job in its path an empty job resolves against
// the daemon's job list, mirroring the in-process "sole hosted job" rule.
func remoteCall[Q, R, WQ, WR any](c *RemoteClient, o *op[Q, R, WQ, WR], q Q) (res R, err error) {
	if o.jobInPath() {
		at := o.job(&q)
		if *at, err = c.resolveRemoteJob(*at); err != nil {
			return res, err
		}
	}
	path, body := o.encode(q)
	var wr WR
	if err := c.do(o.method, path, body, &wr); err != nil {
		return res, err
	}
	return o.resFromWire(wr)
}

// clusterCall is every ClusterClient operation: place the call on the fleet
// by the operation's routing class, each leg a remoteCall to one peer.
func clusterCall[Q, R, WQ, WR any](cc *ClusterClient, o *op[Q, R, WQ, WR], q Q) (res R, err error) {
	leg := func(q Q) func(*RemoteClient) (R, error) {
		return func(rc *RemoteClient) (R, error) { return remoteCall(rc, o, q) }
	}
	var parts []R
	switch o.route {
	case byJob:
		at := o.job(&q)
		if *at, err = cc.resolveJob(*at); err != nil {
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

// mergeHealth merges every peer's health: one row per job (the first peer to
// report it wins), summed subscription stats, furthest clock, longest uptime.
func mergeHealth(_ struct{}, parts []HealthResult) HealthResult {
	var out HealthResult
	seen := make(map[JobID]bool)
	for _, res := range parts {
		out.Now = max(out.Now, res.Now)
		out.Uptime = max(out.Uptime, res.Uptime)
		out.Subs.Active += res.Subs.Active
		out.Subs.Delivered += res.Subs.Delivered
		out.Subs.Dropped += res.Subs.Dropped
		for _, j := range res.Jobs {
			if !seen[j.Job] {
				seen[j.Job] = true
				out.Jobs = append(out.Jobs, j)
			}
		}
	}
	sort.Slice(out.Jobs, func(i, j int) bool { return out.Jobs[i].Job < out.Jobs[j].Job })
	out.Server = fmt.Sprintf("mycroft-cluster/%d peers=%d", api.Version, len(parts))
	return out
}

// stampJobs appends the jobs this daemon follows to its live listing, from
// their latest replicated snapshot, marked so clients can tell live from
// mirrored rows.
func (sv *Server) stampJobs(w *api.JobsResponse) {
	for _, snap := range sv.cluster.snapshots() {
		ji := snap.Job
		ji.Source = "replica"
		w.Jobs = append(w.Jobs, ji)
	}
}

// stampHealth fills what the serving process, not the Service, owns — uptime
// and identity — and appends the followed jobs' replicated health rows.
func (sv *Server) stampHealth(w *api.HealthResponse) {
	w.UptimeMs = time.Since(sv.started).Milliseconds()
	w.Server = sv.identity
	for _, snap := range sv.cluster.snapshots() {
		if snap.Health.Job != "" {
			w.Jobs = append(w.Jobs, snap.Health)
		}
	}
}
