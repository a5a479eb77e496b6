package mycroft

import (
	"bytes"
	"encoding"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
)

// TestOpTableCoversClient: the operation table is the single source of the
// transport stack, so every Client method except Subscribe (a conversation,
// not a request and a response) must have exactly one entry, and no entry
// may name a method Client lacks.
func TestOpTableCoversClient(t *testing.T) {
	entries := make(map[string]int)
	for _, o := range opTable {
		entries[o.clientMethod()]++
	}
	client := reflect.TypeOf((*Client)(nil)).Elem()
	for i := 0; i < client.NumMethod(); i++ {
		name := client.Method(i).Name
		want := 1
		if name == "Subscribe" {
			want = 0
		}
		if entries[name] != want {
			t.Errorf("Client.%s has %d table entries, want %d", name, entries[name], want)
		}
		delete(entries, name)
	}
	for name := range entries {
		t.Errorf("table entry %q names no Client method", name)
	}
}

// TestServerRoutes pins the /v1 route set — the table's routes plus the
// plain handlers — so a URL cannot drift silently.
func TestServerRoutes(t *testing.T) {
	want := []string{
		"GET /v1/cluster/info",
		"GET /v1/health",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}/channels",
		"GET /v1/jobs/{id}/events",
		"GET /v1/jobs/{id}/record",
		"GET /v1/jobs/{id}/spans",
		"GET /v1/ping",
		"POST /v1/blast-radius",
		"POST /v1/cluster/gossip",
		"POST /v1/cluster/replicate",
		"POST /v1/dependencies/query",
		"POST /v1/jobs/{id}/logs",
		"POST /v1/jobs/{id}/timings",
		"POST /v1/remediations/query",
		"POST /v1/reports/query",
		"POST /v1/tail",
		"POST /v1/trace/query",
		"POST /v1/triage",
		"POST /v1/triggers/query",
	}
	got := slices.Clone(NewServer(NewService(ServiceOptions{})).v1().Routes())
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("mounted routes:\n%q\nwant:\n%q", got, want)
	}
}

// TestHandlerRoutes pins what the daemon's handler answers by path and
// method: every /v1 route answers its own method with neither 404 nor 405,
// and the other method with 405 and an Allow naming its own; an unknown /v1
// path is 404, as is bare /v1; GET /metrics is the Prometheus page, and any
// other method there is 405; a path that is not clean is a 301 to its clean
// form.
func TestHandlerRoutes(t *testing.T) {
	sv := NewServer(NewService(ServiceOptions{}))
	h := sv.Handler()
	serve := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	routes := sv.v1().Routes()
	if len(routes) == 0 {
		t.Fatal("no routes")
	}
	for _, route := range routes {
		method, pattern, _ := strings.Cut(route, " ")
		path := strings.Replace(pattern, "{id}", "nope", 1)
		other, allow := http.MethodPost, "GET, HEAD"
		if method == http.MethodPost {
			other, allow = http.MethodGet, "POST"
		}
		if rec := serve(method, path); rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s %s answered %d", method, path, rec.Code)
		}
		rec := serve(other, path)
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != allow {
			t.Errorf("%s %s answered %d with Allow %q, want 405 with %q", other, path, rec.Code, rec.Header().Get("Allow"), allow)
		}
	}
	for _, c := range []struct {
		method, path string
		code         int
		header, want string
	}{
		{"GET", api.Prefix + "/nope", http.StatusNotFound, "", ""},
		{"GET", api.Prefix + "/jobs/nope/nope", http.StatusNotFound, "", ""},
		{"GET", api.Prefix, http.StatusNotFound, "", ""},
		{"GET", api.Prefix + "/", http.StatusNotFound, "", ""},
		{"GET", "/nope", http.StatusNotFound, "", ""},
		{"GET", "/metrics", http.StatusOK, "Content-Type", "text/plain; version=0.0.4; charset=utf-8"},
		{"POST", "/metrics", http.StatusMethodNotAllowed, "Allow", "GET, HEAD"},
		{"GET", api.Prefix + "//ping", http.StatusMovedPermanently, "Location", api.Prefix + "/ping"},
		{"GET", api.Prefix + "/jobs/../ping", http.StatusMovedPermanently, "Location", api.Prefix + "/ping"},
	} {
		rec := serve(c.method, c.path)
		if rec.Code != c.code || c.header != "" && rec.Header().Get(c.header) != c.want {
			t.Errorf("%s %s answered %d with %s %q, want %d with %q", c.method, c.path, rec.Code, c.header, rec.Header().Get(c.header), c.code, c.want)
		}
	}
}

// replicaOf adapts a ReplicaStore job to the paged queries' input.
func replicaOf(t *testing.T, rs *cluster.ReplicaStore, job JobID) []jobLog {
	t.Helper()
	rj := rs.Job(string(job))
	if rj == nil {
		t.Fatalf("replica store does not follow %q", job)
	}
	return []jobLog{{job, rj}}
}

// TestPagedQueriesShareFilters pins the filter and page rules of the one
// query implementation a Service and a replica both answer through, on a
// replica's decoded history: rank filter, empty match, time window, and
// Limit 1 → NextOffset walking to -1.
func TestPagedQueriesShareFilters(t *testing.T) {
	trigger := func(seq uint64, rank Rank, at time.Duration) api.SeqEvent {
		return api.SeqEvent{Seq: seq, Event: Event{Job: "j", Kind: EventTrigger, At: at,
			Trigger: &Trigger{Kind: TriggerFailure, Rank: rank, At: sim.Time(at)}}}
	}
	rs := cluster.NewReplicaStore()
	rs.Apply(api.ReplicateRequest{From: "p1", Job: "j", Entries: []api.SeqEvent{
		trigger(1, 5, 100), trigger(2, 6, 200), trigger(3, 5, 300),
		{Seq: 4, Event: Event{Job: "j", Kind: EventReport, At: 400,
			Report: &Report{Trigger: Trigger{Kind: TriggerFailure}, Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: 400}}},
		{Seq: 5, Event: Event{Job: "j", Kind: EventAction, At: 500,
			Action: &RemedyAttempt{ID: 1, Action: remedy.Action{Kind: RemedyIsolateRank, Rank: 5}, Outcome: RemedySucceeded, ReportedAt: 400}}},
	}})
	jobs := replicaOf(t, rs, "j")

	if res := (TriggerQuery{Ranks: []Rank{5}}).over(jobs); res.Total != 2 || res.Triggers[0].At != 100 || res.Triggers[1].At != 300 || res.Triggers[0].Job != "j" {
		t.Fatalf("rank filter: %+v", res)
	}
	if res := (TriggerQuery{Ranks: []Rank{7}}).over(jobs); res.Total != 0 || res.Triggers != nil || res.NextOffset != -1 {
		t.Fatalf("empty match: %+v", res)
	}
	if res := (TriggerQuery{From: 150, To: 250}).over(jobs); res.Total != 1 || res.Triggers[0].Rank != 6 {
		t.Fatalf("time window: %+v", res)
	}
	var walked []Rank
	for q := (TriggerQuery{Limit: 1}); ; {
		res := q.over(jobs)
		if res.Total != 3 || len(res.Triggers) != 1 {
			t.Fatalf("page at offset %d: %+v", q.Offset, res)
		}
		walked = append(walked, res.Triggers[0].Rank)
		if res.NextOffset == -1 {
			break
		}
		q.Offset = res.NextOffset
	}
	if !slices.Equal(walked, []Rank{5, 6, 5}) {
		t.Fatalf("NextOffset walk visited ranks %v", walked)
	}

	if res := (ReportQuery{Categories: []Category{CatNetworkSendPath}}).over(jobs); res.Total != 1 || res.Reports[0].Suspect != 5 {
		t.Fatalf("report category filter: %+v", res)
	}
	if res := (ReportQuery{Suspects: []Rank{6}}).over(jobs); res.Total != 0 {
		t.Fatalf("report suspect filter leak: %+v", res)
	}
	if res := (RemediationQuery{Outcomes: []RemedyOutcome{RemedySucceeded}}).over(jobs); res.Total != 1 || res.Attempts[0].Action.Kind != RemedyIsolateRank {
		t.Fatalf("remediation outcome filter: %+v", res)
	}
	if res := (RemediationQuery{Outcomes: []RemedyOutcome{RemedyFailed}}).over(jobs); res.Total != 0 {
		t.Fatalf("remediation outcome filter leak: %+v", res)
	}

	// The same functions answer for a hosted job.
	svc := faultedService(t)
	svc.Run(40 * time.Second)
	hosted, err := svc.selectJobs(nil)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := svc.QueryTriggers(TriggerQuery{})
	if got := (TriggerQuery{}).over(hosted); all.Total == 0 || !reflect.DeepEqual(got, all) {
		t.Fatalf("hosted job: over = %+v, QueryTriggers = %+v", got, all)
	}
}

// TestGoldenWireFormat holds the two goldens of internal/api/testdata whose
// types live in this package — the rest are held by that package's test of
// the same name — to the same unregenerated bytes. HealthResult is the one
// answer with MarshalJSON of its own, so it also has to survive the trip back.
func TestGoldenWireFormat(t *testing.T) {
	health := HealthResult{
		Now: 42 * time.Second, Uptime: 1234 * time.Millisecond, Server: "mycroft-serve/1",
		Subs: SubStats{Active: 2, Delivered: 917, Dropped: 3},
		Jobs: []JobHealth{
			{Job: "llm-70b", State: HealthStale, Since: 41_500 * time.Millisecond, LastIngest: 30 * time.Second, Reason: "no ingest for 12s (threshold 10s)"},
			{Job: "moe-8x22", State: HealthHealthy, LastIngest: 41_900 * time.Millisecond},
		},
	}
	spans := SpanResult{
		Job: "llm-70b", Total: 3068, Dropped: 12,
		Spans: []Span{{
			ID: 893, Parent: 891, Job: "llm-70b", Stage: StageRCA,
			Cause: "trigger-1", Peer: "p2", Detail: "suspect rank 5 (gpu-hang): chain=3 victims=7",
			Start: 21_000_000_000, End: 27_000_000_000,
			WallStart: 1_700_000_000_123_456_789, WallEnd: 1_700_000_000_123_500_000,
		}},
	}
	for name, v := range map[string]any{"health": health, "spans_response": spans} {
		got, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("internal/api/testdata/" + name + ".golden.json")
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
	var back HealthResult
	if data, _ := json.Marshal(health); json.Unmarshal(data, &back) != nil || !reflect.DeepEqual(back, health) {
		t.Errorf("health round trip:\n got  %+v\n want %+v", back, health)
	}
}

// TestJobWrappersEncodeAsThemselves: JobTrigger, JobReport and JobRemediation
// embed their payload, so a MarshalJSON or MarshalText on the payload would be
// promoted and the wrapper would encode as the bare payload, silently losing
// its job. No payload may grow one.
func TestJobWrappersEncodeAsThemselves(t *testing.T) {
	for _, v := range []any{JobTrigger{}, JobReport{}, JobRemediation{}, blastResult{}} {
		typ := reflect.TypeOf(v)
		for _, iface := range []reflect.Type{
			reflect.TypeOf((*json.Marshaler)(nil)).Elem(), reflect.TypeOf((*json.Unmarshaler)(nil)).Elem(),
			reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(), reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem(),
		} {
			if typ.Implements(iface) || reflect.PointerTo(typ).Implements(iface) {
				t.Errorf("%v inherits %v from an embedded field", typ, iface)
			}
		}
	}
	got, err := json.Marshal(JobTrigger{Job: "j", Trigger: Trigger{Kind: TriggerFailure, Rank: 5}})
	if want := `{"job":"j","trigger":{"kind":"failure","rank":5,"ip":"","at_ns":0,"comm_id":0,"reason":""}}`; err != nil || string(got) != want {
		t.Errorf("JobTrigger encodes as %s (%v), want %s", got, err, want)
	}
}

// TestOpPanicIsA500: a bug inside a mounted operation is a 500 and a counter,
// not a dropped connection or a wedged daemon — Server.mu, held across the
// call, is released on the way out, so the next request is served.
func TestOpPanicIsA500(t *testing.T) {
	svc := faultedService(t)
	sv := NewServer(svc)
	mux := api.NewMux(svc.Metrics())
	boom := &op[struct{}, struct{}]{
		name: "Boom", method: "GET", path: "/boom",
		call: func(Client, struct{}) (struct{}, error) { panic("boom") },
	}
	boom.mount(sv, mux)
	opListJobs.mount(sv, mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + api.Prefix + "/boom")
	if err != nil {
		t.Fatalf("panicking op dropped the connection: %v", err)
	}
	var failed api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&failed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(failed.Error, "boom") {
		t.Fatalf("panicking op answered %d %+v (%v), want 500 naming the panic", resp.StatusCode, failed, err)
	}
	rc := &RemoteClient{wire: newWireClient(ts.URL, time.Minute)}
	if jobs, err := rc.ListJobs(); err != nil || len(jobs.Jobs) != 1 {
		t.Fatalf("request after the panic: %+v, %v", jobs, err)
	}
	var prom strings.Builder
	svc.Metrics().WritePrometheus(&prom)
	for _, series := range []string{
		`mycroft_http_panics_total{endpoint="/v1/boom"} 1`,
		`mycroft_http_errors_total{endpoint="/v1/boom"} 1`,
		`mycroft_http_panics_total{endpoint="/v1/jobs"} 0`,
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("metrics lack %s", series)
		}
	}
}

// TestFailPicksStatus: the one error→HTTP mapping answers 413 for a body over
// the size cap and 400 for a request it cannot decode, each before any state
// changes, and a RemoteClient surfaces the message of any non-200 alike.
func TestFailPicksStatus(t *testing.T) {
	ts := httptest.NewServer(NewServer(faultedService(t)).Handler())
	defer ts.Close()
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+api.Prefix+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var failed api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&failed)
		return resp.StatusCode, failed.Error
	}
	for _, c := range []struct {
		path, body string
		status     int
		names      string
	}{
		{"/trace/query", `{"job":"` + strings.Repeat("x", 4<<20) + `"}`, http.StatusRequestEntityTooLarge, "too large"},
		{"/triggers/query", `{"kinds":["hiccup"]}`, http.StatusBadRequest, "hiccup"},
		{"/remediations/query", `{"outcomes":["shrug"]}`, http.StatusBadRequest, "shrug"},
		{"/tail", `{"job":"ghost"}`, http.StatusBadRequest, "ghost"},
		{"/cluster/replicate", `{"job":"trace","entries":[{"seq":1,"event":{"kind":"trigger","trigger":{"kind":"from-the-future"}}}]}`, http.StatusBadRequest, "from-the-future"},
		{"/triage", `{"job":"nope"}`, http.StatusBadRequest, "nope"},
	} {
		if status, msg := post(c.path, c.body); status != c.status || !strings.Contains(msg, c.names) {
			t.Errorf("POST %s: %d %q, want %d naming %q", c.path, status, msg, c.status, c.names)
		}
	}
}

// TestTableOpsRaceAdvance settles what an operation's answer may share with
// the engine. op.serve returns the Service's result and the handler encodes it
// after Server.mu is released, so every byte the encoder reads must be the
// answer's own or immutable. Clients hammer every table operation — on the
// job's primary and on the peer that only follows it — while the fleet is
// driven through a fault, its diagnosis and its remediation, replicating as
// it goes; the race detector (CI's race job) is the judge.
func TestTableOpsRaceAdvance(t *testing.T) {
	const job = JobID("trace")
	peers := startCluster(t, []string{"a", "b"}, []JobID{job}, 1)
	for _, p := range peers {
		if h := p.handles[job]; h != nil {
			if err := p.svc.AttachPolicy(job, SelfHealPolicy()); err != nil {
				t.Fatal(err)
			}
			h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
		}
	}
	asks := map[string]func(Client) error{
		"ListJobs": func(c Client) error { _, err := c.ListJobs(); return err },
		"QueryTrace": func(c Client) error {
			_, err := c.QueryTrace(TraceQuery{Job: job, Ranks: []Rank{5}, Limit: 64})
			return err
		},
		"QueryTriggers": func(c Client) error { _, err := c.QueryTriggers(TriggerQuery{Jobs: []JobID{job}}); return err },
		"QueryReports":  func(c Client) error { _, err := c.QueryReports(ReportQuery{Jobs: []JobID{job}}); return err },
		"QueryDependencies": func(c Client) error {
			_, err := c.QueryDependencies(DependencyQuery{Job: job, RenderDOT: true})
			return err
		},
		"BlastRadius":       func(c Client) error { _, err := c.BlastRadius(job, 5); return err },
		"QueryRemediations": func(c Client) error { _, err := c.QueryRemediations(RemediationQuery{Jobs: []JobID{job}}); return err },
		"QuerySpans":        func(c Client) error { _, err := c.QuerySpans(SpanQuery{Job: job, Limit: 64}); return err },
		"Triage":            func(c Client) error { _, err := c.Triage(job); return err },
		"Health":            func(c Client) error { _, err := c.Health(); return err },
		"IngestLogs": func(c Client) error {
			_, err := c.IngestLogs(job, []LogLine{{Rank: 5, Level: "error", Text: "NET/IB rdma qp 17 timeout on port 1"}})
			return err
		},
		"IngestTimings": func(c Client) error {
			_, err := c.IngestTimings(job, []IterationSample{{Rank: 5, Iter: 1}})
			return err
		},
		"ChannelStats": func(c Client) error { _, err := c.ChannelStats(job); return err },
	}
	for _, o := range opTable {
		if asks[o.clientMethod()] == nil {
			t.Fatalf("no concurrent caller for table operation %s", o.clientMethod())
		}
	}

	driven := make(chan struct{})
	var wg sync.WaitGroup
	for _, p := range peers {
		for worker := 0; worker < 2; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rc := &RemoteClient{wire: newWireClient("http://"+p.addr, time.Minute)}
				hosts := p.handles[job] != nil
				for {
					for name, ask := range asks {
						select {
						case <-driven:
							return
						default:
						}
						// A follower refuses what replication does not carry
						// (trace, spans, graphs, channel ingest); everything
						// else must answer.
						if err := ask(rc); err != nil && hosts {
							t.Errorf("%s on %s: %v", name, p.name, err)
							return
						}
					}
				}
			}()
		}
	}
	for i := 0; i < 60; i++ {
		for _, p := range peers {
			p.srv.Advance(time.Second)
			if errs := p.srv.ReplicateNow(); len(errs) > 0 {
				t.Errorf("replication: %v", errs[0])
			}
		}
	}
	close(driven)
	wg.Wait()
	for _, p := range peers {
		if p.handles[job] == nil {
			continue
		}
		if rem, _ := p.svc.QueryRemediations(RemediationQuery{}); rem.Total == 0 {
			t.Error("the run the clients raced never reached a remediation")
		}
	}
}

// opRequest is one request as a table route receives it: the job its path
// carries (when it carries one), its query string and its JSON body.
func opRequest(job, query string, body []byte) *http.Request {
	r := &http.Request{
		Method: http.MethodPost, URL: &url.URL{RawQuery: query},
		Body: io.NopCloser(bytes.NewReader(body)),
	}
	r.SetPathValue("id", job)
	return r
}

// FuzzOpDecode feeds arbitrary bodies and query strings to every decode path
// of the operation table. A route may refuse its input, but it may not panic,
// and what it accepts must survive the trip a client gives it: encoded the
// way remoteCall encodes and decoded again, it encodes to the same bytes.
// The seeds are the request halves of TestRemoteQueriesMatchInProcess's
// queries plus, for every enum a request carries, one name outside it —
// which must be refused here, at decode, before any Service call.
func FuzzOpDecode(f *testing.F) {
	index := func(name string) uint8 {
		at := slices.IndexFunc(opTable, func(o tableOp) bool { return o.clientMethod() == name })
		if at < 0 {
			f.Fatalf("no table entry %q", name)
		}
		return uint8(at)
	}
	seeds := []struct {
		op, job, query, body string
		refused              bool
	}{
		{op: "QueryTriggers", body: `{"jobs":["trace"]}`},
		{op: "QueryTriggers", body: `{"jobs":["trace"],"ranks":[5]}`},
		{op: "QueryTriggers", body: `{"jobs":["trace"],"offset":1,"limit":1}`},
		{op: "QueryTriggers", body: `{"kinds":["failure","straggler"],"from_ns":1,"to_ns":2}`},
		{op: "QueryTriggers"},
		{op: "QueryReports", body: `{"jobs":["trace"]}`},
		{op: "QueryReports", body: `{"jobs":["trace"],"suspects":[5],"categories":["gpu-hang"],"comm":7}`},
		{op: "QueryReports", body: `{"jobs":["trace"],"to_ns":15000000000}`},
		{op: "QueryRemediations", body: `{"jobs":["trace"]}`},
		{op: "QueryRemediations", body: `{"jobs":["trace"],"actions":["isolate-rank"],"outcomes":["succeeded"]}`},
		{op: "ChannelStats", job: "trace"},
		{op: "QueryTrace", body: `{"job":"trace","ranks":[5],"limit":10}`},
		{op: "QueryTrace", body: `{"job":"trace","kinds":["completion","state"],"cursor":{"rank":5,"time_ns":9,"emitted":3}}`},
		{op: "QueryDependencies", body: `{"job":"trace","render_dot":true}`},
		{op: "BlastRadius", body: `{"job":"trace","suspect":5}`},
		{op: "BlastRadius", body: `{"suspect":5}`},
		{op: "Triage", body: `{"job":"trace"}`},
		{op: "QuerySpans", job: "trace", query: "incident=trigger-1"},
		{op: "QuerySpans", job: "a/b c", query: "stage=rca&after_id=7&min_wall_ns=1000&limit=3"},
		{op: "ListJobs"},
		{op: "Health"},
		{op: "IngestLogs", job: "trace", body: `{"lines":[{"rank":5,"at_ns":1,"level":"error","text":"NET/IB timeout"}]}`},
		{op: "IngestTimings", job: "trace", body: `{"samples":[{"rank":5,"iter":3,"at_ns":1}]}`},

		{op: "QueryTrace", body: `{"kinds":["summary"]}`, refused: true},
		{op: "QueryTriggers", body: `{"kinds":["hiccup"]}`, refused: true},
		{op: "QueryRemediations", body: `{"actions":["reboot-universe"]}`, refused: true},
		{op: "QueryRemediations", body: `{"outcomes":["shrug"]}`, refused: true},
		{op: "QuerySpans", job: "trace", query: "limit=many", refused: true},
		{op: "QueryTrace", body: `{"ranks":"all"}`, refused: true},
	}
	for _, s := range seeds {
		if _, _, err := opTable[index(s.op)].recode(opRequest(s.job, s.query, []byte(s.body))); (err != nil) != s.refused {
			f.Fatalf("%s %q %q: refused = %v (%v), want %v", s.op, s.query, s.body, err != nil, err, s.refused)
		}
		f.Add(index(s.op), s.job, s.query, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, which uint8, job, query string, body []byte) {
		o := opTable[int(which)%len(opTable)]
		path, sent, err := o.recode(opRequest(job, query, body))
		if err != nil {
			return
		}
		encode := func(path string, sent any) (*url.URL, []byte) {
			u, err := url.Parse(path)
			if err != nil {
				t.Fatalf("%s encoded an unusable path %q: %v", o.clientMethod(), path, err)
			}
			var data []byte
			if sent != nil {
				if data, err = json.Marshal(sent); err != nil {
					t.Fatalf("%s accepted a request it cannot encode: %v", o.clientMethod(), err)
				}
			}
			return u, data
		}
		u, data := encode(path, sent)
		path2, sent2, err := o.recode(opRequest(job, u.RawQuery, data))
		if err != nil {
			t.Fatalf("%s refused its own encoding %s %s: %v", o.clientMethod(), path, data, err)
		}
		if _, data2 := encode(path2, sent2); path2 != path || !bytes.Equal(data2, data) {
			t.Fatalf("%s encoding is not stable:\n first  %s %s\n second %s %s", o.clientMethod(), path, data, path2, data2)
		}
	})
}
