package mycroft

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
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
		"DELETE /v1/subscriptions/{id}",
		"GET /v1/cluster/info",
		"GET /v1/health",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}/channels",
		"GET /v1/jobs/{id}/record",
		"GET /v1/jobs/{id}/spans",
		"GET /v1/ping",
		"GET /v1/subscriptions/{id}/sse",
		"POST /v1/blast-radius",
		"POST /v1/cluster/gossip",
		"POST /v1/cluster/handoff",
		"POST /v1/cluster/join",
		"POST /v1/cluster/replicate",
		"POST /v1/cluster/tail",
		"POST /v1/dependencies/query",
		"POST /v1/jobs/{id}/logs",
		"POST /v1/jobs/{id}/timings",
		"POST /v1/poll",
		"POST /v1/remediations/query",
		"POST /v1/reports/query",
		"POST /v1/subscribe",
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
	trigger := func(seq uint64, rank int, at int64) api.SeqEvent {
		return api.SeqEvent{Seq: seq, Event: api.Event{Job: "j", Kind: "trigger", AtNs: at,
			Trigger: &api.Trigger{Kind: "failure", Rank: rank, AtNs: at}}}
	}
	rs := cluster.NewReplicaStore(0, 0)
	_, err := rs.Apply(api.ReplicateRequest{From: "p1", Job: "j", Entries: []api.SeqEvent{
		trigger(1, 5, 100), trigger(2, 6, 200), trigger(3, 5, 300),
		{Seq: 4, Event: api.Event{Job: "j", Kind: "report", AtNs: 400,
			Report: &api.Report{Trigger: api.Trigger{Kind: "failure"}, Suspect: 5, Category: "network-send-path", AnalyzedAtNs: 400}}},
		{Seq: 5, Event: api.Event{Job: "j", Kind: "action", AtNs: 500,
			Action: &api.Attempt{ID: 1, Action: api.Action{Kind: "isolate-rank", Rank: 5}, Outcome: "succeeded", ReportedAtNs: 400}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
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
