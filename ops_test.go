package mycroft

import (
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
