package mycroft

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
	"mycroft/internal/remedy"
)

var updateBodies = flag.Bool("update-bodies", false, "rewrite testdata/wire_bodies.golden")

// wallClock matches the response fields that carry wall-clock readings, the
// only bytes of a /v1 body a seeded run does not fix.
var wallClock = regexp.MustCompile(`"(uptime_ms|wall_start_ns|wall_end_ns|started_unix_ns)":\d+`)

// bodyLog collects raw /v1 bodies, one titled entry each, in the order asked.
type bodyLog struct {
	t   *testing.T
	out bytes.Buffer
}

func (l *bodyLog) add(title string, body []byte) {
	body = wallClock.ReplaceAll(body, []byte(`"$1":1`))
	fmt.Fprintf(&l.out, "### %s\n%s", title, body)
	if !bytes.HasSuffix(body, []byte("\n")) {
		l.out.WriteByte('\n')
	}
}

// ask sends one request to a served handler and logs the raw answer under
// "<state> METHOD path body".
func (l *bodyLog) ask(state, base, method, path, body string) {
	l.t.Helper()
	req, err := http.NewRequest(method, base+api.Prefix+path, strings.NewReader(body))
	if err != nil {
		l.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		l.t.Fatal(err)
	}
	l.add(strings.TrimSpace(fmt.Sprintf("%s %d %s %s %s", state, resp.StatusCode, method, path, body)), raw)
}

// TestWireBodiesGolden pins what reflect.DeepEqual round trips cannot see —
// field order, null against [] against an omitted field — by recording,
// through a real Server.Handler, the raw answer of every table operation on a
// populated and on an empty daemon, one /v1/tail page holding each of the six
// event kinds, and the /v1/cluster/replicate requests a primary ships. The
// file was recorded before the wire mirror structs were deleted; since then
// the event page has changed once, from the retired /v1/poll envelope to the
// /v1/tail one around the same six event objects, and the replicate requests
// once, when they stopped carrying trace records: a diff here is a wire
// break.
func TestWireBodiesGolden(t *testing.T) {
	l := &bodyLog{t: t}

	// Populated: the canonical faulted run with a policy attached, asked
	// mid-incident for the graph and at the horizon for everything else.
	svc := faultedService(t)
	if err := svc.AttachPolicy("trace", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Advance(18 * time.Second)
	l.ask("blocked", ts.URL, "POST", "/dependencies/query", `{"job":"trace","ranks":[5]}`)
	l.ask("blocked", ts.URL, "POST", "/blast-radius", `{"job":"trace","suspect":5}`)
	srv.Advance(42 * time.Second)
	l.ask("populated", ts.URL, "POST", "/jobs/trace/logs",
		`{"lines":[{"rank":5,"level":"error","text":"NET/IB rdma qp 17 timeout on port 1"},{"rank":2,"at_ns":59000000000,"text":"iteration 9 done"}]}`)
	l.ask("populated", ts.URL, "POST", "/jobs/trace/timings", `{"samples":[{"rank":5,"iter":9,"at_ns":59000000000},{"rank":2,"iter":9}]}`)
	for _, q := range [][3]string{
		{"GET", "/jobs", ""},
		{"POST", "/trace/query", `{"job":"trace","ranks":[5],"kinds":["state"],"limit":3}`},
		{"POST", "/trace/query", `{"job":"trace","ranks":[5],"limit":2,"cursor":{"rank":5,"time_ns":1000000000,"emitted":2}}`},
		{"POST", "/triggers/query", ``},
		{"POST", "/reports/query", `{"jobs":["trace"]}`},
		{"POST", "/dependencies/query", `{"job":"trace","render_dot":true}`},
		{"POST", "/blast-radius", `{"suspect":5}`},
		{"POST", "/remediations/query", `{"outcomes":["succeeded"]}`},
		{"GET", "/jobs/trace/spans?incident=trigger-1&limit=4", ""},
		{"POST", "/triage", `{"job":"trace"}`},
		{"GET", "/health", ""},
		{"GET", "/jobs/trace/channels", ""},
		{"POST", "/triage", `{"job":"nope"}`},
	} {
		l.ask("populated", ts.URL, q[0], q[1], q[2])
	}

	// Empty: a hosted job that has not run, asked the same questions, and a
	// daemon hosting nothing for the two listings.
	quiet := NewService(ServiceOptions{Seed: 1})
	if _, err := quiet.AddJob("trace", JobOptions{}); err != nil {
		t.Fatal(err)
	}
	qs := httptest.NewServer(NewServer(quiet).Handler())
	defer qs.Close()
	for _, q := range [][3]string{
		{"GET", "/jobs", ""},
		{"POST", "/trace/query", `{"job":"trace"}`},
		{"POST", "/triggers/query", `{"ranks":[]}`},
		{"POST", "/reports/query", ``},
		{"POST", "/dependencies/query", ``},
		{"POST", "/blast-radius", `{"suspect":5}`},
		{"POST", "/remediations/query", ``},
		{"GET", "/jobs/trace/spans?stage=rca", ""},
		{"POST", "/triage", ``},
		{"GET", "/health", ""},
		{"POST", "/jobs/trace/logs", `{"lines":[]}`},
		{"POST", "/jobs/trace/timings", ``},
		{"GET", "/jobs/trace/channels", ""},
	} {
		l.ask("empty", qs.URL, q[0], q[1], q[2])
	}
	bare := NewService(ServiceOptions{})
	bs := httptest.NewServer(NewServer(bare).Handler())
	defer bs.Close()
	l.ask("bare", bs.URL, "GET", "/jobs", "")
	l.ask("bare", bs.URL, "GET", "/health", "")

	// One tail page carrying every event kind, each payload fully populated,
	// read off the log of a job that has not run.
	trigger := Trigger{Kind: TriggerFailure, Rank: 5, IP: "10.0.0.1", At: 17_500_000_000, CommID: 3, Reason: "stalled mid-op"}
	report := Report{
		Trigger: trigger, Suspect: 5, SuspectIP: "10.0.0.1", CommID: 7,
		Category: CatNetworkSendPath, Via: "min-data", AnalyzedAt: 19_000_000_000, Details: "WRs stuck at NIC",
		Chain:   []Hop{{Comm: 3, Suspect: 2, Via: "min-op", Edge: EdgeNested}, {Comm: 7, Suspect: 5, Via: "min-data"}},
		Victims: []Rank{1, 3, 9}, Confidence: 0.9,
		Evidence: []Evidence{
			{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, Weight: 0.75, At: 19_000_000_000, Detail: "min-data"},
			{Channel: ModalityPerf, Rank: 2, Category: CatComputeStraggler, Weight: 0.5, Score: 1.42, At: 17_000_000_000, Detail: "straggler", Conflict: true},
		},
	}
	attempt := RemedyAttempt{
		ID: 0, Policy: "self-heal", Rule: "recover",
		Action: remedy.Action{Kind: RemedyRecoverFault, Rank: 5, Comm: 7, Category: CatNetworkSendPath},
		Try:    1, ReportedAt: 19_000_000_000, AppliedAt: 19_000_000_000, ResolvedAt: 34_000_000_000,
		Outcome: RemedySucceeded, Detail: "quiet for 15s after action",
	}
	events := NewService(ServiceOptions{})
	if _, err := events.AddJob("llm-70b", JobOptions{}); err != nil {
		t.Fatal(err)
	}
	es := httptest.NewServer(NewServer(events).Handler())
	defer es.Close()
	for _, e := range []Event{
		{Kind: EventLifecycle, Phase: PhaseJobStarted},
		{Kind: EventTrigger, At: 17_500_000_000, Trigger: &trigger},
		{Kind: EventReport, At: 19_000_000_000, Report: &report},
		{Kind: EventAction, At: 34_000_000_000, Action: &attempt},
		{Kind: EventHealth, At: 42_000_000_000, Health: &HealthChange{
			From: HealthHealthy, To: HealthStale, LastIngest: 30 * time.Second, Reason: "no ingest for 12s (threshold 10s)"}},
		{Kind: EventLogAnomaly, At: 18_000_000_000, LogAnomaly: &ChannelAnomaly{
			Channel: ModalityLog, Rank: 5, Ranks: []Rank{5, 7}, Template: "NET/IB rdma qp <*> timeout on port <*>",
			Level: "error", Count: 6, Fleet: 8, Score: 0.88, Category: CatNetworkSendPath, At: 18_000_000_000}},
	} {
		e.Job = "llm-70b"
		events.dispatch(e)
	}
	l.ask("six kinds", es.URL, "POST", "/tail", `{"job":"llm-70b"}`)

	// The replication requests a primary ships to its follower over the first
	// 30 s of the same faulted run: entries of every kind the run produced
	// and the coarse snapshot.
	var ackSeq uint64
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		l.add("replicate POST "+r.URL.Path, raw)
		var batch struct {
			Entries []struct {
				Seq uint64 `json:"seq"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(raw, &batch); err != nil {
			t.Error(err)
		}
		if n := len(batch.Entries); n > 0 {
			ackSeq = batch.Entries[n-1].Seq
		}
		fmt.Fprintf(w, `{"ack_seq":%d}`, ackSeq)
	}))
	defer follower.Close()
	primary := faultedService(t)
	if err := primary.AttachPolicy("trace", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	psrv := NewServer(primary)
	self, other := "a", "b"
	if cluster.NewRing([]string{self, other}, 0).Primary("trace") != self {
		self, other = other, self
	}
	err := psrv.EnableCluster(ClusterConfig{
		ID: "test", Self: self, SelfAddr: "127.0.0.1:1",
		Peers: map[string]string{self: "127.0.0.1:1", other: follower.URL}, Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	psrv.Advance(30 * time.Second)
	for round := 0; round < 2; round++ {
		if errs := psrv.ReplicateNow(); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	}

	const path = "testdata/wire_bodies.golden"
	if *updateBodies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, l.out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := l.out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			title := ""
			for j := i; j >= 0 && title == ""; j-- {
				if strings.HasPrefix(gotLines[j], "### ") {
					title = gotLines[j]
				}
			}
			wantLine := "(end of file)"
			if i < len(wantLines) {
				wantLine = wantLines[i]
			}
			t.Fatalf("wire body drifted from %s at line %d, under %q:\n got  %s\n want %s", path, i+1, title, gotLines[i], wantLine)
		}
	}
	t.Fatalf("wire bodies are a prefix of %s: %d lines, want %d", path, len(gotLines), len(wantLines))
}
