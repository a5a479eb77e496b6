package mycroft

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
)

// faultedService builds the canonical one-job test run: seed 1, nic-down on
// rank 5 at 15s.
func faultedService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob("trace", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	return svc
}

// remoteClients are the two clients a remote subscription rides: Dial
// straight to a daemon, and DialCluster to it as the one peer of a cluster.
// Both run the same tail loop, so each wire test of a stream runs over both.
var remoteClients = []struct {
	name      string
	clustered bool
}{{"Dial", false}, {"DialCluster", true}}

// enableSolo makes srv, served at addr, the one peer of cluster "solo".
func enableSolo(t *testing.T, srv *Server, addr string) {
	t.Helper()
	err := srv.EnableCluster(ClusterConfig{ID: "solo", Self: "p1", SelfAddr: addr, Peers: map[string]string{"p1": addr}})
	if err != nil {
		t.Fatal(err)
	}
}

// dialVia connects to the daemon at addr with Dial, or with DialCluster
// when clustered.
func dialVia(t *testing.T, addr string, clustered bool) Client {
	t.Helper()
	if clustered {
		cc, err := DialCluster([]string{addr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	rc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// serveDaemon serves srv on a loopback port (as a one-peer cluster when
// clustered) and dials it the same way.
func serveDaemon(t *testing.T, srv *Server, clustered bool) Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if clustered {
		enableSolo(t, srv, addr)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return dialVia(t, addr, clustered)
}

// TestRemoteSubscribeEquivalence is the wire half of the acceptance
// criterion: a Subscribe stream over HTTP — through Dial, and through
// DialCluster to a one-peer cluster — must deliver the same events as an
// in-process subscription on an identically seeded run, with zero drops.
func TestRemoteSubscribeEquivalence(t *testing.T) {
	filter := EventFilter{Kinds: []EventKind{EventTrigger, EventReport}}
	const horizon = 40 * time.Second

	// In-process reference run.
	local := faultedService(t)
	stLocal := local.Subscribe(filter)
	local.Run(horizon)
	want := stLocal.Drain()
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}

	for _, via := range remoteClients {
		t.Run(via.name, func(t *testing.T) {
			// Identical run served over HTTP; the remote subscription attaches
			// before any virtual time passes, then the daemon drives.
			srv := NewServer(faultedService(t))
			stRemote := serveDaemon(t, srv, via.clustered).Subscribe(filter)
			if err := stRemote.Err(); err != nil {
				t.Fatal(err)
			}
			for driven := time.Duration(0); driven < horizon; driven += time.Second {
				srv.Advance(time.Second)
			}

			var got []Event
			for len(got) < len(want) {
				e, ok := stRemote.NextWait(5 * time.Second)
				if !ok {
					break
				}
				got = append(got, e)
			}
			if err := stRemote.Err(); err != nil {
				t.Fatalf("remote stream failed: %v", err)
			}
			if stRemote.Dropped() != 0 {
				t.Fatalf("remote stream dropped %d events", stRemote.Dropped())
			}
			if len(got) != len(want) {
				t.Fatalf("remote delivered %d events, in-process %d", len(got), len(want))
			}
			for i := range want {
				if got[i].String() != want[i].String() || got[i].Kind != want[i].Kind || got[i].At != want[i].At || got[i].Job != want[i].Job {
					t.Errorf("event %d differs:\n remote: %v\n local:  %v", i, got[i], want[i])
				}
			}

			// No stragglers: the remote stream is dry once counts match.
			if e, ok := stRemote.NextWait(200 * time.Millisecond); ok {
				t.Errorf("remote stream delivered an extra event: %v", e)
			}
			if err := stRemote.Close(); err != nil {
				t.Fatal(err)
			}
			if err := stRemote.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sseFrame is one server-sent event as GET /v1/jobs/{id}/events frames it.
type sseFrame struct {
	id    uint64 // the entry's seq; 0 on a frame without one
	event string // the `event:` name; "" on a data frame
	data  string
}

// readSSE reads frames off an SSE body until EOF or until stop accepts one,
// failing on comments other than the keep-alive.
func readSSE(t *testing.T, body io.Reader, stop func(sseFrame) bool) []sseFrame {
	t.Helper()
	var out []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseFrame{}) {
				out = append(out, cur)
				if stop(cur) {
					return out
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("frame id %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line != ": keep-alive":
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSSECarriesEvents holds the one wire surface no client in this repo
// consumes: GET /v1/jobs/{id}/events. A self-healing run's event log must
// stream, as `id:` + `data:` frames that decode through api.Event, at least
// one trigger, one report and one remediation action. A client that drops
// the connection and reconnects with the last id it read as Last-Event-ID
// gets the rest — every seq exactly once — and then the terminal
// `event: closed` frame. Without the header a stream starts at the log's
// watermark.
func TestSSECarriesEvents(t *testing.T) {
	svc := faultedService(t)
	if err := svc.AttachPolicy("trace", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for driven := time.Duration(0); driven < 70*time.Second; driven += time.Second {
		srv.Advance(time.Second)
	}
	// Closed tails still hand over what the log holds past their cursor, so
	// the second read below stops at EOF after its terminal frame.
	srv.CloseSubscriptions()
	watermark := srv.logs["trace"].Watermark()

	connect := func(lastID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+api.Prefix+"/jobs/trace/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q, want text/event-stream", ct)
		}
		return resp
	}

	// First session: from the log's first entry up to the first report, then
	// the connection drops.
	first := connect("0")
	frames := readSSE(t, first.Body, func(f sseFrame) bool { return strings.Contains(f.data, `"kind":"report"`) })
	first.Body.Close()
	if len(frames) == 0 || uint64(len(frames)) >= watermark {
		t.Fatalf("first session read %d of %d entries; the test needs a split", len(frames), watermark)
	}
	// Second session resumes after the last id read.
	second := connect(strconv.FormatUint(frames[len(frames)-1].id, 10))
	frames = append(frames, readSSE(t, second.Body, func(sseFrame) bool { return false })...)
	second.Body.Close()

	last := frames[len(frames)-1]
	if last.event != "closed" {
		t.Fatalf("stream ended on %+v, not its `event: closed` frame", last)
	}
	kinds := map[EventKind]int{}
	for i, f := range frames[:len(frames)-1] {
		if f.event != "" || f.id != uint64(i+1) {
			t.Fatalf("frame %d is %+v, want the data frame of seq %d: a duplicate or a gap", i, f, i+1)
		}
		var e api.Event
		dec := json.NewDecoder(strings.NewReader(f.data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("frame %q: %v", f.data, err)
		}
		if e.Job != "trace" {
			t.Errorf("frame %q is not job trace's", f.data)
		}
		kinds[e.Kind]++
	}
	if got := uint64(len(frames) - 1); got != watermark {
		t.Errorf("two sessions carried %d entries, the log holds %d", got, watermark)
	}
	for _, kind := range []EventKind{EventTrigger, EventReport, EventAction} {
		if kinds[kind] == 0 {
			t.Errorf("SSE stream carried no %v event (got %v)", kind, kinds)
		}
	}

	// Without Last-Event-ID the stream starts at the watermark: nothing is
	// past it on a closed log, so the terminal frame comes first.
	fresh := connect("")
	defer fresh.Body.Close()
	if got := readSSE(t, fresh.Body, func(sseFrame) bool { return false }); len(got) != 1 || got[0].event != "closed" {
		t.Fatalf("stream without Last-Event-ID read %+v, want only the closed frame", got)
	}
}

// TestRemoteQueriesMatchInProcess runs one fixed query set through all four
// ways of reaching a job — the in-process *Service, a *RemoteClient on its
// daemon, a *ClusterClient on the fleet, and a *RemoteClient dialed straight
// to a peer that only follows the job — and requires equal values, not
// merely equal renderings. Every operation must agree between the first
// three; the replica must agree on every operation whose answer replication
// carries in full.
func TestRemoteQueriesMatchInProcess(t *testing.T) {
	const job = JobID("trace")
	names := []string{"a", "b"}
	peers := startCluster(t, names, []JobID{job}, 1)
	primary, follower := peers["a"], peers["b"]
	if cluster.NewRing(names, 0).Primary(string(job)) == "b" {
		primary, follower = follower, primary
	}
	if err := primary.svc.AttachPolicy(job, SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	primary.handles[job].Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	for i := 0; i < 60; i++ {
		for _, p := range peers {
			p.srv.Advance(time.Second)
			if errs := p.srv.ReplicateNow(); len(errs) > 0 {
				t.Fatalf("replication: %v", errs[0])
			}
		}
	}

	local := primary.svc
	rc, err := Dial(primary.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := DialCluster([]string{follower.addr})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Dial(follower.addr)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []JobID{job}
	queries := []struct {
		name string
		// replicated marks an answer a follower can give in full.
		replicated bool
		ask        func(Client) (any, error)
	}{
		{"triggers", true, func(c Client) (any, error) { return c.QueryTriggers(TriggerQuery{Jobs: jobs}) }},
		{"triggers by rank", true, func(c Client) (any, error) { return c.QueryTriggers(TriggerQuery{Jobs: jobs, Ranks: []Rank{5}}) }},
		{"triggers page 2", true, func(c Client) (any, error) { return c.QueryTriggers(TriggerQuery{Jobs: jobs, Offset: 1, Limit: 1}) }},
		{"reports", true, func(c Client) (any, error) { return c.QueryReports(ReportQuery{Jobs: jobs}) }},
		{"reports by suspect", true, func(c Client) (any, error) { return c.QueryReports(ReportQuery{Jobs: jobs, Suspects: []Rank{5}}) }},
		{"reports before the fault", true, func(c Client) (any, error) { return c.QueryReports(ReportQuery{Jobs: jobs, To: 15 * time.Second}) }},
		{"remediations", true, func(c Client) (any, error) { return c.QueryRemediations(RemediationQuery{Jobs: jobs}) }},
		{"remediations succeeded", true, func(c Client) (any, error) {
			return c.QueryRemediations(RemediationQuery{Jobs: jobs, Outcomes: []RemedyOutcome{RemedySucceeded}})
		}},
		{"channels", true, func(c Client) (any, error) { return c.ChannelStats(job) }},
		{"trace page", false, func(c Client) (any, error) { return c.QueryTrace(TraceQuery{Job: job, Ranks: []Rank{5}, Limit: 10}) }},
		{"trace whole rank", false, func(c Client) (any, error) { return c.QueryTrace(TraceQuery{Job: job, Ranks: []Rank{5}}) }},
		{"trace empty window", false, func(c Client) (any, error) {
			return c.QueryTrace(TraceQuery{Job: job, From: 10 * time.Second, To: 10 * time.Second})
		}},
		{"dependencies", false, func(c Client) (any, error) { return c.QueryDependencies(DependencyQuery{Job: job, RenderDOT: true}) }},
		{"blast radius", false, func(c Client) (any, error) { return c.BlastRadius(job, 5) }},
		{"triage", false, func(c Client) (any, error) { return c.Triage(job) }},
		{"spans", false, func(c Client) (any, error) { return c.QuerySpans(SpanQuery{Job: job, Incident: "trigger-1"}) }},
		{"all triggers", false, func(c Client) (any, error) { return c.QueryTriggers(TriggerQuery{}) }},
		{"sole job", false, func(c Client) (any, error) { return c.BlastRadius("", 5) }},
		{"jobs", false, func(c Client) (any, error) { return c.ListJobs() }},
	}
	for _, q := range queries {
		want, err := q.ask(local)
		if err != nil {
			t.Fatalf("%s in process: %v", q.name, err)
		}
		clients := map[string]Client{"remote": rc, "cluster": cc}
		if q.replicated {
			clients["replica"] = replica
		}
		for via, c := range clients {
			got, err := q.ask(c)
			if err != nil {
				t.Errorf("%s via %s: %v", q.name, via, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s via %s differs:\n got  %+v\n want %+v", q.name, via, got, want)
			}
		}
	}

	// The set above must not pass on empty answers.
	trig, _ := local.QueryTriggers(TriggerQuery{Jobs: jobs})
	rem, _ := local.QueryRemediations(RemediationQuery{Jobs: jobs, Outcomes: []RemedyOutcome{RemedySucceeded}})
	if trig.Total < 2 || rem.Total == 0 {
		t.Fatalf("run too quiet to compare: %d triggers, %d succeeded remediations", trig.Total, rem.Total)
	}
	whole, _ := local.QueryTrace(TraceQuery{Job: job, Ranks: []Rank{5}})
	empty, _ := local.QueryTrace(TraceQuery{Job: job, From: 10 * time.Second, To: 10 * time.Second})
	if len(whole.Records) <= 10 || whole.Next != nil || empty.Records != nil {
		t.Fatalf("trace cases miss their shapes: whole rank %d records, next %v; empty window %#v", len(whole.Records), whole.Next, empty.Records)
	}

	// What a follower cannot give in full it refuses, with one error naming
	// the primary: trace records, span rings and the dependency graph stay in
	// the primary's engine. Triage repeats the replicated verdict.
	refusals := map[string]func() error{
		"trace": func() error {
			_, err := replica.QueryTrace(TraceQuery{Job: job, Ranks: []Rank{5}, Limit: 10})
			return err
		},
		"spans": func() error {
			_, err := replica.QuerySpans(SpanQuery{Job: job})
			return err
		},
		"dependencies": func() error {
			_, err := replica.QueryDependencies(DependencyQuery{Job: job})
			return err
		},
		"blast radius": func() error {
			_, err := replica.BlastRadius(job, 5)
			return err
		},
	}
	var refusal string
	for name, ask := range refusals {
		err := ask()
		if err == nil || !strings.Contains(err.Error(), "ask its primary "+primary.name) || !strings.Contains(err.Error(), primary.addr) {
			t.Fatalf("replica %s: %v, want a refusal naming primary %s at %s", name, err, primary.name, primary.addr)
		}
		if refusal == "" {
			refusal = err.Error()
		} else if err.Error() != refusal {
			t.Fatalf("replica %s refuses with %q, the others with %q", name, err, refusal)
		}
	}
	if tri, err := replica.Triage(job); err != nil || tri.Rank != 5 || !strings.Contains(tri.Summary, "replicated verdict") {
		t.Fatalf("replica triage: %+v, %v", tri, err)
	}
}

// TestTracePageFallback: a job id holding bytes encoding/json escapes falls
// back to encoding/json for that one string: the daemon still writes
// json.Encoder's bytes, the page codec reads them, and the answer equals the
// in-process one.
func TestTracePageFallback(t *testing.T) {
	const job = JobID("a<b&c")
	svc := NewService(ServiceOptions{Seed: 1})
	if _, err := svc.AddJob(job, JobOptions{}); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	srv := NewServer(svc)
	srv.Advance(5 * time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := TraceQuery{Job: job, Ranks: []Rank{5}, Limit: 10}
	want, err := svc.QueryTrace(q)
	if err != nil || len(want.Records) != 10 || want.Next == nil {
		t.Fatalf("in-process page: %d records, next %v, err %v", len(want.Records), want.Next, err)
	}
	if got, ok := want.appendWire(nil); !ok || !bytes.Equal(got, encoderBytes(t, &want)) {
		t.Fatalf("appendWire (took %v) wrote\n%.80s\nnot json.Encoder's bytes", ok, got)
	}
	resp, err := http.Post(ts.URL+api.Prefix+"/trace/query", "application/json", strings.NewReader(`{"job":"a<b&c","ranks":[5],"limit":10}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.HasPrefix(raw, []byte(`{"job":"a\u003cb\u0026c","records":[{`)) {
		t.Fatalf("daemon answered %.80s (%v), want json.Encoder's escaped job id", raw, err)
	}
	var back TraceResult
	if !back.parseWire(raw) || back.Job != job {
		t.Fatalf("parseWire did not read the escaped job id: %q", back.Job)
	}
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rc.QueryTrace(q); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("remote page differs (%v):\n got  %+v\n want %+v", err, got, want)
	}
}

// TestVerdictPageFallback: the trigger, report and dependency pages of a job
// whose id holds bytes encoding/json escapes go through their codecs with
// that one string through encoding/json, and the remote pages equal the
// in-process ones; a report with a NaN confidence, which encoding/json
// refuses, is still a 500.
func TestVerdictPageFallback(t *testing.T) {
	const job = JobID("a<b&c")
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob(job, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	srv := NewServer(svc)
	srv.Advance(40 * time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		route       string
		local, wire func() (wireCodec, error)
	}{
		{"/triggers/query",
			func() (wireCodec, error) { r, err := svc.QueryTriggers(TriggerQuery{}); return &r, err },
			func() (wireCodec, error) { r, err := rc.QueryTriggers(TriggerQuery{}); return &r, err }},
		{"/reports/query",
			func() (wireCodec, error) { r, err := svc.QueryReports(ReportQuery{}); return &r, err },
			func() (wireCodec, error) { r, err := rc.QueryReports(ReportQuery{}); return &r, err }},
		{"/dependencies/query",
			func() (wireCodec, error) { r, err := svc.QueryDependencies(DependencyQuery{Job: job}); return &r, err },
			func() (wireCodec, error) { r, err := rc.QueryDependencies(DependencyQuery{Job: job}); return &r, err }},
	} {
		want, err := c.local()
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(want); !bytes.Contains(b, []byte(`"a\u003cb\u0026c"`)) || bytes.Contains(b, []byte(`null`)) {
			t.Fatalf("%s: in-process page holds no escaped job id, or an empty list: %s", c.route, b)
		}
		if got, ok := want.appendWire(nil); !ok || !bytes.Equal(got, encoderBytes(t, want)) {
			t.Fatalf("%s: appendWire (took %v) wrote\n%s\nnot json.Encoder's bytes", c.route, ok, got)
		}
		got, err := c.wire()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: remote page differs (%v):\n got  %+v\n want %+v", c.route, err, got, want)
		}
	}

	nan := *opQueryReports
	nan.path, nan.replica = "/nan-reports", nil
	nan.call = func(Client, ReportQuery) (ReportResult, error) {
		return ReportResult{Reports: []JobReport{{Job: job, Report: Report{Trigger: Trigger{Kind: TriggerFailure},
			Confidence: math.NaN()}}}, Total: 1, NextOffset: -1}, nil
	}
	mux := api.NewMux(svc.Metrics())
	nan.mount(srv, mux)
	ns := httptest.NewServer(mux)
	defer ns.Close()
	resp, err := http.Post(ns.URL+api.Prefix+"/nan-reports", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var failed api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&failed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(failed.Error, "NaN") {
		t.Fatalf("a NaN confidence answered %d %+v (%v), want a 500 naming it", resp.StatusCode, failed, err)
	}
}

// TestServiceQueryNextOffset pins the NextOffset pagination contract on the
// in-process side: walking pages by NextOffset visits every match exactly
// once and the final page says -1.
func TestServiceQueryNextOffset(t *testing.T) {
	svc := faultedService(t)
	svc.Run(40 * time.Second)

	full, err := svc.QueryTriggers(TriggerQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < 1 {
		t.Fatal("run produced no triggers")
	}
	if full.NextOffset != -1 {
		t.Fatalf("unpaginated query NextOffset = %d, want -1", full.NextOffset)
	}

	var walked int
	q := TriggerQuery{Limit: 1}
	for {
		res, err := svc.QueryTriggers(q)
		if err != nil {
			t.Fatal(err)
		}
		walked += len(res.Triggers)
		if res.NextOffset == -1 {
			if len(res.Triggers) == 0 && walked != full.Total {
				t.Fatal("empty non-final page")
			}
			break
		}
		if res.NextOffset != q.Offset+len(res.Triggers) {
			t.Fatalf("NextOffset %d after offset %d + %d items", res.NextOffset, q.Offset, len(res.Triggers))
		}
		q.Offset = res.NextOffset
	}
	if walked != full.Total {
		t.Fatalf("NextOffset walk visited %d of %d matches", walked, full.Total)
	}

	// A page that lands exactly on the last match reports -1, not a
	// phantom next page.
	res, err := svc.QueryTriggers(TriggerQuery{Offset: full.Total - 1, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triggers) != 1 || res.NextOffset != -1 {
		t.Fatalf("exact final page: %d items, NextOffset %d", len(res.Triggers), res.NextOffset)
	}
}

// TestRecordDownloadRoundTrip: a daemon recording with RecordTo serves a
// live artifact snapshot at GET /v1/jobs/{id}/record that replays cleanly,
// and the final on-disk artifact reproduces the run byte-for-byte. The second
// job id holds every character a URL path segment must escape: the record
// download — and each other by-job route — must reach it all the same.
func TestRecordDownloadRoundTrip(t *testing.T) {
	for _, job := range []JobID{"trace", "llm/70b v2?"} {
		t.Run(string(job), func(t *testing.T) { recordDownloadRoundTrip(t, job) })
	}
}

func recordDownloadRoundTrip(t *testing.T, job JobID) {
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob(job, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	dir := t.TempDir()
	if err := srv.RecordTo(dir); err != nil {
		t.Fatal(err)
	}
	if len(srv.RecordPaths()) != 1 {
		t.Fatalf("RecordPaths = %v", srv.RecordPaths())
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Mid-run snapshot: valid but incomplete, consistent to "now".
	srv.Advance(30 * time.Second)
	var snap bytes.Buffer
	if err := rc.FetchRecord(job, &snap); err != nil {
		t.Fatal(err)
	}
	mid, err := Replay(&snap, ReplayOptions{})
	if err != nil {
		t.Fatalf("mid-run snapshot does not replay: %v", err)
	}
	if mid.Complete {
		t.Fatal("mid-run snapshot claims to be complete")
	}
	if mid.RecordsIngested == 0 || len(mid.Replayed.Triggers) == 0 {
		t.Fatalf("snapshot too empty: %d records, %d triggers", mid.RecordsIngested, len(mid.Replayed.Triggers))
	}
	if d := DiffOutcomes(mid.Recorded, mid.Replayed); !d.Zero() {
		t.Fatalf("mid-run snapshot replay drifted:\n%s", d.Render())
	}

	// The other by-job routes address the same job and agree with the
	// in-process answers.
	wantSpans, _ := svc.QuerySpans(SpanQuery{Job: job, Stage: StageDetect})
	if got, err := rc.QuerySpans(SpanQuery{Job: job, Stage: StageDetect}); err != nil || len(got.Spans) == 0 || !reflect.DeepEqual(got, wantSpans) {
		t.Fatalf("spans over the wire: %+v, %v; want %+v", got, err, wantSpans)
	}
	if res, err := rc.IngestLogs(job, []LogLine{{Rank: 1, Level: "info", Text: "step 12 done"}}); err != nil || res.Job != job || res.Accepted != 1 {
		t.Fatalf("log ingest over the wire: %+v, %v", res, err)
	}
	wantStats, _ := svc.ChannelStats(job)
	if got, err := rc.ChannelStats(job); err != nil || !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("channel stats over the wire: %+v, %v; want %+v", got, err, wantStats)
	}

	// Unknown job and un-recorded daemons are clean errors, not torn bodies.
	if err := rc.FetchRecord("ghost", io.Discard); err == nil {
		t.Fatal("FetchRecord of unknown job did not error")
	}

	// Finish the run, close out, and replay the finalized artifact.
	srv.Advance(10 * time.Second)
	if err := srv.CloseRecorders(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, url.PathEscape(string(job))+".mycrec"))
	if err != nil {
		t.Fatal(err)
	}
	final, err := Replay(bytes.NewReader(data), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete {
		t.Fatal("finalized artifact incomplete")
	}
	if d := DiffOutcomes(final.Recorded, final.Replayed); !d.Zero() {
		t.Fatalf("daemon-recorded artifact drifted on replay:\n%s", d.Render())
	}
	// The recorder slot frees after CloseRecorders; downloads now error.
	if err := rc.FetchRecord(job, io.Discard); err == nil {
		t.Fatal("FetchRecord after CloseRecorders did not error")
	}
}
