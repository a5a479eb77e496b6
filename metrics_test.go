package mycroft

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metricsService builds the full-plane run for scrape tests: one job with
// the self-healing policy attached, nic-down injected, driven far enough
// that ingest, detection, remediation and verification have all happened.
func metricsService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob("trace", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachPolicy("trace", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	return svc
}

// sampleLine matches one Prometheus text-format sample:
// name{labels} value — no timestamps, no exotic suffixes. Label values may
// themselves contain braces (route patterns like "/v1/jobs/{id}/events").
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+$`)

// TestMetricsEndpoint scrapes GET /metrics off a driven daemon and checks
// both the format (every line parses as comment or sample, one HELP/TYPE
// header per family) and the content: the ingest, query-latency,
// subscription, detection, remediation, HTTP and health families the
// operator plane promises.
func TestMetricsEndpoint(t *testing.T) {
	svc := metricsService(t)
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 60; i++ {
		srv.Advance(time.Second)
	}
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.QueryTrace(TraceQuery{Ranks: []Rank{5}, Limit: 10}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q is not Prometheus text format", ct)
	}

	text := string(body)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line %d is not a valid sample: %q", i+1, line)
		}
	}

	for _, want := range []string{
		`mycroft_ingest_records_total{job="trace"}`,
		`mycroft_ingest_bytes_total{job="trace"}`,
		`mycroft_queries_total{job="trace"}`,
		`mycroft_query_latency_seconds_bucket{job="trace",le="+Inf"}`,
		`mycroft_query_latency_seconds_count{job="trace"}`,
		"mycroft_subscriptions_active ",
		"mycroft_subscription_events_total ",
		"mycroft_subscription_events_dropped_total ",
		`mycroft_triggers_total{job="trace",kind="failure"}`,
		`mycroft_reports_total{job="trace"}`,
		`mycroft_rca_latency_seconds_count{job="trace"}`,
		`mycroft_rca_chain_depth_count{job="trace"}`,
		`mycroft_remedy_attempts_total{job="trace",action="recover-fault",outcome=`,
		`mycroft_remedy_verify_seconds_count{job="trace"}`,
		`mycroft_job_health{job="trace"} 1`,
		`mycroft_channel_ingest_total{job="trace",channel="log"}`,
		`mycroft_channel_ingest_total{job="trace",channel="perf"}`,
		`mycroft_channel_anomalies_total{job="trace",channel="log"}`,
		`mycroft_channel_reports_total{job="trace",channel="perf"}`,
		`mycroft_fusion_total{job="trace",outcome="single"}`,
		`mycroft_store_records{job="trace"}`,
		`mycroft_store_bytes{job="trace"}`,
		`mycroft_http_requests_total{endpoint="/v1/ping"}`,
		`mycroft_http_requests_total{endpoint="/v1/trace/query"}`,
		`mycroft_http_request_seconds_count{endpoint="/v1/ping"}`,
		"mycroft_jobs 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}

	for _, family := range []string{
		"mycroft_ingest_records_total", "mycroft_query_latency_seconds",
		"mycroft_subscriptions_active", "mycroft_remedy_attempts_total",
		"mycroft_channel_ingest_total",
	} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Errorf("family %s has %d TYPE headers, want exactly 1", family, n)
		}
	}
}

// TestIngestCountersMatchStore pins the instrument truth: the obs counters
// must agree with the store's own bookkeeping, not drift beside it.
func TestIngestCountersMatchStore(t *testing.T) {
	svc := metricsService(t)
	svc.Run(40 * time.Second)
	jobs, err := svc.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	info := jobs.Jobs[0]
	var buf strings.Builder
	svc.Metrics().WritePrometheus(&buf)
	text := buf.String()

	line := `mycroft_ingest_records_total{job="trace"} `
	idx := strings.Index(text, line)
	if idx < 0 {
		t.Fatalf("no ingest counter in scrape:\n%s", text)
	}
	rest := text[idx+len(line):]
	got := rest[:strings.IndexByte(rest, '\n')]
	if want := strconv.FormatUint(info.Records, 10); got != want {
		t.Errorf("ingest counter %s, store ingested %s (live %d, pruned %d)", got, want, info.Store.Records, info.Store.Pruned)
	}
}

// stallWriter is a ResponseWriter whose first Write says the scrape is
// rendering and then waits to be released.
type stallWriter struct {
	header    http.Header
	rendering chan struct{}
	release   chan struct{}
	body      strings.Builder
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(p []byte) (int, error) {
	if w.body.Len() == 0 {
		close(w.rendering)
		<-w.release
	}
	return w.body.Write(p)
}

// TestScrapeDoesNotStallAdvance: GET /metrics samples its gauges under the
// server mutex and renders after letting go, so Advance runs while a scrape
// is still being written, and scrapes beside a running Advance read nothing
// it writes unguarded (run with -race).
func TestScrapeDoesNotStallAdvance(t *testing.T) {
	srv := NewServer(metricsService(t))
	h := srv.Handler()
	srv.Advance(20 * time.Second)

	w := &stallWriter{header: http.Header{}, rendering: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	}()
	<-w.rendering
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		srv.Advance(time.Second)
	}()
	select {
	case <-advanced:
		close(w.release)
	case <-time.After(30 * time.Second):
		close(w.release)
		<-advanced
		t.Fatal("Advance waited for a scrape to finish rendering")
	}
	<-scraped
	if !strings.Contains(w.body.String(), `mycroft_store_bytes{job="trace"} `) {
		t.Fatalf("scrape is missing the store bytes gauge:\n%s", w.body.String())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 10 {
			srv.Advance(time.Second)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics beside Advance: HTTP %d", rec.Code)
		}
	}
}
