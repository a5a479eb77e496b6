package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"mycroft"
)

// TestHTTPServerBoundsSlowClients pins the daemon's server timeouts: headers
// and idle keep-alives are bounded, while reads and writes are not, so the
// long-lived SSE streams of GET /v1/jobs/{id}/events survive.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	hs := newHTTPServer(http.NewServeMux())
	got := [4]time.Duration{hs.ReadHeaderTimeout, hs.IdleTimeout, hs.ReadTimeout, hs.WriteTimeout}
	want := [4]time.Duration{10 * time.Second, 2 * time.Minute, 0, 0}
	if got != want {
		t.Fatalf("ReadHeaderTimeout, IdleTimeout, ReadTimeout, WriteTimeout = %v, want %v", got, want)
	}
	if hs.Handler == nil {
		t.Fatal("server has no handler")
	}
}

// TestSlowOpScannerLogsClosedSlowSpans: a scan logs each closed span whose
// wall-clock cost reached the threshold, once, and skips fast spans and an
// incident root still open however long it has been open.
func TestSlowOpScannerLogsClosedSlowSpans(t *testing.T) {
	const threshold = 50 * time.Millisecond
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	h := svc.MustAddJob("j", mycroft.JobOptions{})
	var out strings.Builder
	scan := slowOpScanner(svc, threshold, &out)

	spans := svc.Tracer(h.ID)
	spans.OpenIncident("trigger-1", 0)
	slow := spans.StageAt(mycroft.StageRCA, 0)
	time.Sleep(threshold + 10*time.Millisecond)
	spans.EndAt(slow, 0)
	spans.End(spans.Batch(mycroft.StageIngest))
	scan()
	scan()

	got := out.String()
	if n := strings.Count(got, "slow-op"); n != 1 {
		t.Fatalf("logged %d slow ops, want 1 (the rca span):\n%s", n, got)
	}
	if !strings.HasPrefix(got, "mycroft-serve: slow-op job=j span=2 stage=rca cause=trigger-1 wall=") {
		t.Fatalf("slow-op line = %q", got)
	}
	slowOpScanner(svc, 0, &out)()
	if out.String() != got {
		t.Fatalf("threshold 0 logged: %q", out.String())
	}
}
