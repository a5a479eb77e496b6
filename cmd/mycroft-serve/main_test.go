package main

import (
	"net/http"
	"testing"
	"time"
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
