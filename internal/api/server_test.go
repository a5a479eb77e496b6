package api

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mycroft/internal/obs"
)

// TestAnswerWritesWhole: an answer is encoded before anything is sent, so it
// goes out with a Content-Length equal to its body, even at a size net/http
// would otherwise send chunked, and a value encoding/json refuses is a 500
// carrying an ErrorResponse, not an empty 200.
func TestAnswerWritesWhole(t *testing.T) {
	mux := NewMux(obs.New())
	big := PingResponse{Version: Version, Server: strings.Repeat("x", 8<<10)}
	Get(mux, "/ok", func() (PingResponse, error) { return big, nil })
	Get(mux, "/nan", func() (float64, error) { return math.NaN(), nil })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + Prefix + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/ok")
	want, _ := json.Marshal(big)
	if resp.StatusCode != http.StatusOK || string(body) != string(want)+"\n" {
		t.Fatalf("/ok answered %d %.40q, want 200 %.40q", resp.StatusCode, body, want)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("/ok Content-Length %q for a %d-byte body", cl, len(body))
	}

	resp, body = get("/nan")
	var failed ErrorResponse
	if err := json.Unmarshal(body, &failed); err != nil || resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(failed.Error, "NaN") {
		t.Fatalf("/nan answered %d %q (%v), want 500 naming the NaN", resp.StatusCode, body, err)
	}
}

// TestHandleAllocatesNothing: an instrumented route takes its status writer
// from a pool and gives it back cleared, so routing and instrumenting a
// request allocate nothing of their own, and a writer's status never leaks
// into the next request's error count.
func TestHandleAllocatesNothing(t *testing.T) {
	reg := obs.New()
	mux := NewMux(reg)
	fail := false
	mux.Handle("GET", "/quiet", func(w http.ResponseWriter, r *http.Request) {
		if fail {
			w.WriteHeader(http.StatusTeapot)
		}
	})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", Prefix+"/quiet", nil)
	// A malloc count is skipped under -short, how the race job runs: the race
	// detector's sync.Pool drops a share of what it is given.
	if n := testing.AllocsPerRun(100, func() { mux.ServeHTTP(rec, req) }); n != 0 && !testing.Short() {
		t.Errorf("an instrumented request made %v mallocs, want 0", n)
	}
	fail = true
	mux.ServeHTTP(httptest.NewRecorder(), req)
	fail = false
	mux.ServeHTTP(httptest.NewRecorder(), req)
	errs := reg.Counter("mycroft_http_errors_total", "", obs.L("endpoint", Prefix+"/quiet")).Value()
	if errs != 1 {
		t.Errorf("%d requests counted as errors, want the one that failed", errs)
	}
}

// TestReadBodyTrustsNoLength: a declared Content-Length sizes at most a
// firstRead buffer before the bytes arrive, so a body that claims the whole
// 4 MiB cap and sends a few bytes costs no buffer of that size, and a body
// over the cap is refused as too large.
func TestReadBodyTrustsNoLength(t *testing.T) {
	req := httptest.NewRequest("POST", Prefix+"/x", strings.NewReader(`{"lines":[]}`))
	req.ContentLength = maxBody
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, err := ReadBody(httptest.NewRecorder(), req)
	runtime.ReadMemStats(&after)
	if err != nil || string(body) != `{"lines":[]}` {
		t.Fatalf("ReadBody read %q, %v", body, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxBody/8 {
		t.Errorf("reading 12 bytes declared as %d allocated %d bytes, want at most %d", maxBody, grew, maxBody/8)
	}
	req = httptest.NewRequest("POST", Prefix+"/x", strings.NewReader(strings.Repeat("x", maxBody+1)))
	if _, err := ReadBody(httptest.NewRecorder(), req); !errors.As(err, new(*http.MaxBytesError)) {
		t.Errorf("a body over the cap read with error %v, want a MaxBytesError", err)
	}
}
