package api

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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
