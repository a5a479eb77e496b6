package mycroft

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"mycroft/internal/train"
)

// logBatch is n lines of a training job's info chatter, as a log shipper
// posts them: one per rank in turn, each a template with numbers in it.
func logBatch(n, world int) []LogLine {
	lines := make([]LogLine, n)
	for i := range lines {
		lines[i] = LogLine{Rank: Rank(i % world), Level: "info",
			Text: fmt.Sprintf("allreduce comm %d seq %d finished in %.2fms", 1+i%7, 1000+i, 1+float64(i)/7)}
	}
	return lines
}

// ingestBodies are request bodies in json.Marshal's form, which the readers
// must take: empty and nil lists, escaped, non-ASCII and invalid UTF-8
// texts, every level and one outside the set, and numbers at their limits.
func ingestBodies(t testing.TB) [][]byte {
	var bodies [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	add(logsArgs{})
	add(logsArgs{Lines: []LogLine{}})
	add(logsArgs{Lines: logBatch(64, 8)})
	add(logsArgs{Lines: []LogLine{
		{Rank: 5, Level: "error", Text: `NET/IB "qp 17" timeout <port 1> & retry\n`},
		{Rank: 0, At: 1, Level: "warn", Text: "GPU 3 Xid 79 — fallen off the bus ✗"},
		{Rank: math.MaxInt, At: math.MaxInt64, Text: "bad utf-8 \xff\xfe and   end"},
		{Rank: math.MinInt, At: math.MinInt64, Level: "debug", Text: ""},
		{Rank: 1, Level: "info", Text: "ok"},
	}})
	add(timingsArgs{})
	add(timingsArgs{Samples: []IterationSample{}})
	add(timingsArgs{Samples: []IterationSample{
		{Rank: 0, Iter: 0}, {Rank: 3, Iter: 7, At: 8 * time.Second},
		{Rank: math.MaxInt, Iter: math.MinInt, At: math.MinInt64},
		{Rank: math.MinInt, Iter: math.MaxInt, At: math.MaxInt64},
	}})
	return bodies
}

// readBoth reads body through the request's reader and through
// json.Unmarshal, and fails the test when the reader takes a body
// json.Unmarshal refuses or reads it differently. It reports whether the
// reader took it.
func readBoth[A any, PA interface {
	*A
	wireReader
}](t *testing.T, body []byte) bool {
	t.Helper()
	fast := PA(new(A))
	if !fast.parseWire(body) {
		if !reflect.DeepEqual(fast, PA(new(A))) {
			t.Fatalf("parseWire declined %q but changed its value to %+v", body, *fast)
		}
		return false
	}
	slow := new(A)
	if err := json.Unmarshal(body, slow); err != nil {
		t.Fatalf("parseWire took a body json.Unmarshal refuses (%v): %q", err, body)
	}
	if !reflect.DeepEqual((*A)(fast), slow) {
		t.Fatalf("parseWire read\n%+v\njson.Unmarshal reads\n%+v\nfrom %q", *fast, *slow, body)
	}
	return true
}

// TestIngestWireReadsMarshal: every body json.Marshal writes for a log or
// timing batch takes the reader, which reads it as json.Unmarshal does.
func TestIngestWireReadsMarshal(t *testing.T) {
	for _, body := range ingestBodies(t) {
		logs := bytes.HasPrefix(body, []byte(`{"lines":`))
		if took := readBoth[logsArgs](t, body); logs && !took {
			t.Errorf("the log reader declined json.Marshal's %q", body)
		}
		if took := readBoth[timingsArgs](t, body); !logs && !took {
			t.Errorf("the timing reader declined json.Marshal's %q", body)
		}
	}
}

// TestIngestWireDeclines: a body json.Marshal would not write goes to
// encoding/json, whether json.Unmarshal takes it or not.
func TestIngestWireDeclines(t *testing.T) {
	for _, body := range []string{
		``, `null`, `{}`, ` {"lines":[]}`, `{"lines":[]}` + "\n", `{"lines": []}`,
		`{"lines":[{"text":"a","rank":1}]}`,
		`{"lines":[{"rank":1,"text":"a","extra":2}]}`,
		`{"lines":[{"rank":1,"level":"warn","at_ns":5,"text":"a"}]}`,
		`{"lines":[{"rank":01,"text":"a"}]}`,
		`{"lines":[{"rank":-0,"text":"a"}]}`,
		`{"lines":[{"rank":1e2,"text":"a"}]}`,
		`{"lines":[{"rank":1.0,"text":"a"}]}`,
		`{"lines":[{"rank":9223372036854775808,"text":"a"}]}`,
		`{"lines":[{"rank":1,"text":"a"},]}`,
		`{"lines":[{"rank":1,"text":"a}]}`,
		`{"lines":[{"rank":1,"text":"a"}]}{}`,
		`{"Lines":[{"rank":1,"text":"a"}]}`,
		`{"samples":[{"rank":1,"iter":2,"at_ns":-0}]}`,
		`{"samples":[{"iter":2,"rank":1}]}`,
		`{"samples":[{"rank":1,"iter":2}],"job":"x"}`,
	} {
		if readBoth[logsArgs](t, []byte(body)) || readBoth[timingsArgs](t, []byte(body)) {
			t.Errorf("a reader took %q, which json.Marshal does not write", body)
		}
	}
}

// TestIngestWireSharesBody: a log batch's verbatim texts are slices of one
// copy of the body, its levels are the channel's constants, and an escaped
// text is a string of its own.
func TestIngestWireSharesBody(t *testing.T) {
	lines := append(logBatch(64, 8), LogLine{Rank: 2, Level: "warn", Text: `x < y`})
	body, err := json.Marshal(logsArgs{Lines: lines})
	if err != nil {
		t.Fatal(err)
	}
	var a logsArgs
	if !a.parseWire(body) {
		t.Fatal("parseWire declined json.Marshal's batch")
	}
	// The copy of the body the first text lies in spans [lo, hi).
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	lo := addr(a.Lines[0].Text) - uintptr(bytes.Index(body, []byte(a.Lines[0].Text)))
	hi := lo + uintptr(len(body))
	if lo == uintptr(unsafe.Pointer(&body[0])) {
		t.Fatal("the texts alias the body's bytes, not a copy of them")
	}
	for i, l := range a.Lines {
		if l.Text != lines[i].Text {
			t.Fatalf("line %d reads %q, want %q", i, l.Text, lines[i].Text)
		}
		within := addr(l.Text) >= lo && addr(l.Text)+uintptr(len(l.Text)) <= hi
		if verbatim := i < 64; within != verbatim {
			t.Errorf("line %d's text %q lies in the body's copy: %v, want %v", i, l.Text, within, verbatim)
		}
	}
	if info, warn := a.Lines[0].Level, a.Lines[64].Level; unsafe.StringData(info) != unsafe.StringData("info") ||
		unsafe.StringData(warn) != unsafe.StringData("warn") {
		t.Error("a level is not the channel's constant")
	}
}

// FuzzIngestWire holds the /logs and /timings readers to encoding/json: on
// any body each either declines or reads what json.Unmarshal reads, and a
// batch json.Marshal wrote from any rank, time, iteration, level and text is
// never declined.
func FuzzIngestWire(f *testing.F) {
	for _, body := range ingestBodies(f) {
		f.Add(body, 0, int64(0), 0, "", "")
	}
	f.Add([]byte(`null`), 3, int64(-1), -1, "warn", "a\\b\"c ")
	for _, level := range []string{"info", "warn", "error", ""} {
		f.Add([]byte(`{"lines":[{"rank":1,"level":"`+level+`","text":"x"}]}`), 5, int64(time.Second), 2, level, "NIC rnic5 down")
	}
	f.Fuzz(func(t *testing.T, body []byte, rank int, at int64, iter int, level, text string) {
		readBoth[logsArgs](t, body)
		readBoth[timingsArgs](t, body)
		// Neither batch holds a value json.Marshal refuses.
		logs, _ := json.Marshal(logsArgs{Lines: []LogLine{{Rank: Rank(rank), At: time.Duration(at), Level: level, Text: text}, {Text: level}}})
		timings, _ := json.Marshal(timingsArgs{Samples: []IterationSample{{Rank: Rank(rank), Iter: iter, At: time.Duration(at)}, {}}})
		if !readBoth[logsArgs](t, logs) || !readBoth[timingsArgs](t, timings) {
			t.Fatalf("a reader declined json.Marshal's %q or %q", logs, timings)
		}
	})
}

// TestLogsPostDecodeAllocs posts one 64-line /logs body through
// Server.Handler: read by its reader, the decode adds the line slice to
// what an empty batch costs (the copy of the body both pay), where
// encoding/json pays a level and a text string a line besides.
func TestLogsPostDecodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count; -short is how the race job runs")
	}
	tc := train.JobConfig(TopoConfig{Nodes: 1, GPUsPerNode: 8, TP: 2, PP: 2, DP: 2}, train.ComputeHeavy)
	tc.DisableTracing = true
	svc := NewService(ServiceOptions{Seed: 1})
	if _, err := svc.AddJob("llm", JobOptions{Train: &tc}); err != nil {
		t.Fatal(err)
	}
	h := NewServer(svc).Handler()
	// Each run posts the next body, stamped 20 s after the last, so every
	// template's window holds one batch and its slices stop growing.
	const runs = 50
	bodies := func(form func([]LogLine) ([]byte, error)) [][]byte {
		out := make([][]byte, runs+2)
		for i := range out {
			lines := logBatch(64, 8)
			for j := range lines {
				lines[j].At = time.Duration(i+1) * 20 * time.Second
			}
			if i == len(out)-1 {
				lines = []LogLine{}
			}
			b, err := form(lines)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	canonical := bodies(func(l []LogLine) ([]byte, error) { return json.Marshal(logsArgs{Lines: l}) })
	indented := bodies(func(l []LogLine) ([]byte, error) { return json.MarshalIndent(logsArgs{Lines: l}, "", " ") })
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/llm/logs", rd)
	post := func(body []byte) {
		rd.Reset(body)
		req.ContentLength = int64(len(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /logs answered %d: %s", rec.Code, rec.Body)
		}
	}
	measure := func(bodies [][]byte) (batch, empty float64) {
		i := 0
		batch = testing.AllocsPerRun(runs, func() { post(bodies[i]); i++ })
		empty = testing.AllocsPerRun(runs, func() { post(bodies[len(bodies)-1]) })
		return batch, empty
	}
	fast, fastEmpty := measure(canonical)
	slow, _ := measure(indented)
	t.Logf("POST /logs: %.0f mallocs for 64 lines by the reader (%.0f for none), %.0f through encoding/json",
		fast, fastEmpty, slow)
	if fast > fastEmpty+2 {
		t.Errorf("the reader's decode of 64 lines adds %.0f mallocs to an empty batch's, want at most 2", fast-fastEmpty)
	}
	if slow < fast+2*64 {
		t.Errorf("encoding/json costs %.0f mallocs and the reader %.0f: want the reader %d fewer", slow, fast, 2*64)
	}
}
