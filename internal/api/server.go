package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"mycroft/internal/obs"
)

// Mux is the daemon's one route set. Every route Handle mounts sits under
// Prefix and carries a request counter, an error counter and a latency
// histogram labeled by its pattern (not the raw URL, so job ids never explode
// the label space). The root package's Server fills it: one route per entry
// of its Client operation table, plus the endpoints that are not a request
// and a response (event tails, record download, /v1/cluster/*) mounted as
// plain handlers, and /metrics through HandleRaw.
//
// Requests are JSON bodies (or a query string on GET routes); errors come
// back as ErrorResponse with the status Fail picks. A handler that panics is
// recovered here: the client gets a 500, the endpoint's panic counter moves,
// and the connection and the daemon stay up.
type Mux struct {
	mux    *http.ServeMux
	reg    *obs.Registry
	routes []string
}

// NewMux builds an empty route set whose instruments register on reg.
func NewMux(reg *obs.Registry) *Mux {
	return &Mux{mux: http.NewServeMux(), reg: reg}
}

func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// Routes lists every mounted route as "METHOD pattern", in mount order.
func (m *Mux) Routes() []string { return m.routes }

// HandleRaw mounts fn at pattern as it is: outside Prefix, with no
// instruments, and not listed by Routes.
func (m *Mux) HandleRaw(pattern string, fn http.HandlerFunc) { m.mux.HandleFunc(pattern, fn) }

// Handle mounts fn at method + Prefix + path, instrumented.
func (m *Mux) Handle(method, path string, fn http.HandlerFunc) {
	pattern := Prefix + path
	el := obs.L("endpoint", pattern)
	requests := m.reg.Counter("mycroft_http_requests_total", "HTTP requests served, by endpoint.", el)
	failed := m.reg.Counter("mycroft_http_errors_total", "HTTP requests answered 4xx/5xx, by endpoint.", el)
	panics := m.reg.Counter("mycroft_http_panics_total", "HTTP handlers that panicked and were answered 500, by endpoint.", el)
	latency := m.reg.Histogram("mycroft_http_request_seconds", "Wall-clock HTTP request latency in seconds.", obs.LatencyBuckets, el)
	m.routes = append(m.routes, method+" "+pattern)
	m.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				panics.Inc()
				Fail(sw, internalError{p})
			}
			latency.Observe(time.Since(start).Seconds())
			if sw.status >= 400 {
				failed.Inc()
			}
		}()
		fn(sw, r)
	})
}

// internalError is the daemon's own fault, a handler's panic or an answer
// that does not encode, as the error Fail answers 500 for.
type internalError struct{ cause any }

func (e internalError) Error() string { return fmt.Sprintf("api: internal error: %v", e.cause) }

// Get mounts one call→encode endpoint that takes no request.
func Get[Resp any](m *Mux, path string, fn func() (Resp, error)) {
	m.Handle("GET", path, func(w http.ResponseWriter, r *http.Request) {
		resp, err := fn()
		Answer(w, resp, err)
	})
}

// Post mounts one decode→call→encode JSON-RPC style endpoint.
func Post[Req, Resp any](m *Mux, path string, fn func(Req) (Resp, error)) {
	m.Handle("POST", path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := ReadJSON(w, r, &req); err != nil {
			Fail(w, err)
			return
		}
		resp, err := fn(req)
		Answer(w, resp, err)
	})
}

// ReadJSON decodes a size-capped JSON request body into v; an empty body
// leaves v at its zero value.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		return fmt.Errorf("api: reading request: %w", err)
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("api: decoding request: %w", err)
		}
	}
	return nil
}

// statusWriter records the response code and forwards Flush so the SSE
// stream keeps working behind the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
	// length holds the Content-Length value Write sets, so the header needs
	// no slice of its own.
	length [1]string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Answer writes resp as JSON, or err through Fail. The body is encoded whole
// before anything is sent, so it goes out with its Content-Length in one
// write, and a value that does not encode is a 500, not a truncated 200.
func Answer(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		Fail(w, err)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		Fail(w, internalError{err})
		return
	}
	Write(w, append(body, '\n'))
}

// jsonType is every answer's Content-Type value. Headers share it, and
// nothing mutates it: net/http copies the header when it is written.
var jsonType = []string{"application/json"}

// Write answers 200 with body, a JSON document already encoded as Answer
// encodes one, newline included.
func Write(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonType
	n := strconv.Itoa(len(body))
	if sw, ok := w.(*statusWriter); ok {
		sw.length[0] = n
		h["Content-Length"] = sw.length[:]
	} else {
		h["Content-Length"] = []string{n}
	}
	w.Write(body)
}

// Fail is the one place an error becomes an HTTP answer. The error picks the
// status: 500 for a recovered panic or an answer that does not encode, 413
// for a body over ReadJSON's cap, 400 for everything else. Clients treat
// every non-200 alike and read the message.
func Fail(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, new(internalError)):
		status = http.StatusInternalServerError
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	}
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// ServeSSE streams one job's event log as server-sent events, reading it
// through tail — the same page a POST /v1/tail answers. Each entry is one
// frame whose `id:` is its seq and whose `data:` is its Event, so a client
// that reconnects with the last id it read as Last-Event-ID resumes right
// after it; without the header the stream starts at the log's watermark.
// Entries the log no longer held (a seq gap) show up as a `: dropped=N`
// comment counting every frame lost so far, and a daemon closing its tails
// ends the stream with `event: closed`. A job the daemon neither hosts nor
// follows is refused before the stream starts. The loop long-polls in short
// slices so a client disconnect is noticed within half a second.
func ServeSSE(tail func(TailRequest) (TailResponse, error), w http.ResponseWriter, r *http.Request) {
	job := r.PathValue("id")
	head, err := tail(TailRequest{Job: job, AfterSeq: math.MaxUint64})
	if err != nil {
		Fail(w, err)
		return
	}
	cursor := head.Watermark
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		if cursor, err = strconv.ParseUint(id, 10, 64); err != nil {
			Fail(w, fmt.Errorf("api: Last-Event-ID %q is not an event seq", id))
			return
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fl.Flush()

	var dropped uint64
	for {
		select {
		case <-r.Context().Done():
			return
		default:
		}
		page, err := tail(TailRequest{Job: job, AfterSeq: cursor, TimeoutMs: 500, Max: 64})
		if err != nil {
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", jsonLine(ErrorResponse{Error: err.Error()}))
			fl.Flush()
			return
		}
		for _, se := range page.Entries {
			if gap := se.Seq - cursor - 1; gap > 0 {
				dropped += gap
				fmt.Fprintf(w, ": dropped=%d\n\n", dropped)
			}
			cursor = se.Seq
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", se.Seq, jsonLine(se.Event))
		}
		if page.Closed {
			fmt.Fprint(w, "event: closed\ndata: {}\n\n")
			fl.Flush()
			return
		}
		if len(page.Entries) == 0 {
			// Heartbeat comment: keeps intermediaries from timing the stream
			// out and surfaces a broken pipe on the next write.
			fmt.Fprint(w, ": keep-alive\n\n")
		}
		fl.Flush()
	}
}

func jsonLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{}`)
	}
	return b
}
