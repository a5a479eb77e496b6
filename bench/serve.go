package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mycroft"
)

// daemon is a Service served over the /v1 wire protocol on a loopback
// listener, the way cmd/mycroft-serve does it.
type daemon struct {
	svc     *mycroft.Service
	srv     *mycroft.Server
	handler http.Handler
	hs      *http.Server
	addr    string
	capture *captureHandler // traced runs only
}

// listen reserves a loopback port; serve starts answering on it. The two
// are split because a cluster peer must know every peer's address before it
// can build its handler.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func (d *daemon) serve(ln net.Listener, capture bool) {
	d.addr = ln.Addr().String()
	d.handler = d.srv.Handler()
	h := d.handler
	if capture {
		d.capture = &captureHandler{next: h}
		h = d.capture
	}
	d.hs = &http.Server{Handler: h}
	go d.hs.Serve(ln) // returns when close shuts the listener
}

func (d *daemon) close() {
	d.srv.CloseSubscriptions()
	d.hs.Close()
}

// capturedRequest is one wire request as the server saw it, kept so the
// handler can be driven again without a socket.
type capturedRequest struct {
	method, uri string
	body        []byte
}

// captureHandler copies the next request into *into when armed. Capturing
// what RemoteClient really sends keeps the handler probes right when paths
// or bodies change.
type captureHandler struct {
	next http.Handler
	into atomic.Pointer[capturedRequest]
}

func (c *captureHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if into := c.into.Swap(nil); into != nil {
		body, _ := io.ReadAll(r.Body) // a short read fails the request below as it would have
		*into = capturedRequest{method: r.Method, uri: r.URL.RequestURI(), body: body}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	c.next.ServeHTTP(w, r)
}

// readOp is one entry of the read mix.
type readOp struct {
	name   string // also the key of the op's query/api/remote per-layer rows
	rows   bool   // whether it has such rows
	weight int
	// variants is how many distinct argument sets the op rotates through.
	variants int
	call     func(c mycroft.Client, variant int) (any, error)
}

// readMix is the fixed weighted mix both serve workloads draw from: the
// calls `mycroft-trace status`, a dashboard and an on-call engineer make.
func readMix(job mycroft.JobID, world int, suspect mycroft.Rank, incident string) []readOp {
	jobs := []mycroft.JobID{job}
	one := func(fn func(c mycroft.Client) (any, error)) func(mycroft.Client, int) (any, error) {
		return func(c mycroft.Client, _ int) (any, error) { return fn(c) }
	}
	return []readOp{
		{"health", true, 20, 1, one(func(c mycroft.Client) (any, error) {
			res, err := c.Health()
			res.Uptime, res.Server = 0, "" // the daemon's own wall clock and name
			return res, err
		})},
		{"triggers", true, 15, 1, one(func(c mycroft.Client) (any, error) {
			return c.QueryTriggers(mycroft.TriggerQuery{Jobs: jobs})
		})},
		{"reports", true, 15, 1, one(func(c mycroft.Client) (any, error) {
			return c.QueryReports(mycroft.ReportQuery{Jobs: jobs})
		})},
		{"trace_page", true, 15, world, func(c mycroft.Client, v int) (any, error) {
			return c.QueryTrace(mycroft.TraceQuery{Job: job, Ranks: []mycroft.Rank{mycroft.Rank(v)}, Limit: 256})
		}},
		{"jobs", true, 10, 1, one(func(c mycroft.Client) (any, error) { return c.ListJobs() })},
		{"remediations", false, 5, 1, one(func(c mycroft.Client) (any, error) {
			return c.QueryRemediations(mycroft.RemediationQuery{Jobs: jobs})
		})},
		{"channels", false, 5, 1, one(func(c mycroft.Client) (any, error) { return c.ChannelStats(job) })},
		{"deps", true, 5, 1, one(func(c mycroft.Client) (any, error) {
			return c.QueryDependencies(mycroft.DependencyQuery{Job: job})
		})},
		{"blast_radius", false, 5, 1, one(func(c mycroft.Client) (any, error) { return c.BlastRadius(job, suspect) })},
		{"spans", true, 5, 1, one(func(c mycroft.Client) (any, error) {
			return c.QuerySpans(mycroft.SpanQuery{Job: job, Incident: incident})
		})},
	}
}

// wheel lays the mix out as a seeded shuffle of one slot per unit of weight;
// a client walks it round and round, so every run issues the same sequence.
func wheel(mix []readOp, rng *rand.Rand) []int {
	var w []int
	for i, op := range mix {
		for n := 0; n < op.weight; n++ {
			w = append(w, i)
		}
	}
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// same reports whether two answers are the same value, treating a nil slice
// or map and an empty one alike (JSON round trips do not keep the
// difference).
func same(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !same(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return same(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.String:
		return a.String() == b.String()
	}
	return false // funcs and channels never appear in an answer
}

func sameAnswer(a, b any) bool { return same(reflect.ValueOf(a), reflect.ValueOf(b)) }

// expectations holds the in-process answer to every (op, variant) of the
// mix. On a frozen Service they never change, so they are computed once —
// and never concurrently with the server's handlers.
type expectations [][]any

func expect(svc *mycroft.Service, mix []readOp) (expectations, error) {
	out := make(expectations, len(mix))
	for i, op := range mix {
		out[i] = make([]any, op.variants)
		for v := range out[i] {
			want, err := op.call(svc, v)
			if err != nil {
				return nil, fmt.Errorf("in-process %s: %w", op.name, err)
			}
			out[i][v] = want
		}
	}
	return out, nil
}

// verifyEvery is how often a response is compared with the in-process
// answer: every 100th of each op.
const verifyEvery = 100

// sample is one completed read.
type sample struct {
	op      int
	lat     time.Duration
	at      time.Time // when it completed
	spanned bool      // a span was recorded around it
}

// readClient is one caller walking its wheel. With every = 0 it is a closed
// loop: the next request goes out when the previous one has answered, as
// `mycroft-trace` and every other RemoteClient user behaves. With every > 0
// it is an open loop: request i is due at start + i*every whatever happened
// to the ones before, and a request held up by its predecessors is timed
// from when it was due, so a stall in the server shows up in every request
// it delayed and not just in the one that hit it.
type readClient struct {
	c       mycroft.Client
	mix     []readOp
	wheel   []int
	start   int // first variant, so two clients do not page the same ranks
	every   time.Duration
	want    expectations
	samples []sample
	tally
}

// openLoopStart is the instant an open-loop request's latency counts from:
// when it was due if the previous request was still in flight then (the
// server delayed it), else now — a timer that fires a millisecond late is
// the generator's lateness, not the server's.
func openLoopStart(due, prevDone time.Time, open bool) time.Time {
	if open && prevDone.After(due) {
		return due
	}
	return time.Now()
}

// waitUntil sleeps until due and reports false if stop closed first.
func waitUntil(due time.Time, stop <-chan struct{}) bool {
	if wait := time.Until(due); wait > 0 {
		select {
		case <-stop:
			return false
		case <-time.After(wait):
			return true
		}
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// run issues requests until stop is closed. Requests are always counted and
// checked; spans are recorded only while the log is live.
func (rc *readClient) run(stop <-chan struct{}, log *spanLog, id int) {
	issued := make([]int, len(rc.mix))
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * rc.every) // closed loop: always in the past
		if !waitUntil(due, stop) {
			return
		}
		opIdx := rc.wheel[i%len(rc.wheel)]
		op := rc.mix[opIdx]
		variant := (rc.start + issued[opIdx]) % op.variants
		reqLog := log.live()
		sp := reqLog.begin("remote."+op.name, 0, id)
		begin := openLoopStart(due, prevDone, rc.every > 0)
		got, err := op.call(rc.c, variant)
		done := time.Now()
		prevDone = done
		reqLog.end(sp)
		rc.samples = append(rc.samples, sample{op: opIdx, lat: done.Sub(begin), at: done, spanned: sp != 0})
		issued[opIdx]++
		switch {
		case err != nil:
			rc.fail("%s: %v", op.name, err)
		case rc.want != nil && issued[opIdx]%verifyEvery == 0 && !sameAnswer(got, rc.want[opIdx][variant]):
			rc.fail("%s (variant %d): remote answer differs from the in-process one", op.name, variant)
		default:
			rc.ok()
		}
	}
}

// window keeps the samples completed in [from, to).
func window(samples []sample, from, to time.Time) []sample {
	var out []sample
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

// measured is the window a serve workload measured over, with the process's
// allocation counters at both ends.
type measured struct {
	from, to      time.Time
	before, after memCounters
}

// spanSlice is how long a traced serve run keeps spans on, then off: short
// slices interleave the two conditions, so drift in the served state lands on
// both alike.
const spanSlice = 500 * time.Millisecond

// measure sleeps through the warm-up and then the measured window while the
// load goroutines run. On a traced run it pauses and resumes the span log
// every spanSlice; the latency difference between the two kinds of slice is
// the tracing overhead.
func measure(cfg runConfig, log *spanLog) measured {
	if log != nil {
		log.paused.Store(true)
	}
	time.Sleep(cfg.size.warmup)
	w := measured{from: time.Now(), before: readMem()}
	for end := w.from.Add(cfg.seconds); ; {
		left := time.Until(end)
		if left <= 0 {
			break
		}
		if !cfg.traced {
			time.Sleep(left)
			break
		}
		time.Sleep(min(left, spanSlice))
		log.paused.Store(!log.paused.Load())
	}
	w.after = readMem()
	w.to = time.Now()
	return w
}

// spanOverheadPct compares median latency with and without spans.
func spanOverheadPct(samples []sample) float64 {
	var bare, spanned []float64
	for _, s := range samples {
		if s.spanned {
			spanned = append(spanned, ms(s.lat))
		} else {
			bare = append(bare, ms(s.lat))
		}
	}
	if len(bare) == 0 || len(spanned) == 0 {
		return 0
	}
	return 100 * (median(spanned) - median(bare)) / median(bare)
}

// mixMedianMs is the bounded latency of a serve workload: each op's median
// latency, averaged over the mix by weight. The median of the pooled samples
// would sit on the step between two ops of the mix (half the requests are
// the four cheapest ops) and jump from one to the other between identical
// runs; op by op the medians are steady, and a stall spoils a few samples of
// each, not a statistic.
func mixMedianMs(samples []sample, mix []readOp) float64 {
	var sum, weight float64
	for i, op := range mix {
		if lat := latenciesMs(samples, i); len(lat) > 0 {
			sum += float64(op.weight) * median(lat)
			weight += float64(op.weight)
		}
	}
	return sum / weight
}

// readRows stores the per-layer rows every read sample feeds: achieved
// rate, mean and p99 — the statistics a stall moves most, which is why they
// carry no bound.
func readRows(m metrics, samples []sample, from, to time.Time) {
	lat := latenciesMs(samples, -1)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	m.set("remote.reads_per_s", float64(len(lat))/to.Sub(from).Seconds(), len(lat))
	m.set("remote.read_mean_us", sum/float64(len(lat))*1e3, len(lat))
	m.setTail("remote.read_p99_us", lat, p99, 1e3)
}

func latenciesMs(samples []sample, op int) []float64 {
	var out []float64
	for _, s := range samples {
		if op < 0 || s.op == op {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// static is serve-read's fixture: a job run to the horizon with its fault
// diagnosed and healed, then frozen and served.
type static struct {
	d       *daemon
	mix     []readOp
	want    expectations
	clients []*mycroft.RemoteClient
}

func buildStatic(cfg runConfig, t *tally, capture bool) (*static, error) {
	f := pickFault(cfg.seed, cfg.size.serveTopo, cfg.size.faultAt)
	const job = mycroft.JobID("serve")
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.seed})
	h, err := svc.AddJob(job, mycroft.JobOptions{Topo: cfg.size.serveTopo, Backend: selfHealBackend})
	if err != nil {
		return nil, err
	}
	if err := svc.AttachPolicy(job, mycroft.SelfHealPolicy()); err != nil {
		return nil, err
	}
	svc.Start()
	h.Inject(f.spec())
	svc.Run(cfg.size.horizon)
	trigs := h.Triggers()
	if msg := diagnose(f, cfg.size.horizon+time.Second, trigs, h.Reports(), h.RemediationLog()).problem(f); msg != "" {
		t.fail("%s", msg)
	}
	// The incident the spans query filters on is the one the fault opened.
	incident := "trigger-1"
	for i, tr := range trigs {
		if time.Duration(tr.At) >= f.at {
			incident = fmt.Sprintf("trigger-%d", i+1)
			break
		}
	}

	s := &static{d: &daemon{svc: svc, srv: mycroft.NewServer(svc)}}
	s.mix = readMix(job, h.WorldSize(), f.rank, incident)
	if s.want, err = expect(svc, s.mix); err != nil {
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	s.d.serve(ln, capture)
	for i := 0; i < 2; i++ {
		c, err := mycroft.Dial(s.d.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *static) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.d.close()
}

func runServeRead(cfg runConfig, log *spanLog) (metrics, tally, error) {
	var t tally
	s, setupS, err := setUp(cfg, func() (*static, error) { return buildStatic(cfg, &t, cfg.traced) }, (*static).close)
	if err != nil {
		return nil, t, err
	}
	defer s.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	readers := make([]*readClient, len(s.clients))
	for i, c := range s.clients {
		readers[i] = &readClient{c: c, mix: s.mix, wheel: wheel(s.mix, rng), start: rng.Intn(1 << 16), want: s.want}
	}
	var captured map[string]capturedRequest
	if cfg.traced {
		if captured, err = captureOps(s.d, s.clients[0], s.mix); err != nil {
			return nil, t, err
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(stop, log, i+1)
		}()
	}
	w := measure(cfg, log)
	close(stop)
	wg.Wait()

	var all []sample
	for _, r := range readers {
		all = append(all, window(r.samples, w.from, w.to)...)
		t.merge(r.tally)
	}
	if len(all) == 0 {
		return nil, t, fmt.Errorf("no request completed in the measured window")
	}
	m := metrics{}
	if !cfg.traced {
		m.set("setup_s", setupS, cfg.size.setups)
		m.set("lat_p50_ms", mixMedianMs(all, s.mix), len(all))
		m.set("allocs_per_work", float64(w.after.mallocs-w.before.mallocs)/float64(len(all)), len(all))
		m.set("live_heap_mb", liveHeapMB(), 1)
		return m, t, nil
	}

	for i, op := range s.mix {
		if !op.rows {
			continue
		}
		if lat := latenciesMs(all, i); len(lat) > 0 {
			m.set("remote."+op.name+"_p50_us", median(lat)*1e3, len(lat))
		}
		if op.name == "health" {
			m.setTail("serve.health_p99_us", latenciesMs(all, i), p99, 1e3)
		}
	}
	readRows(m, all, w.from, w.to)
	probeServeLayers(m, s, captured)
	procMetrics(m, spanOverheadPct(all))
	return m, t, nil
}

// captureOps issues each op of the mix once with the capture armed.
func captureOps(d *daemon, c mycroft.Client, mix []readOp) (map[string]capturedRequest, error) {
	out := make(map[string]capturedRequest, len(mix))
	for _, op := range mix {
		var req capturedRequest
		d.capture.into.Store(&req)
		if _, err := op.call(c, 0); err != nil {
			return nil, fmt.Errorf("capturing %s: %w", op.name, err)
		}
		if req.method == "" {
			return nil, fmt.Errorf("capturing %s: the call sent no request", op.name)
		}
		out[op.name] = req
	}
	return out, nil
}

// probeServeLayers prices the two layers under the socket on the frozen
// state, op by op: the in-process Service call (query) and the mux, wire
// structs and codec around it (api: the captured request served into a
// recorder).
func probeServeLayers(m metrics, s *static, captured map[string]capturedRequest) {
	for _, op := range s.mix {
		if !op.rows {
			continue
		}
		v := 0
		ns, _, n := timeFor(func() {
			op.call(s.d.svc, v%op.variants) // answers were checked when expectations were built
			v++
		})
		m.set("query."+op.name+"_us", ns/1e3, n)

		req := captured[op.name]
		var respBytes int
		ns, allocs, n := timeFor(func() { respBytes = serveCaptured(s.d.handler, req) })
		m.set("api."+op.name+"_handler_us", ns/1e3, n)
		m.set("api."+op.name+"_allocs", allocs, n)
		m.set("api."+op.name+"_resp_bytes", float64(respBytes), 1)
	}
	scrapeMs(m, s.d.handler)
}

// serveCaptured drives the handler with a captured request and returns the
// response size. The cost of building the request and the recorder (about
// fifteen allocations) is part of what the api rows report.
func serveCaptured(h http.Handler, req capturedRequest) int {
	r := httptest.NewRequest(req.method, req.uri, bytes.NewReader(req.body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		panic(fmt.Sprintf("bench: replaying %s %s: HTTP %d: %s", req.method, req.uri, w.Code, w.Body.String()))
	}
	return w.Body.Len()
}

// scrapeMs prices one Prometheus scrape of the service registry.
func scrapeMs(m metrics, h http.Handler) {
	ns, _, n := timeFor(func() { serveCaptured(h, capturedRequest{method: http.MethodGet, uri: "/metrics"}) })
	m.set("serve.scrape_ms", ns/1e6, n)
}
