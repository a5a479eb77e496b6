package mycroft

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
	"mycroft/internal/obs"
)

// Server exposes a Service over the versioned /v1 wire protocol — the
// serving half of the transport-agnostic API. cmd/mycroft-serve wraps its
// Service in one; tests mount Handler on an httptest server.
//
// All wire requests are serialized through one mutex, because the
// deterministic engine underneath is single-threaded; the only blocking
// call, an event-log tail's long-poll, waits outside that mutex so it can
// never starve queries or the drive loop. Advance lets a daemon goroutine
// step virtual time under the same serialization.
//
// Remote subscribers hold no state here. Every hosted job has one
// seq-numbered event log, fed in dispatch order, and a subscriber reads it
// past its own cursor (POST /v1/tail, or GET /v1/jobs/{id}/events as
// server-sent events), filtering on its own side.
type Server struct {
	mu  sync.Mutex
	svc *Service

	// logs holds the event log of every job hosted when the server was
	// built. The map is never written again, so reading it takes no lock.
	logs map[JobID]*cluster.EventLog
	// shutdown is closed by CloseSubscriptions: parked tails return at once,
	// and a tail holding nothing past its cursor answers closed.
	shutdown chan struct{}

	// records maps hosted jobs to their incident recorders when RecordTo is
	// active; GET /v1/jobs/{id}/record serves snapshots from here.
	records map[JobID]*servedRecord

	// identity and started feed /v1/ping, /v1/health and every tail page so
	// clients can log what they connected to and notice a restart.
	identity string
	started  time.Time

	// cluster is set once EnableCluster ran: this daemon is one peer of a
	// sharded/replicated fleet (see cluster.go).
	cluster atomic.Pointer[serverCluster]

	// lockTimes holds each table operation's Server.mu histograms, by
	// Client method. The map is never written after NewServer.
	lockTimes map[string]lockTimes
}

// lockTimes is one operation's pair of Server.mu histograms: how long its
// calls waited for the lock and how long they held it.
type lockTimes struct{ wait, hold *obs.Histogram }

// servedRecord is one job's live incident capture: the recorder plus the
// artifact file it streams to, kept open for snapshot reads.
type servedRecord struct {
	rec  *Recorder
	path string
	f    *os.File
}

// NewServer wraps a Service for HTTP exposure and starts one event log per
// hosted job, so add every job first: a job added later has no log, and a
// remote subscription to it is refused.
func NewServer(svc *Service) *Server {
	sv := &Server{
		svc: svc, logs: make(map[JobID]*cluster.EventLog), shutdown: make(chan struct{}),
		records:  make(map[JobID]*servedRecord),
		identity: fmt.Sprintf("mycroft-serve/%d", api.Version), started: time.Now(),
	}
	for _, id := range svc.Jobs() {
		sv.logs[id] = cluster.NewEventLog()
	}
	svc.streamsMu.Lock()
	svc.logEvent = func(e Event) {
		if log := sv.logs[e.Job]; log != nil {
			log.Append(e)
		}
	}
	svc.streamsMu.Unlock()
	// The serving process stamps its identity and uptime on the service
	// registry (idempotent: re-wrapping the same Service replaces the
	// callbacks and the log hook, so the newest server wins).
	reg := svc.Metrics()
	reg.GaugeFunc("mycroft_build_info", "Serving process identity; value is always 1.",
		func() float64 { return 1 },
		obs.L("server", sv.identity), obs.L("go", runtime.Version()))
	reg.GaugeFunc("mycroft_uptime_seconds", "Wall-clock seconds since the serving process started.",
		func() float64 { return time.Since(sv.started).Seconds() })
	sv.lockTimes = make(map[string]lockTimes, len(opTable))
	for _, o := range opTable {
		op := obs.L("op", o.clientMethod())
		sv.lockTimes[o.clientMethod()] = lockTimes{
			wait: reg.Histogram("mycroft_serve_lock_wait_seconds",
				"Wall-clock seconds a wire request waited for the server lock Advance holds, by operation.", obs.LatencyBuckets, op),
			hold: reg.Histogram("mycroft_serve_lock_hold_seconds",
				"Wall-clock seconds a wire request held the server lock, by operation.", obs.LatencyBuckets, op),
		}
	}
	return sv
}

// heldLock is Server.mu held for one table operation.
type heldLock struct {
	sv   *Server
	hold *obs.Histogram
	at   time.Time
}

// lock takes Server.mu for the named operation and observes how long it
// waited; an operation outside the table is not timed. Neither it nor unlock
// allocates.
func (sv *Server) lock(op string) heldLock {
	lt, timed := sv.lockTimes[op]
	start := time.Now()
	sv.mu.Lock()
	at := time.Now()
	if timed {
		lt.wait.Observe(at.Sub(start).Seconds())
	}
	return heldLock{sv: sv, hold: lt.hold, at: at}
}

// unlock observes how long the lock was held and releases it.
func (h heldLock) unlock() {
	if h.hold != nil {
		h.hold.Observe(time.Since(h.at).Seconds())
	}
	h.sv.mu.Unlock()
}

// RecordTo attaches an incident recorder to every hosted job, writing one
// artifact per job to <dir>/<job>.mycrec (the job id path-escaped, so an id
// holding a separator still names one file), and makes the live captures
// downloadable at GET /v1/jobs/{id}/record. A job that already holds records
// is refused with ErrRecordTooLate, so call it before the first Advance.
func (sv *Server) RecordTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	res, err := sv.svc.ListJobs()
	if err != nil {
		return err
	}
	for _, j := range res.Jobs {
		if _, dup := sv.records[j.ID]; dup {
			continue
		}
		path := filepath.Join(dir, url.PathEscape(string(j.ID))+".mycrec")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		rec, err := sv.svc.Record(j.ID, f)
		if err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
		sv.records[j.ID] = &servedRecord{rec: rec, path: path, f: f}
	}
	return nil
}

// RecordPaths returns the artifact path for every recording job.
func (sv *Server) RecordPaths() map[JobID]string {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make(map[JobID]string, len(sv.records))
	for id, sr := range sv.records {
		out[id] = sr.path
	}
	return out
}

// CloseRecorders finalizes every live capture (footer, file close) and
// reports the first error. Safe to call with recording never enabled.
func (sv *Server) CloseRecorders() error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	var first error
	for id, sr := range sv.records {
		if err := sr.rec.Close(); err != nil && first == nil {
			first = err
		}
		if err := sr.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(sv.records, id)
	}
	return first
}

// v1 mounts the /v1 route set: one route per entry of the Client operation
// table (ops.go), then the endpoints that are long-polls or byte streams
// rather than a request and a response — ping, the event-log tail and its
// SSE form, record download and the peer-to-peer /v1/cluster/* set — as
// plain handlers.
func (sv *Server) v1() *api.Mux {
	mux := api.NewMux(sv.svc.Metrics())
	for _, o := range opTable {
		o.mount(sv, mux)
	}
	api.Get(mux, "/ping", sv.ping)
	api.Post(mux, "/tail", sv.tail)
	mux.Handle("GET", "/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		api.ServeSSE(sv.tail, w, r)
	})
	mux.Handle("GET", "/jobs/{id}/record", sv.serveRecord)
	api.Get(mux, "/cluster/info", sv.clusterInfo)
	api.Post(mux, "/cluster/gossip", sv.clusterGossip)
	api.Post(mux, "/cluster/replicate", sv.clusterReplicate)
	return mux
}

// Handler serves the /v1 endpoint set plus GET /metrics, the service
// registry in Prometheus text format, from one ServeMux. Every /v1 route
// carries per-endpoint request/error/latency instruments registered on the
// same registry; /metrics carries none.
func (sv *Server) Handler() http.Handler {
	reg := sv.svc.Metrics()
	mux := sv.v1()
	mux.HandleRaw("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Sample under the server mutex: gauge callbacks read engine-owned
		// state (store occupancy, stream lists) that the drive loop mutates.
		// Render after, so a scrape holds Advance off only for the callbacks.
		sv.mu.Lock()
		snap := reg.Snapshot()
		sv.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	})
	return mux
}

// Advance steps the Service's virtual time by d, serialized against
// in-flight wire requests.
func (sv *Server) Advance(d time.Duration) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.svc.Run(d)
}

// AnnounceShutdown appends a terminal lifecycle event (Phase
// PhaseServerShutdown) to every hosted job's event log, so remote
// subscribers can tell a clean daemon shutdown from a crash; their tail
// loops deliver it whatever their filter. In-process streams do not see it.
// Call it before CloseSubscriptions. It returns how many job logs it reached.
func (sv *Server) AnnounceShutdown() int {
	sv.mu.Lock()
	now := sv.svc.Now()
	sv.mu.Unlock()
	for job, log := range sv.logs {
		log.Append(Event{Job: job, Kind: EventLifecycle, Phase: PhaseServerShutdown, At: now})
	}
	return len(sv.logs)
}

// CloseSubscriptions closes every event log to its readers (daemon
// shutdown): parked tails return at once, and every tail, now or later,
// hands over what the log holds past its cursor — AnnounceShutdown's entry
// included — and then answers closed, which ends a subscriber's stream
// cleanly. It returns how many job logs it closed: 0 once they already are.
func (sv *Server) CloseSubscriptions() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	select {
	case <-sv.shutdown:
		return 0
	default:
		close(sv.shutdown)
		return len(sv.logs)
	}
}

// tail serves one page of a job's event log past a cursor: the live log on
// the daemon hosting the job, the replicated one on a cluster peer that
// follows it — same request, same seqs, which is what lets a subscription
// move between peers. The long-poll parks outside the server mutex.
func (sv *Server) tail(req api.TailRequest) (api.TailResponse, error) {
	log, source := sv.logs[JobID(req.Job)], "primary"
	if log == nil {
		rj := sv.follows(JobID(req.Job))
		if rj == nil {
			return api.TailResponse{}, fmt.Errorf("mycroft: daemon neither hosts nor follows job %q", req.Job)
		}
		log, source = rj.Log, "replica"
	}
	timeout := min(time.Duration(req.TimeoutMs)*time.Millisecond, 30*time.Second)
	entries, wm := log.TailWait(req.AfterSeq, req.Max, timeout, sv.shutdown)
	if cl := sv.cluster.Load(); cl != nil {
		cl.mTail[source].Inc()
	}
	resp := api.TailResponse{
		Job: req.Job, Entries: entries, Watermark: wm, Source: source,
		StartedUnixNs: sv.started.UnixNano(),
	}
	select {
	case <-sv.shutdown:
		resp.Closed = len(entries) == 0
	default:
	}
	return resp, nil
}

func (sv *Server) ping() (api.PingResponse, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return api.PingResponse{
		Version: api.Version, NowNs: int64(sv.svc.Now()),
		Server: sv.identity, StartedUnixNs: sv.started.UnixNano(),
	}, nil
}

// serveRecord streams the job's current artifact snapshot. The artifact is
// staged before writing: a recording error must become a clean HTTP error,
// not a torn 200. The snapshot is bounded by the recorder's current file
// size, and the chunked format means a client can replay it even though it
// has no footer yet.
func (sv *Server) serveRecord(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := sv.snapshotRecord(JobID(r.PathValue("id")), &buf); err != nil {
		api.Fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	io.Copy(w, &buf)
}

// snapshotRecord flushes the job's recorder (so the file is a valid,
// footer-less capture as of now) and copies the file out. It runs entirely
// under the server mutex — the drive loop is parked, so the snapshot is
// consistent to an exact virtual instant.
func (sv *Server) snapshotRecord(job JobID, w io.Writer) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sr := sv.records[job]
	if sr == nil {
		return fmt.Errorf("mycroft: recording not enabled for job %q", job)
	}
	if err := sr.rec.Sync(); err != nil {
		return err
	}
	f, err := os.Open(sr.path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}
