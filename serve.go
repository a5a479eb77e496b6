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
	"time"

	"mycroft/internal/api"
	"mycroft/internal/obs"
)

// Server exposes a Service over the versioned /v1 wire protocol — the
// serving half of the transport-agnostic API. cmd/mycroft-serve wraps its
// Service in one; tests mount Handler on an httptest server.
//
// All wire requests are serialized through one mutex, because the
// deterministic engine underneath is single-threaded; the only blocking
// call, a subscription long-poll, waits outside that mutex so it can never
// starve queries or the drive loop. Advance lets a daemon goroutine step
// virtual time under the same serialization.
type Server struct {
	mu  sync.Mutex
	svc *Service

	subs   map[string]*wireSub
	subSeq int

	// records maps hosted jobs to their incident recorders when RecordTo is
	// active; GET /v1/jobs/{id}/record serves snapshots from here.
	records map[JobID]*servedRecord

	// identity and started feed /v1/ping and /v1/health so clients can log
	// what they connected to.
	identity string
	started  time.Time

	// cluster is non-nil once EnableCluster ran: this daemon is one peer of
	// a sharded/replicated fleet (see cluster.go).
	cluster *serverCluster
}

// servedRecord is one job's live incident capture: the recorder plus the
// artifact file it streams to, kept open for snapshot reads.
type servedRecord struct {
	rec  *Recorder
	path string
	f    *os.File
}

// wireSub is one served subscription plus the wall-clock bookkeeping that
// lets the server reap it when its client disappears.
type wireSub struct {
	st       *Stream
	lastSeen time.Time
}

// subIdleTTL is how long a wire subscription may go unpolled before the
// server closes it. An SSE client polls every 500ms and a RemoteClient
// every second, so only a client that crashed (or forgot to DELETE) ever
// ages out; without the TTL every abandoned subscription would buffer and
// match events until daemon restart.
const subIdleTTL = 10 * time.Minute

// NewServer wraps a Service for HTTP exposure.
func NewServer(svc *Service) *Server {
	sv := &Server{
		svc: svc, subs: make(map[string]*wireSub),
		records:  make(map[JobID]*servedRecord),
		identity: fmt.Sprintf("mycroft-serve/%d", api.Version), started: time.Now(),
	}
	// The serving process stamps its identity and uptime on the service
	// registry (idempotent: re-wrapping the same Service replaces the
	// callbacks, so the newest server wins).
	reg := svc.Metrics()
	reg.GaugeFunc("mycroft_build_info", "Serving process identity; value is always 1.",
		func() float64 { return 1 },
		obs.L("server", sv.identity), obs.L("go", runtime.Version()))
	reg.GaugeFunc("mycroft_uptime_seconds", "Wall-clock seconds since the serving process started.",
		func() float64 { return time.Since(sv.started).Seconds() })
	return sv
}

// RecordTo attaches an incident recorder to every hosted job, writing one
// artifact per job to <dir>/<job>.mycrec (the job id path-escaped, so an id
// holding a separator still names one file), and makes the live captures
// downloadable at GET /v1/jobs/{id}/record. Call before the first Advance so
// the artifacts replay byte-for-byte.
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

// reapIdleLocked closes subscriptions no one has polled within the TTL.
// Callers hold sv.mu; it runs on the subscription-management paths
// (Subscribe, Poll), so a daemon with no subscription traffic does no work.
func (sv *Server) reapIdleLocked(now time.Time) {
	for id, ws := range sv.subs {
		if now.Sub(ws.lastSeen) > subIdleTTL {
			ws.st.Close()
			delete(sv.subs, id)
		}
	}
}

// v1 mounts the /v1 route set: one route per entry of the Client operation
// table (ops.go), then the endpoints that are conversations or byte streams
// rather than a request and a response — ping, subscriptions, record download
// and the peer-to-peer /v1/cluster/* set — as plain handlers.
func (sv *Server) v1() *api.Mux {
	mux := api.NewMux(sv.svc.Metrics())
	for _, o := range opTable {
		o.mount(sv, mux)
	}
	api.Get(mux, "/ping", sv.ping)
	api.Post(mux, "/subscribe", sv.subscribe)
	api.Post(mux, "/poll", sv.poll)
	mux.Handle("DELETE", "/subscriptions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sv.unsubscribe(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.Handle("GET", "/subscriptions/{id}/sse", func(w http.ResponseWriter, r *http.Request) {
		api.ServeSSE(sv.poll, w, r)
	})
	mux.Handle("GET", "/jobs/{id}/record", sv.serveRecord)
	api.Get(mux, "/cluster/info", sv.clusterInfo)
	api.Post(mux, "/cluster/join", sv.clusterJoin)
	api.Post(mux, "/cluster/gossip", sv.clusterGossip)
	api.Post(mux, "/cluster/replicate", sv.clusterReplicate)
	api.Post(mux, "/cluster/tail", sv.clusterTail)
	api.Post(mux, "/cluster/handoff", sv.clusterHandoff)
	return mux
}

// Handler serves the /v1 endpoint set plus GET /metrics, the service
// registry in Prometheus text format. Every /v1 route carries per-endpoint
// request/error/latency instruments registered on the same registry.
func (sv *Server) Handler() http.Handler {
	reg := sv.svc.Metrics()
	mux := http.NewServeMux()
	mux.Handle(api.Prefix+"/", sv.v1())
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Scrape under the server mutex: gauge callbacks read engine-owned
		// state (store occupancy, stream lists) that the drive loop mutates.
		sv.mu.Lock()
		defer sv.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	return mux
}

// Advance steps the Service's virtual time by d, serialized against
// in-flight wire requests.
func (sv *Server) Advance(d time.Duration) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.svc.Run(d)
	if sv.cluster != nil {
		// Move everything this step dispatched into the per-job event logs
		// while still serialized, so tails and replication see a log exactly
		// as fresh as the engine.
		sv.cluster.drainTap()
	}
}

// AnnounceShutdown delivers a terminal lifecycle event (Phase
// PhaseServerShutdown) to every live wire subscription, so clients can
// distinguish a clean daemon shutdown from a crash. Call it before
// CloseSubscriptions — a closed stream no longer accepts deliveries. It
// returns how many subscriptions were notified.
func (sv *Server) AnnounceShutdown() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	e := Event{Kind: EventLifecycle, Phase: PhaseServerShutdown, At: sv.svc.Now()}
	for _, ws := range sv.subs {
		ws.st.deliver(e)
	}
	return len(sv.subs)
}

// CloseSubscriptions closes every live wire subscription (daemon shutdown)
// and reports how many were force-closed. The map entries stay: a final
// poll still drains buffered events (including AnnounceShutdown's terminal
// one) and then sees a clean Closed — only an ID the server has never
// issued (a restart wiped the map) reports Lost.
func (sv *Server) CloseSubscriptions() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	n := 0
	for _, ws := range sv.subs {
		if !ws.st.isClosed() {
			n++
		}
		ws.st.Close()
	}
	return n
}

func (sv *Server) ping() (api.PingResponse, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return api.PingResponse{
		Version: api.Version, NowNs: int64(sv.svc.Now()),
		Server: sv.identity, StartedUnixNs: sv.started.UnixNano(),
	}, nil
}

// defaultWireBuffer caps a wire subscription whose filter asks for an
// unbounded buffer. An in-process subscriber with Buffer 0 owns its own
// memory, but a remote one that stops polling (crashed client, abandoned
// SSE) would otherwise grow the daemon without bound; overflow is visible
// to the client as PollResponse.Dropped.
const defaultWireBuffer = 4096

// subscribeRequest is the body of POST /v1/subscribe.
type subscribeRequest struct {
	Filter EventFilter `json:"filter"`
}

func (sv *Server) subscribe(req subscribeRequest) (api.SubscribeResponse, error) {
	f := req.Filter
	if f.Buffer <= 0 {
		f.Buffer = defaultWireBuffer
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.reapIdleLocked(time.Now())
	st := sv.svc.Subscribe(f)
	if err := st.Err(); err != nil {
		return api.SubscribeResponse{}, err
	}
	sv.subSeq++
	id := fmt.Sprintf("sub-%d", sv.subSeq)
	sv.subs[id] = &wireSub{st: st, lastSeen: time.Now()}
	return api.SubscribeResponse{ID: id}, nil
}

// poll long-polls one subscription. Only the stream lookup holds the server
// mutex; the bounded wait parks on the stream itself so the drive loop (and
// every other request) keeps running while this handler blocks.
func (sv *Server) poll(req api.PollRequest) (api.PollResponse, error) {
	sv.mu.Lock()
	sv.reapIdleLocked(time.Now())
	ws := sv.subs[req.ID]
	var st *Stream
	if ws != nil {
		ws.lastSeen = time.Now()
		st = ws.st
	}
	sv.mu.Unlock()
	if st == nil {
		// An ID this server never issued (or already reaped): the
		// subscription is gone for good — most often a daemon restart wiped
		// it. Lost tells the client to surface ErrSubscriptionLost instead
		// of treating this like a clean close.
		return api.PollResponse{Closed: true, Lost: true}, nil
	}
	max := req.Max
	if max <= 0 {
		max = 256
	}
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if timeout > 30*time.Second {
		timeout = 30 * time.Second
	}
	var events []Event
	if timeout > 0 {
		if e, ok := st.NextWait(timeout); ok {
			events = append(events, e)
		}
	}
	for len(events) < max {
		e, ok := st.Next()
		if !ok {
			break
		}
		events = append(events, e)
	}
	return api.PollResponse{Events: events, Dropped: st.Dropped(), Closed: st.isClosed() && len(events) == 0}, nil
}

func (sv *Server) unsubscribe(id string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if ws := sv.subs[id]; ws != nil {
		ws.st.Close()
		delete(sv.subs, id)
	}
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
