// Package otrace is Mycroft's own tracing layer: an allocation-lean,
// ring-buffered span recorder that attributes per-incident latency across
// the diagnosis pipeline — ingest batch → detection → RCA walk → report
// publish → subscription fan-out → remediation attempt/verify → cluster
// replication. Each span carries both virtual (sim.Time) and wall
// timestamps: virtual timestamps drive every deterministic surface (wire
// form ordering, the CLI waterfall), wall timestamps price the real compute
// cost of a stage for slow-op logging and profiling.
//
// The recorder is a fixed ring guarded by one uncontended mutex. Begin/End
// write a preallocated slot in place — zero allocations — so the hot ingest
// path can be spanned without moving bench's clouddb.ingest_ns_per_record
// row (otrace.span_ns prices one span). Span IDs are
// monotonic; a slot overwritten by ring wrap-around is counted in Dropped.
package otrace

import (
	"sync"
	"time"

	"mycroft/internal/sim"
)

// SpanID identifies one recorded span. IDs are monotonic per recorder,
// starting at 1; 0 means "no span" everywhere (parent links, nil tracers).
type SpanID uint64

// Pipeline stage labels. Every layer that records spans uses these
// constants, so queries and the CLI waterfall agree on spelling.
const (
	// StageIncident is the root of one incident's causal tree: opened when a
	// trigger fires, closed when remediation is verified (or fails).
	StageIncident = "incident"
	// StageUpload is a collector agent's drain→cloud-DB upload window.
	StageUpload = "upload"
	// StageIngest is one cloud-DB ingest batch: store, prune, observers.
	StageIngest = "ingest"
	// StageDetect is the detection evaluation pass that fired a trigger.
	StageDetect = "detect"
	// StageRCA is the dependency-graph root-cause walk, trigger→verdict.
	StageRCA = "rca"
	// StagePublish is the report append + event emission.
	StagePublish = "publish"
	// StageDeliver is the Service's subscription fan-out for one event.
	StageDeliver = "deliver"
	// StageApply is a remediation attempt's backoff→apply window.
	StageApply = "remedy-apply"
	// StageVerify is a remediation attempt's apply→verified quiet window.
	StageVerify = "remedy-verify"
	// StageReplicate is one primary→peer replication batch, ship to ack.
	// Replication spans carry the target peer in Peer.
	StageReplicate = "replicate-ship"
	// StageLogAnalyze is one log-channel analysis pass over a freshly
	// ingested batch of training-log lines.
	StageLogAnalyze = "log-analyze"
	// StagePerfAnalyze is one perf-channel analysis pass over a freshly
	// ingested batch of iteration timings.
	StagePerfAnalyze = "perf-analyze"
)

// Span is one recorded pipeline stage. Start/End are virtual time;
// WallStart/WallEnd are wall-clock unix nanoseconds. A span with WallEnd 0
// is still open (wall clock is never 0, unlike virtual time).
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"` // 0 = root (no parent)
	Job    string `json:"job"`
	Stage  string `json:"stage"`
	// Cause correlates a span to its incident: the trigger id label
	// ("trigger-N") stamped on every span of one incident's tree.
	Cause string `json:"cause,omitempty"`
	// Peer labels cross-peer spans (replication target); "" = local.
	Peer string `json:"peer,omitempty"`
	// Detail is a human-readable annotation ("chain=3 victims=15").
	Detail string   `json:"detail,omitempty"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
	// WallStart and WallEnd are wall-clock unix nanoseconds (nondeterministic:
	// deterministic consumers render only the virtual fields). A span with
	// WallEnd 0 is still open.
	WallStart int64 `json:"wall_start_ns,omitempty"`
	WallEnd   int64 `json:"wall_end_ns,omitempty"`
}

// Open reports whether the span has not ended yet.
func (s Span) Open() bool { return s.WallEnd == 0 }

// Dur is the span's virtual duration (0 while open).
func (s Span) Dur() time.Duration {
	if s.Open() {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// WallDur is the span's wall-clock duration (0 while open).
func (s Span) WallDur() time.Duration {
	if s.Open() {
		return 0
	}
	return time.Duration(s.WallEnd - s.WallStart)
}

// DefaultCapacity is the per-job ring size when NewRecorder gets cap <= 0.
const DefaultCapacity = 4096

// Recorder is the ring-buffered span store. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops returning zero), so
// instrumented layers pay exactly one pointer check when tracing is off.
type Recorder struct {
	mu      sync.Mutex
	ring    []Span
	next    uint64 // next SpanID to assign (1-based)
	dropped uint64 // spans overwritten by ring wrap-around
	now     func() sim.Time
	wall    func() int64
}

// NewRecorder builds a recorder holding the last capacity spans, reading
// virtual time from now (typically eng.Now).
func NewRecorder(capacity int, now func() sim.Time) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring: make([]Span, capacity),
		next: 1,
		now:  now,
		wall: func() int64 { return time.Now().UnixNano() },
	}
}

// slotLocked returns the live slot for id, or nil if id was never assigned
// or its slot has been overwritten by a newer span.
func (r *Recorder) slotLocked(id SpanID) *Span {
	if id == 0 || uint64(id) >= r.next {
		return nil
	}
	s := &r.ring[(uint64(id)-1)%uint64(len(r.ring))]
	if s.ID != id {
		return nil
	}
	return s
}

// Begin records a new span starting now. Returns 0 on a nil recorder.
func (r *Recorder) Begin(job, stage, cause string, parent SpanID) SpanID {
	if r == nil {
		return 0
	}
	return r.BeginAt(job, stage, cause, parent, r.now())
}

// BeginAt records a new span with an explicit virtual start (stages whose
// true start is known only retroactively, like a backoff window).
func (r *Recorder) BeginAt(job, stage, cause string, parent SpanID, at sim.Time) SpanID {
	if r == nil {
		return 0
	}
	w := r.wall()
	r.mu.Lock()
	id := SpanID(r.next)
	r.next++
	s := &r.ring[(uint64(id)-1)%uint64(len(r.ring))]
	if s.ID != 0 {
		r.dropped++
	}
	*s = Span{ID: id, Parent: parent, Job: job, Stage: stage, Cause: cause, Start: at, WallStart: w}
	r.mu.Unlock()
	return id
}

// End closes the span at the current virtual instant.
func (r *Recorder) End(id SpanID) {
	if r == nil {
		return
	}
	r.EndAt(id, r.now())
}

// EndAt closes the span with an explicit virtual end time. Ending an
// already-overwritten (or unknown) span is a no-op.
func (r *Recorder) EndAt(id SpanID, at sim.Time) {
	if r == nil {
		return
	}
	w := r.wall()
	r.mu.Lock()
	if s := r.slotLocked(id); s != nil && s.WallEnd == 0 {
		s.End = at
		s.WallEnd = w
	}
	r.mu.Unlock()
}

// Annotate sets the span's peer and/or detail labels (empty strings leave
// the existing value).
func (r *Recorder) Annotate(id SpanID, peer, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if s := r.slotLocked(id); s != nil {
		if peer != "" {
			s.Peer = peer
		}
		if detail != "" {
			s.Detail = detail
		}
	}
	r.mu.Unlock()
}

// Adopt re-parents a span into an incident tree and stamps its cause —
// how the triggering ingest batch, recorded before the incident existed,
// joins the tree once the trigger fires.
func (r *Recorder) Adopt(id, parent SpanID, cause string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if s := r.slotLocked(id); s != nil {
		s.Parent = parent
		s.Cause = cause
	}
	r.mu.Unlock()
}

// LastID returns the most recent span with the given stage (0 if none
// live), open or closed. Used to adopt the freshest ingest batch into a
// firing incident's tree.
func (r *Recorder) LastID(stage string) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := r.next - 1; id >= 1; id-- {
		s := r.slotLocked(SpanID(id))
		if s == nil {
			break // older slots are overwritten too
		}
		if s.Stage == stage {
			return s.ID
		}
	}
	return 0
}

// LastOpen returns the most recent still-open span with the given stage.
func (r *Recorder) LastOpen(stage string) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := r.next - 1; id >= 1; id-- {
		s := r.slotLocked(SpanID(id))
		if s == nil {
			break
		}
		if s.Stage == stage && s.WallEnd == 0 {
			return s.ID
		}
	}
	return 0
}

// Query filters the live ring.
type Query struct {
	// Cause restricts to one incident's tree ("" = all).
	Cause string
	// Stage restricts to one stage label ("" = all).
	Stage string
	// AfterID restricts to spans with ID > AfterID (incremental scans).
	AfterID SpanID
	// MinWall restricts to closed spans whose wall duration is at least
	// this (the slow-op scan); 0 = all.
	MinWall time.Duration
	// Limit caps the returned page (0 = everything). Total always counts
	// every match.
	Limit int
}

// Result is one query answer: matching spans in ID (record) order.
type Result struct {
	Spans []Span
	// Total counts every match before Limit.
	Total int
	// Dropped counts spans lost to ring wrap-around over the recorder's
	// lifetime.
	Dropped uint64
}

// Spans answers a query with copies of the matching spans, ascending ID.
func (r *Recorder) Spans(q Query) Result {
	if r == nil {
		return Result{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := uint64(1)
	if r.next > uint64(len(r.ring))+1 {
		oldest = r.next - uint64(len(r.ring))
	}
	if uint64(q.AfterID) >= oldest {
		oldest = uint64(q.AfterID) + 1
	}
	var out Result
	out.Dropped = r.dropped
	for id := oldest; id < r.next; id++ {
		s := r.slotLocked(SpanID(id))
		if s == nil {
			continue
		}
		if q.Cause != "" && s.Cause != q.Cause {
			continue
		}
		if q.Stage != "" && s.Stage != q.Stage {
			continue
		}
		if q.MinWall > 0 && (s.WallEnd == 0 || s.WallDur() < q.MinWall) {
			continue
		}
		out.Total++
		if q.Limit <= 0 || len(out.Spans) < q.Limit {
			out.Spans = append(out.Spans, *s)
		}
	}
	return out
}

// Tracer binds a recorder to one job and tracks the active incident, so
// instrumented layers can parent their stage spans without threading span
// IDs through every call. All methods are nil-safe: a layer holding a nil
// *Tracer pays one pointer check and records nothing.
type Tracer struct {
	r   *Recorder
	job string

	mu       sync.Mutex
	incident SpanID
	cause    string
}

// NewTracer binds recorder r to a job label.
func NewTracer(r *Recorder, job string) *Tracer {
	return &Tracer{r: r, job: job}
}

// Recorder exposes the underlying ring (nil-safe).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.r
}

// OpenIncident begins an incident root span at the given virtual time and
// makes it the active incident: subsequent Stage spans parent under it and
// inherit its cause label.
func (t *Tracer) OpenIncident(cause string, at sim.Time) SpanID {
	if t == nil {
		return 0
	}
	id := t.r.BeginAt(t.job, StageIncident, cause, 0, at)
	t.mu.Lock()
	t.incident, t.cause = id, cause
	t.mu.Unlock()
	return id
}

// CloseIncident ends the active incident root at the given virtual time.
func (t *Tracer) CloseIncident(at sim.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := t.incident
	t.incident, t.cause = 0, ""
	t.mu.Unlock()
	t.r.EndAt(id, at)
}

// Incident returns the active incident root and its cause (0, "" if none).
func (t *Tracer) Incident() (SpanID, string) {
	if t == nil {
		return 0, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.incident, t.cause
}

// Stage begins a child span of the active incident at the current virtual
// instant (parentless with cause "" when no incident is open).
func (t *Tracer) Stage(stage string) SpanID {
	if t == nil {
		return 0
	}
	return t.StageAt(stage, t.r.now())
}

// StageAt is Stage with an explicit virtual start.
func (t *Tracer) StageAt(stage string, at sim.Time) SpanID {
	if t == nil {
		return 0
	}
	parent, cause := t.Incident()
	return t.r.BeginAt(t.job, stage, cause, parent, at)
}

// Batch begins a parentless, causeless span at the current virtual instant
// regardless of any open incident — the shape for routine per-batch
// pipeline spans (upload, ingest), which join an incident's tree only when
// detection adopts the triggering batch via AdoptLatest. Parenting every
// batch that merely overlaps an open incident would bury the causal tree.
func (t *Tracer) Batch(stage string) SpanID {
	if t == nil {
		return 0
	}
	return t.r.Begin(t.job, stage, "", 0)
}

// End closes a span at the current virtual instant (nil/zero-safe).
func (t *Tracer) End(id SpanID) { t.Recorder().End(id) }

// EndAt closes a span at an explicit virtual time (nil/zero-safe).
func (t *Tracer) EndAt(id SpanID, at sim.Time) { t.Recorder().EndAt(id, at) }

// Annotate forwards to the recorder (nil-safe).
func (t *Tracer) Annotate(id SpanID, peer, detail string) { t.Recorder().Annotate(id, peer, detail) }

// AdoptLatest pulls the most recent span of a stage into the active
// incident's tree (the triggering ingest batch). No-op without an open
// incident or a live span of that stage.
func (t *Tracer) AdoptLatest(stage string) {
	if t == nil {
		return
	}
	root, cause := t.Incident()
	if root == 0 {
		return
	}
	if id := t.r.LastID(stage); id != 0 && id != root {
		t.r.Adopt(id, root, cause)
	}
}
