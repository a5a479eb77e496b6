// Package api is Mycroft's versioned wire protocol: the /v1 route set, the
// message envelopes that exist only on the wire, and the handful of domain
// types the root package shares with internal/cluster and internal/replay.
//
// There is one type per message. A Report, a trace Record, a span, an Event
// is declared once, where it belongs (internal/core, internal/trace, ..., or
// here), and that declaration is what crosses HTTP, what a replica stores and
// what a .mycrec artifact holds. The JSON tags on those types, and the
// MarshalText / UnmarshalText methods beside their enums, are the protocol:
// every numeric enum crosses as its stable String name (EventKind "trigger",
// not a Go iota that renumbers under refactors), every closed string set is
// checked on decode, every timestamp is int64 virtual nanoseconds, and every
// paginated response carries Total and NextOffset so a caller can always tell
// a short page from the last page. Golden files (testdata here, and
// testdata/wire_bodies.golden at the root) pin the bytes and are never
// regenerated to make a change pass: renaming a tagged field or an enum name
// is a wire break and fails CI.
package api

import (
	"fmt"
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/remedy"
	"mycroft/internal/topo"
)

// Version is the wire-protocol generation. It is served at /v1/ping and
// checked by Dial; all endpoints mount under "/v1/".
const Version = 1

// Prefix is the URL prefix every endpoint of this Version mounts under.
const Prefix = "/v1"

// ---------------------------------------------------------------------------
// Domain types the root package, internal/cluster and internal/replay all
// name. The root re-exports each under the same name.

// JobID addresses one hosted training job inside a Service.
type JobID string

// Event is one observation delivered to a subscription: which hosted job it
// came from, when (virtual time), and exactly one of Trigger, Report, Phase,
// Action, Health or LogAnomaly matching Kind.
type Event struct {
	Job  JobID          `json:"job"`
	Kind core.EventKind `json:"kind"`
	At   time.Duration  `json:"at_ns"`

	Trigger    *core.Trigger    `json:"trigger,omitempty"`     // EventTrigger
	Report     *core.Report     `json:"report,omitempty"`      // EventReport
	Phase      string           `json:"phase,omitempty"`       // EventLifecycle
	Action     *remedy.Attempt  `json:"action,omitempty"`      // EventAction
	Health     *HealthChange    `json:"health,omitempty"`      // EventHealth
	LogAnomaly *core.LogAnomaly `json:"log_anomaly,omitempty"` // EventLogAnomaly
}

func (e Event) String() string {
	switch e.Kind {
	case core.EventTrigger:
		return fmt.Sprintf("job %s: %v", e.Job, *e.Trigger)
	case core.EventReport:
		return fmt.Sprintf("job %s: %v", e.Job, *e.Report)
	case core.EventLifecycle:
		return fmt.Sprintf("job %s: [%v] %s", e.Job, e.At, e.Phase)
	case core.EventAction:
		return fmt.Sprintf("job %s: %v", e.Job, *e.Action)
	case core.EventHealth:
		return fmt.Sprintf("job %s: [%v] health %v", e.Job, e.At, *e.Health)
	case core.EventLogAnomaly:
		return fmt.Sprintf("job %s: %v", e.Job, *e.LogAnomaly)
	default:
		return fmt.Sprintf("job %s: %v", e.Job, e.Kind)
	}
}

// HealthState is a hosted job's heartbeat verdict. States form a ladder —
// stopped, healthy, degraded, stale — driven by the job's ingest watermark:
// a job whose store last saw records less than half the staleness threshold
// ago is healthy, past half it is degraded, past the full threshold it is
// stale. Transitions are published as EventHealth events.
type HealthState string

const (
	// HealthStopped: the job is not started (no heartbeat expected).
	HealthStopped HealthState = "stopped"
	// HealthHealthy: ingest is current.
	HealthHealthy HealthState = "healthy"
	// HealthDegraded: no ingest for at least half the staleness threshold.
	HealthDegraded HealthState = "degraded"
	// HealthStale: no ingest for the full staleness threshold.
	HealthStale HealthState = "stale"
)

// UnmarshalText refuses a state outside the ladder.
func (hs *HealthState) UnmarshalText(text []byte) error {
	for _, known := range [...]HealthState{HealthStopped, HealthHealthy, HealthDegraded, HealthStale} {
		if string(known) == string(text) {
			*hs = known
			return nil
		}
	}
	return fmt.Errorf("api: unknown health state %q", text)
}

// HealthChange is the payload of an EventHealth event: one job health
// transition.
type HealthChange struct {
	From HealthState `json:"from"`
	To   HealthState `json:"to"`
	// LastIngest is the job's ingest watermark (virtual time) at the
	// transition.
	LastIngest time.Duration `json:"last_ingest_ns"`
	// Reason says what moved the state, deterministically derived from
	// virtual time.
	Reason string `json:"reason,omitempty"`
}

func (c HealthChange) String() string {
	return fmt.Sprintf("%s -> %s (%s)", c.From, c.To, c.Reason)
}

// JobHealth is one job's heartbeat view inside a HealthResult.
type JobHealth struct {
	Job   JobID       `json:"job"`
	State HealthState `json:"state"`
	// Since is the virtual time of the last health transition.
	Since time.Duration `json:"since_ns"`
	// LastIngest is the virtual time records last reached the job's store.
	LastIngest time.Duration `json:"last_ingest_ns"`
	// Reason explains a non-healthy state ("" when healthy or stopped).
	Reason string `json:"reason,omitempty"`
	// Source marks a row not hosted by the answering daemon: "replica" when
	// it came from a cluster peer's replicated snapshot ("" = live local).
	Source string `json:"source,omitempty"`
}

// JobInfo describes one hosted job: identity, size, progress, store
// occupancy and remediation state.
type JobInfo struct {
	ID         JobID `json:"id"`
	WorldSize  int   `json:"world_size"`
	Iterations int   `json:"iterations"`
	// Records is how many trace records reached the job's store.
	Records uint64 `json:"records"`
	// Store is the trace-store occupancy (see JobHandle.StoreStats).
	Store clouddb.Stats `json:"store"`
	// Isolated lists ranks the remediation loop has cordoned.
	Isolated []topo.Rank `json:"isolated,omitempty"`
	// Policy names the attached remediation policy ("" when none).
	Policy string `json:"policy,omitempty"`
	// Source marks a row not hosted by the answering daemon: "replica" when
	// it came from a cluster peer's replicated snapshot ("" = live local).
	Source string `json:"source,omitempty"`
}

// ChannelInfo is one diagnosis channel's counters inside a
// ChannelStatsResult.
type ChannelInfo struct {
	Channel core.Modality `json:"channel"`
	// Ingested counts the channel's native unit: trace records, log lines or
	// timing samples.
	Ingested uint64 `json:"ingested"`
	// Anomalies counts channel findings (triggers for the tracepoint channel,
	// published anomalies for log/perf).
	Anomalies uint64 `json:"anomalies"`
	// Reports counts verdicts this channel delivered (by Via).
	Reports uint64 `json:"reports"`
	// Templates is the live log-template cluster count (log channel only).
	Templates int `json:"templates,omitempty"`
}

// FusionInfo summarizes evidence fusion for one job.
type FusionInfo struct {
	Window time.Duration `json:"window_ns"`
	// Outcomes counts delivered reports by fusion outcome
	// (single/corroborated/conflicted); nil until the first report.
	Outcomes map[string]uint64 `json:"outcomes,omitempty"`
	// LastOutcome and LastConfidence describe the most recent report.
	LastOutcome    string  `json:"last_outcome,omitempty"`
	LastConfidence float64 `json:"last_confidence,omitempty"`
}

// ChannelStatsResult is the Client.ChannelStats answer: per-channel counters
// in canonical order plus the job's fusion summary.
type ChannelStatsResult struct {
	Job      JobID         `json:"job"`
	Channels []ChannelInfo `json:"channels"`
	Fusion   FusionInfo    `json:"fusion"`
}

// ---------------------------------------------------------------------------
// Envelopes that exist only on the wire.

// PingResponse answers GET /v1/ping: protocol version and the daemon's
// current virtual time, so clients (and CI) can watch the drive loop advance.
// Server and StartedUnixNs identify the serving process (both omitted by
// minimal servers, so old clients keep parsing).
type PingResponse struct {
	Version int   `json:"version"`
	NowNs   int64 `json:"now_ns"`
	// Server is the daemon's self-reported identity ("mycroft-serve/1").
	Server string `json:"server,omitempty"`
	// StartedUnixNs is the wall-clock time the daemon started, Unix ns.
	StartedUnixNs int64 `json:"started_unix_ns,omitempty"`
}

// SeqEvent is one event-log entry: the per-job, gap-free-ascending sequence
// number the hosting daemon assigned plus the event itself. Sequence numbers
// are what make tails resumable across peers and drops countable.
type SeqEvent struct {
	Seq   uint64 `json:"seq"`
	Event Event  `json:"event"`
}

// TailRequest reads a job's event log past a sequence number (POST /v1/tail),
// the one read every remote subscription makes. It long-polls: it waits up to
// TimeoutMs for the log to grow past AfterSeq, then returns up to Max entries.
// Any daemon answers it for a job it hosts (the live log) and, in a cluster,
// for a job it follows (the replicated log, same seqs), which is what lets a
// subscription resume on another peer: the client re-issues the same request
// with the last seq it saw. AfterSeq math.MaxUint64 with no wait reads only
// the watermark, where a new subscription starts.
type TailRequest struct {
	Job       string `json:"job"`
	AfterSeq  uint64 `json:"after_seq"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
	Max       int    `json:"max,omitempty"`
}

// TailResponse is one tail page. Source reports which role answered
// ("primary" on the daemon hosting the job, "replica" or "promoted" on a
// follower); a client counts drops from the seq gaps between consecutive
// entries (a trimmed or lagging log shows up as a jump), so there is no
// separate dropped field to trust. Closed reports that the daemon is shutting
// down and holds nothing past the cursor. StartedUnixNs is the answering
// daemon's start instant, as /v1/ping reports it: a peer that answers with
// another one has restarted, and its log's seqs with it.
type TailResponse struct {
	Job           string     `json:"job"`
	Entries       []SeqEvent `json:"entries,omitempty"`
	Watermark     uint64     `json:"watermark"`
	Source        string     `json:"source"`
	Closed        bool       `json:"closed,omitempty"`
	StartedUnixNs int64      `json:"started_unix_ns,omitempty"`
}

// ErrorResponse is the body of every non-200 endpoint answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
