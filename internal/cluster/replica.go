package cluster

import (
	"slices"
	"sort"
	"sync"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/remedy"
)

// ReplicaJob is everything a peer holds for one job it follows: the
// replicated event log (for tail and re-replication), the verdicts its
// entries carried and the latest coarse snapshot. It holds no trace record.
type ReplicaJob struct {
	Job string
	Log *EventLog

	mu       sync.Mutex
	snapshot *api.ClusterSnapshot
	// Verdict history in seq order, each list bounded like the log. attempts
	// mirrors the primary's audit log: one row per attempt ID, overwritten by
	// each later transition.
	triggers []core.Trigger
	reports  []core.Report
	attempts []remedy.Attempt
}

// Snapshot returns the latest replicated coarse state (nil before the
// first batch carrying one).
func (rj *ReplicaJob) Snapshot() *api.ClusterSnapshot {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.snapshot
}

// Triggers returns the replicated Algorithm 1 firings in seq order.
func (rj *ReplicaJob) Triggers() []core.Trigger {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return slices.Clone(rj.triggers)
}

// Reports returns the replicated Algorithm 2 verdicts in seq order.
func (rj *ReplicaJob) Reports() []core.Report {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return slices.Clone(rj.reports)
}

// RemediationLog returns the replicated audit log in attempt order.
func (rj *ReplicaJob) RemediationLog() []remedy.Attempt {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return slices.Clone(rj.attempts)
}

// ReplicaStore holds every job this peer follows, keyed by job id. Batches
// arrive over /v1/cluster/replicate; jobs are created on first contact so a
// follower needs no pre-provisioning.
type ReplicaStore struct {
	mu   sync.Mutex
	jobs map[string]*ReplicaJob
}

// NewReplicaStore builds an empty store. Each job's event log and verdict
// lists hold DefaultLogCap entries.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{jobs: make(map[string]*ReplicaJob)}
}

// Job returns the replica state for one job, or nil when this peer has
// never received a batch for it.
func (rs *ReplicaStore) Job(id string) *ReplicaJob {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.jobs[id]
}

// Jobs lists followed job ids, sorted.
func (rs *ReplicaStore) Jobs() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.jobs))
	for id := range rs.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// obtain returns (creating if needed) the job slot. Callers must not hold
// rs.mu.
func (rs *ReplicaStore) obtain(job string) *ReplicaJob {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rj := rs.jobs[job]
	if rj == nil {
		rj = &ReplicaJob{Job: job, Log: NewEventLog()}
		rs.jobs[job] = rj
	}
	return rj
}

// Apply ingests one replication batch and returns the ack the sender uses
// as its next cursor. The batch arrives already decoded and validated (an
// unknown enum name fails the request's JSON decode), so nothing here can
// refuse it halfway.
func (rs *ReplicaStore) Apply(req api.ReplicateRequest) api.ReplicateResponse {
	if req.Job == "" {
		return api.ReplicateResponse{}
	}
	rj := rs.obtain(req.Job)

	rj.mu.Lock()
	defer rj.mu.Unlock()
	// The log's own duplicate rule: an entry at or below the running head is
	// a redelivery and carries nothing new.
	head := rj.Log.Watermark()
	for _, se := range req.Entries {
		if se.Seq <= head {
			continue
		}
		head = se.Seq
		switch e := se.Event; {
		case e.Trigger != nil:
			rj.triggers = appendBounded(rj.triggers, DefaultLogCap, *e.Trigger)
		case e.Report != nil:
			rj.reports = appendBounded(rj.reports, DefaultLogCap, *e.Report)
		case e.Action != nil:
			if at := slices.IndexFunc(rj.attempts, func(a remedy.Attempt) bool { return a.ID == e.Action.ID }); at >= 0 {
				rj.attempts[at] = *e.Action
			} else {
				rj.attempts = appendBounded(rj.attempts, DefaultLogCap, *e.Action)
			}
		}
	}
	gap := rj.Log.AppendEntries(req.Entries)
	if req.Snapshot != nil {
		snap := *req.Snapshot
		rj.snapshot = &snap
	}
	return api.ReplicateResponse{AckSeq: rj.Log.Watermark(), Gap: gap}
}

// appendBounded appends v to held and ages the oldest entry out past max by
// reslicing, as EventLog.push does.
func appendBounded[T any](held []T, max int, v T) []T {
	held = append(held, v)
	if over := len(held) - max; over > 0 {
		clear(held[:over])
		held = held[over:]
	}
	return held
}

// Describe renders this replica slot as a ClusterJob row.
func (rj *ReplicaJob) Describe() api.ClusterJob {
	return api.ClusterJob{ID: rj.Job, Replicated: true, Watermark: rj.Log.Watermark()}
}
