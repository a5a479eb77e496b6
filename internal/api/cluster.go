package api

// Cluster-mode messages: the /v1/cluster/* endpoint set that turns N
// mycroft-serve daemons into one diagnosis plane. Peers replicate each
// job's event log (plus a periodic snapshot) from its primary to R followers
// and exchange health views by gossip; a follower serves the replicated log
// on the same /v1/tail every daemon answers, which is what lets a
// subscription fail over from a dead primary to a replica with exact drop
// accounting. No trace record is replicated, so a follower refuses trace,
// span and dependency queries and names the job's primary.

// Peer health states on the wire. The ladder is alive → suspect (one missed
// contact) → dead (MissesBeforeDead consecutive misses).
const (
	PeerAlive   = "alive"
	PeerSuspect = "suspect"
	PeerDead    = "dead"
)

// ClusterPeer is one member of the cluster as seen by the answering peer.
type ClusterPeer struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// State is the answering peer's verdict: alive, suspect or dead.
	State string `json:"state"`
	// LastSeenUnixMs is when the answering peer last heard from this peer
	// directly or via gossip (wall clock; 0 = never).
	LastSeenUnixMs int64 `json:"last_seen_unix_ms,omitempty"`
	// Self marks the answering peer's own row.
	Self bool `json:"self,omitempty"`
}

// ClusterJob is one placed job: where the ring puts it and what the
// answering peer holds for it.
type ClusterJob struct {
	ID string `json:"id"`
	// Primary and Replicas are the ring placement (names).
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
	// Local reports that the answering peer hosts the live engine for this
	// job; Replicated that it holds a replica store for it.
	Local      bool `json:"local,omitempty"`
	Replicated bool `json:"replicated,omitempty"`
	// Watermark is the answering peer's event-log high sequence for the job
	// (its own log when local, the replicated log otherwise).
	Watermark uint64 `json:"watermark,omitempty"`
}

// ClusterStats is the answering peer's lifetime replication and failover
// counters: the numeric story of how much the fleet has shipped and how
// often followers had to answer.
type ClusterStats struct {
	// ReplicatedEvents and ReplicationBatches count event-log entries shipped
	// to followers and batches acknowledged; ReplicationFailures counts
	// batches that never reached their follower.
	ReplicatedEvents    uint64 `json:"replicated_events"`
	ReplicationBatches  uint64 `json:"replication_batches"`
	ReplicationFailures uint64 `json:"replication_failures,omitempty"`
	// Tail pages served by answering role: the replica series climbing is
	// the server-visible failover signal.
	TailPrimary uint64 `json:"tail_primary,omitempty"`
	TailReplica uint64 `json:"tail_replica,omitempty"`
}

// ClusterInfoResponse answers GET /v1/cluster/info: identity, ring
// parameters, the answering peer's health view and the job placement table.
// A client rebuilds the exact placement from ClusterID+Peers+VNodes alone.
type ClusterInfoResponse struct {
	ClusterID string `json:"cluster_id"`
	Self      string `json:"self"`
	// Replicas is R: how many followers each job's primary replicates to.
	Replicas int           `json:"replicas"`
	VNodes   int           `json:"vnodes"`
	Peers    []ClusterPeer `json:"peers"`
	Jobs     []ClusterJob  `json:"jobs,omitempty"`
	// Stats carries the answering peer's replication/failover counters
	// (merged by summation in a cluster-aware client; omitted by peers
	// predating it).
	Stats *ClusterStats `json:"stats,omitempty"`
}

// GossipRequest exchanges health views (POST /v1/cluster/gossip): the
// sender's table goes in, the receiver's comes back, and both merge by
// freshest LastSeen.
type GossipRequest struct {
	ClusterID string        `json:"cluster_id"`
	From      string        `json:"from"`
	Peers     []ClusterPeer `json:"peers,omitempty"`
}

// GossipResponse is the receiver's view.
type GossipResponse struct {
	Peers []ClusterPeer `json:"peers"`
}

// ClusterSnapshot is the periodically replicated coarse job state: enough
// for a replica to answer ListJobs/Health/status for the job.
type ClusterSnapshot struct {
	NowNs  int64     `json:"now_ns"`
	Job    JobInfo   `json:"job"`
	Health JobHealth `json:"health"`
	// Channels mirrors the job's per-channel diagnosis counters and fusion
	// state so a replica can answer GET /jobs/{id}/channels after failover
	// (omitted by pre-fusion primaries).
	Channels *ChannelStatsResult `json:"channels,omitempty"`
}

// ReplicateRequest is one asynchronous replication batch from a job's
// primary to a follower (POST /v1/cluster/replicate): the event-log entries
// past the follower's last ack and the current snapshot. Watermark is the
// primary's log head so the follower can measure its own lag.
type ReplicateRequest struct {
	ClusterID string           `json:"cluster_id"`
	From      string           `json:"from"`
	Job       string           `json:"job"`
	Entries   []SeqEvent       `json:"entries,omitempty"`
	Snapshot  *ClusterSnapshot `json:"snapshot,omitempty"`
	Watermark uint64           `json:"watermark"`
}

// ReplicateResponse acks a batch: the follower's new event-log head, which
// the primary uses as the next batch's start.
type ReplicateResponse struct {
	AckSeq uint64 `json:"ack_seq"`
	// Gap counts event sequence numbers the follower detected as missing
	// when applying this batch (should stay 0: batches are sent in order).
	Gap uint64 `json:"gap,omitempty"`
}
