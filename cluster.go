package mycroft

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
	"mycroft/internal/obs"
	"mycroft/internal/otrace"
)

// Cluster mode: N mycroft-serve daemons form one diagnosis plane. A
// consistent-hash ring (internal/cluster) places every job on a primary
// peer; the primary asynchronously replicates the job's seq-numbered event
// log (the one every daemon keeps, see Server) and periodic snapshots to the
// job's R ring successors over /v1/cluster/*. Replicas answer queries for
// followed jobs from the replicated state where that answer is exact
// (triggers, reports, remediations, channels, health, jobs) and refuse the
// rest (trace, spans, dependencies, blast radius), naming the primary. They
// serve the replicated log on the same /v1/tail the primary does — which is
// what lets a DialCluster client fail a live subscription over to a replica
// with exact drop accounting (drops are the seq gaps, nothing else).

// ClusterConfig enables cluster mode on a Server.
type ClusterConfig struct {
	// ID names the cluster; peers refuse requests carrying a different one.
	ID string
	// Self is this peer's name in Peers; SelfAddr its advertised base URL.
	Self     string
	SelfAddr string
	// Peers maps every member name (including self) to its base URL.
	Peers map[string]string
	// Replicas is R: how many ring successors each job replicates to.
	// Clamped to len(Peers)-1.
	Replicas int
}

// replicateBatch caps the event-log entries one replication batch carries.
const replicateBatch = 512

// serverCluster is the per-Server cluster state: ring membership, the
// replica store for followed jobs, and one replication cursor per (peer,
// job): the follower's acked event-log seq. The hosted jobs' event logs are
// the Server's own.
type serverCluster struct {
	cfg   ClusterConfig
	node  *cluster.Node
	store *cluster.ReplicaStore
	// wire holds the client to every peer, by name.
	wire map[string]*wireClient

	ackMu sync.Mutex
	acks  map[string]uint64 // "peer/job" → acked seq

	reg           *obs.Registry
	mReplEvents   *obs.Counter
	mReplBatches  *obs.Counter
	mReplFailures *obs.Counter
	mTail         map[string]*obs.Counter // by source
}

// EnableCluster turns this server into a cluster peer. Call before the
// drive loop starts.
func (sv *Server) EnableCluster(cfg ClusterConfig) error {
	peers := make(map[string]string, len(cfg.Peers))
	for name, addr := range cfg.Peers {
		peers[name] = normalizeBase(addr)
	}
	cfg.Peers, cfg.SelfAddr = peers, normalizeBase(cfg.SelfAddr)
	node, err := cluster.NewNode(cfg.ID, cfg.Self, cfg.SelfAddr, peers, cfg.Replicas)
	if err != nil {
		return err
	}
	cl := &serverCluster{
		cfg: cfg, node: node,
		store: cluster.NewReplicaStore(),
		wire:  make(map[string]*wireClient, len(peers)),
		acks:  make(map[string]uint64),
	}
	for name, addr := range peers {
		w := newWireClient(addr, 10*time.Second)
		if w.err != nil {
			return fmt.Errorf("mycroft: cluster peer %s: %w", name, w.err)
		}
		cl.wire[name] = w
	}

	reg := sv.svc.Metrics()
	cl.reg = reg
	cl.mReplEvents = reg.Counter("mycroft_cluster_replicated_events_total", "Event-log entries shipped to followers.")
	cl.mReplBatches = reg.Counter("mycroft_cluster_replication_batches_total", "Replication batches acknowledged by followers.")
	cl.mReplFailures = reg.Counter("mycroft_cluster_replication_failures_total", "Replication batches that failed to reach a follower.")
	cl.mTail = map[string]*obs.Counter{}
	for _, src := range []string{"primary", "replica"} {
		cl.mTail[src] = reg.Counter("mycroft_cluster_tails_total",
			"Tail pages served, by answering role — the replica series climbing is the server-visible failover signal.",
			obs.L("source", src))
	}
	for _, state := range []string{api.PeerAlive, api.PeerSuspect, api.PeerDead} {
		st := state
		reg.GaugeFunc("mycroft_cluster_peers", "Cluster peers by health state, from this peer's table.",
			func() float64 {
				n := 0
				for _, row := range node.View() {
					if row.State == st {
						n++
					}
				}
				return float64(n)
			}, obs.L("state", st))
	}

	if !sv.cluster.CompareAndSwap(nil, cl) {
		return fmt.Errorf("mycroft: cluster mode already enabled")
	}
	return nil
}

// ReplicateNow runs one synchronous replication round: for every hosted job
// ship the log suffix past each follower's ack and a fresh snapshot. It
// returns the first error per unreachable follower; reaching every follower
// returns nil. The daemon calls this on a timer (StartCluster); tests call it
// directly for deterministic replication.
func (sv *Server) ReplicateNow() []error {
	cl := sv.cluster.Load()
	if cl == nil {
		return nil
	}
	var errs []error
	for _, job := range sortedJobs(sv.logs) {
		log := sv.logs[job]
		_, replicas := cl.node.Placement(string(job))
		for _, peer := range replicas {
			if err := sv.replicateTo(cl, peer, job, log); err != nil {
				errs = append(errs, fmt.Errorf("replicating %s to %s: %w", job, peer, err))
			}
		}
	}
	return errs
}

func sortedJobs(logs map[JobID]*cluster.EventLog) []JobID {
	out := make([]JobID, 0, len(logs))
	for id := range logs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (sv *Server) replicateTo(cl *serverCluster, peer string, job JobID, log *cluster.EventLog) error {
	key := peer + "/" + string(job)
	cl.ackMu.Lock()
	after := cl.acks[key]
	cl.ackMu.Unlock()
	entries, wm := log.TailAfter(after, replicateBatch)

	sv.mu.Lock()
	snap := sv.snapshotLocked(job)
	// Replication runs off-engine, so the virtual instant and the job's
	// span recorder are captured while serialized with the drive loop.
	tracer := sv.svc.Tracer(job)
	vnow := sv.svc.Eng.Now()
	sv.mu.Unlock()

	// One replicate-ship span per non-empty batch, labeled with the target
	// peer; if an incident is open it joins that tree, so per-peer fan-out
	// segments show up alongside detection and remediation stages.
	var span otrace.SpanID
	if len(entries) > 0 {
		span = tracer.StageAt(otrace.StageReplicate, vnow)
		tracer.Annotate(span, peer, "")
	}

	req := api.ReplicateRequest{
		ClusterID: cl.cfg.ID, From: cl.cfg.Self, Job: string(job),
		Entries: entries, Snapshot: snap, Watermark: wm,
	}
	var resp api.ReplicateResponse
	err := cl.post(peer, "/cluster/replicate", req, &resp)
	cl.node.MarkContact(peer, err == nil)
	if err != nil {
		cl.mReplFailures.Inc()
		if span != 0 {
			tracer.Annotate(span, "", fmt.Sprintf("%d event(s) after seq %d: ship failed: %v", len(entries), after, err))
			tracer.EndAt(span, vnow)
		}
		return err
	}
	if span != 0 {
		tracer.Annotate(span, "", fmt.Sprintf("%d event(s) shipped, ack seq %d", len(entries), resp.AckSeq))
		tracer.EndAt(span, vnow)
	}
	cl.ackMu.Lock()
	cl.acks[key] = resp.AckSeq
	cl.ackMu.Unlock()
	cl.mReplBatches.Inc()
	cl.mReplEvents.Add(uint64(len(entries)))
	lag := uint64(0)
	if wm > resp.AckSeq {
		lag = wm - resp.AckSeq
	}
	cl.reg.Gauge("mycroft_cluster_replication_lag_events",
		"Event-log entries a follower is behind this primary, per job and peer.",
		obs.L("job", string(job)), obs.L("peer", peer)).Set(int64(lag))
	return nil
}

// snapshotLocked builds the coarse replicated state for one job. Callers
// hold sv.mu.
func (sv *Server) snapshotLocked(job JobID) *api.ClusterSnapshot {
	jobs, err := sv.svc.ListJobs()
	if err != nil {
		return nil
	}
	at := slices.IndexFunc(jobs.Jobs, func(j JobInfo) bool { return j.ID == job })
	if at < 0 {
		return nil
	}
	snap := api.ClusterSnapshot{NowNs: int64(jobs.Now), Job: jobs.Jobs[at]}
	if health, err := sv.svc.Health(); err == nil {
		for _, jh := range health.Jobs {
			if jh.Job == job {
				snap.Health = jh
			}
		}
	}
	if stats, err := sv.svc.ChannelStats(job); err == nil {
		snap.Channels = &stats
	}
	return &snap
}

// GossipOnce exchanges health views with every other peer, records each
// contact's outcome on the health ladder and merges the views that come back
// by freshest LastSeen. Membership is static (the -peers flag), so a peer's
// first round is also its hello.
func (sv *Server) GossipOnce() {
	cl := sv.cluster.Load()
	if cl == nil {
		return
	}
	req := api.GossipRequest{ClusterID: cl.cfg.ID, From: cl.cfg.Self, Peers: cl.node.View()}
	for _, peer := range cl.node.Others() {
		var resp api.GossipResponse
		err := cl.post(peer, "/cluster/gossip", req, &resp)
		cl.node.MarkContact(peer, err == nil)
		if err == nil {
			cl.node.Merge(resp.Peers)
		}
	}
}

// StartCluster launches the wall-clock cluster loops — one gossip round at
// once, then replication every replicateEvery and gossip every gossipEvery —
// and returns a stop function. Use from a daemon; tests drive ReplicateNow
// and GossipOnce directly for determinism. A clean shutdown calls stop, then
// ReplicateNow once more, so every reachable follower holds the log so far.
func (sv *Server) StartCluster(replicateEvery, gossipEvery time.Duration) (stop func()) {
	if replicateEvery <= 0 {
		replicateEvery = 250 * time.Millisecond
	}
	if gossipEvery <= 0 {
		gossipEvery = time.Second
	}
	done := make(chan struct{})
	go func() {
		sv.GossipOnce()
		rt := time.NewTicker(replicateEvery)
		gt := time.NewTicker(gossipEvery)
		defer rt.Stop()
		defer gt.Stop()
		for {
			select {
			case <-done:
				return
			case <-rt.C:
				sv.ReplicateNow()
			case <-gt.C:
				sv.GossipOnce()
			}
		}
	}()
	return func() { close(done) }
}

// post is the peer-to-peer call: one JSON POST, no retries — the health
// ladder (MarkContact) is the retry policy.
func (cl *serverCluster) post(peer, path string, in, out any) error {
	return cl.wire[peer].do(http.MethodPost, api.Prefix+path, in, out)
}

// --- /v1/cluster/* endpoints ----------------------------------------------

var errClusterDisabled = fmt.Errorf("mycroft: cluster mode disabled on this daemon")

func (sv *Server) clusterInfo() (api.ClusterInfoResponse, error) {
	cl := sv.cluster.Load()
	if cl == nil {
		return api.ClusterInfoResponse{}, errClusterDisabled
	}
	resp := api.ClusterInfoResponse{
		ClusterID: cl.cfg.ID, Self: cl.node.Self,
		Replicas: cl.node.Replicas, VNodes: cluster.DefaultVNodes,
		Peers: cl.node.View(),
		Stats: &api.ClusterStats{
			ReplicatedEvents:    cl.mReplEvents.Value(),
			ReplicationBatches:  cl.mReplBatches.Value(),
			ReplicationFailures: cl.mReplFailures.Value(),
			TailPrimary:         cl.mTail["primary"].Value(),
			TailReplica:         cl.mTail["replica"].Value(),
		},
	}
	for _, job := range sortedJobs(sv.logs) {
		p, reps := cl.node.Placement(string(job))
		resp.Jobs = append(resp.Jobs, api.ClusterJob{
			ID: string(job), Primary: p, Replicas: reps,
			Local: true, Watermark: sv.logs[job].Watermark(),
		})
	}
	for _, id := range cl.store.Jobs() {
		row := cl.store.Job(id).Describe()
		row.Primary, row.Replicas = cl.node.Placement(id)
		resp.Jobs = append(resp.Jobs, row)
	}
	sort.Slice(resp.Jobs, func(i, j int) bool { return resp.Jobs[i].ID < resp.Jobs[j].ID })
	return resp, nil
}

// errNotMember refuses a gossip or replicate request whose sender is this
// peer itself or no configured member: only another peer of the cluster may
// mark peers alive or dead here, or create or feed a replica.
var errNotMember = errors.New("mycroft: sender is not another member of this cluster")

// errOverBound refuses a gossip or replicate request carrying more rows than
// any peer of this cluster sends: a view with more rows than there are
// configured peers, or a batch of more than replicateBatch entries.
var errOverBound = errors.New("mycroft: cluster message over its bound")

// admit is the door of both peer-to-peer write routes: the cluster id must
// match, the sender must be one of the other configured peers, and the
// message may carry at most maxRows(cl) rows. Only then is the sender marked
// heard.
func (sv *Server) admit(id, from string, rows int, maxRows func(*serverCluster) int) (*serverCluster, error) {
	cl := sv.cluster.Load()
	switch {
	case cl == nil:
		return nil, errClusterDisabled
	case id != cl.cfg.ID:
		return nil, fmt.Errorf("mycroft: cluster id mismatch: peer says %q, this daemon is %q", id, cl.cfg.ID)
	}
	if _, member := cl.cfg.Peers[from]; !member || from == cl.cfg.Self {
		return nil, fmt.Errorf("%w: %q", errNotMember, from)
	}
	if max := maxRows(cl); rows > max {
		return nil, fmt.Errorf("%w: %d rows, at most %d", errOverBound, rows, max)
	}
	cl.node.Heard(from)
	return cl, nil
}

func (sv *Server) clusterGossip(req api.GossipRequest) (api.GossipResponse, error) {
	cl, err := sv.admit(req.ClusterID, req.From, len(req.Peers),
		func(cl *serverCluster) int { return len(cl.cfg.Peers) })
	if err != nil {
		return api.GossipResponse{}, err
	}
	cl.node.Merge(req.Peers)
	return api.GossipResponse{Peers: cl.node.View()}, nil
}

func (sv *Server) clusterReplicate(req api.ReplicateRequest) (api.ReplicateResponse, error) {
	cl, err := sv.admit(req.ClusterID, req.From, len(req.Entries),
		func(*serverCluster) int { return replicateBatch })
	if err != nil {
		return api.ReplicateResponse{}, err
	}
	return cl.store.Apply(req), nil
}

// --- replica answers -------------------------------------------------------
//
// A peer asked about jobs it does not host answers from its replica store
// when every requested job is followed here; otherwise the live path (and
// its "unknown job" error) stands. These are the operation table's replica
// hooks: they read the store and answer through the same query functions a
// Service uses.

// follows returns the replica state of a job this peer follows but does not
// host, nil for any other job.
func (sv *Server) follows(job JobID) *cluster.ReplicaJob {
	cl := sv.cluster.Load()
	if cl == nil || sv.logs[job] != nil {
		return nil
	}
	return cl.store.Job(string(job))
}

// followed resolves a job list to the verdict histories replicated here. It
// returns nil unless every listed job is followed.
func (sv *Server) followed(jobs ...JobID) []jobLog {
	var out []jobLog
	for _, j := range jobs {
		rj := sv.follows(j)
		if rj == nil {
			return nil
		}
		out = append(out, jobLog{j, rj})
	}
	return out
}

// snapshots returns the latest replicated coarse state of every followed
// job, in job order (nil on a standalone daemon).
func (sv *Server) snapshots() []*api.ClusterSnapshot {
	cl := sv.cluster.Load()
	if cl == nil {
		return nil
	}
	var out []*api.ClusterSnapshot
	for _, id := range cl.store.Jobs() {
		if snap := cl.store.Job(id).Snapshot(); snap != nil {
			out = append(out, snap)
		}
	}
	return out
}

// replicaChannels answers from the channel mirror in the job's latest
// replicated snapshot, once one carrying it has arrived.
func (sv *Server) replicaChannels(job JobID) (ChannelStatsResult, bool, error) {
	rj := sv.follows(job)
	if rj == nil {
		return ChannelStatsResult{}, false, nil
	}
	snap := rj.Snapshot()
	if snap == nil || snap.Channels == nil {
		return ChannelStatsResult{}, false, nil
	}
	return *snap.Channels, true, nil
}

// replicaTriage answers from the followed job's latest replicated verdict:
// the py-spy and Flight Recorder stages need the live job, so a replica can
// only repeat what Mycroft itself concluded.
func (sv *Server) replicaTriage(a triageArgs) (TriageResult, bool, error) {
	job := a.Job
	rj := sv.follows(job)
	if rj == nil {
		return TriageResult{}, false, nil
	}
	reps := rj.Reports()
	if len(reps) == 0 {
		return TriageResult{Job: job, Source: "mycroft", Summary: "no incident in replicated window", OK: true}, true, nil
	}
	rep := reps[len(reps)-1]
	return TriageResult{
		Job: job, Source: "mycroft", Rank: rep.Suspect,
		Summary: fmt.Sprintf("replicated verdict: %s at rank %d via %s", rep.Category, rep.Suspect, rep.Via),
	}, true, nil
}

// refuseFollowed is the one refusal of every operation whose answer lives
// only in the primary's engine — trace pages, spans, dependency graphs, blast
// radius: a peer that follows the job but does not host it holds none of
// that, so rather than answer differently from the primary it names it.
func (sv *Server) refuseFollowed(job JobID) error {
	if sv.follows(job) == nil {
		return nil
	}
	cl := sv.cluster.Load()
	primary, _ := cl.node.Placement(string(job))
	return fmt.Errorf("mycroft: job %q is followed here, not hosted: this peer answers only from replicated state, which holds no trace, span or dependency graph — ask its primary %s at %s",
		job, primary, cl.node.Addr(primary))
}
