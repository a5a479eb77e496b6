package mycroft

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
)

// ClusterClient is the cluster-aware Client: it rebuilds the fleet's
// consistent-hash ring from one peer's /v1/cluster/info and routes every
// call to the owning primary by JobID — no proxy hop, no coordination
// traffic (clusterCall in ops.go places each operation by the routing class
// its table entry declares). When a primary stops answering at the transport
// layer the call retries on the job's replicas in ring order (the same
// placement every peer computed), and live subscriptions resume their event
// tail on a replica from the exact sequence number they had reached; anything
// the replica never received surfaces as a counted drop on Stream.Dropped,
// never as silence.
type ClusterClient struct {
	ring     *cluster.Ring
	replicas int
	addrs    map[string]string // peer name → base URL

	mu        sync.Mutex
	clients   map[string]*RemoteClient
	downUntil map[string]time.Time

	failovers atomic.Uint64
}

// downCooldown is how long a peer that failed at the transport layer is
// deprioritized before the client tries it first again.
const downCooldown = 3 * time.Second

// DialCluster connects to a fleet through any subset of its peers: the
// first reachable address answers /v1/cluster/info, and that one response
// (cluster id, peer list, vnodes, replication factor) is enough to rebuild
// the exact placement every peer uses. Dial retry behavior (and
// ErrUnreachable) matches Dial.
func DialCluster(addrs []string) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("mycroft: DialCluster needs at least one address")
	}
	var lastErr error
	for _, addr := range addrs {
		rc, err := Dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		var info api.ClusterInfoResponse
		if err := rc.do(http.MethodGet, api.Prefix+"/cluster/info", nil, &info); err != nil {
			rc.Close()
			lastErr = fmt.Errorf("mycroft: %s: %w", addr, err)
			continue
		}
		cc := &ClusterClient{
			ring:      cluster.NewRing(peerNames(info.Peers), info.VNodes),
			replicas:  info.Replicas,
			addrs:     make(map[string]string, len(info.Peers)),
			clients:   make(map[string]*RemoteClient),
			downUntil: make(map[string]time.Time),
		}
		for _, p := range info.Peers {
			cc.addrs[p.Name] = normalizeBase(p.Addr)
		}
		// The dialed connection carries the answering peer's calls on.
		if cc.addrs[info.Self] == rc.wire.base {
			cc.clients[info.Self] = rc
		} else {
			rc.Close()
		}
		return cc, nil
	}
	return nil, fmt.Errorf("mycroft: no cluster peer reachable: %w", lastErr)
}

func peerNames(peers []api.ClusterPeer) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		out = append(out, p.Name)
	}
	return out
}

// Failovers reports how many times a call or tail moved off an unreachable
// peer onto the next candidate since dial.
func (cc *ClusterClient) Failovers() uint64 { return cc.failovers.Load() }

// Close closes the idle connections to every peer.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, rc := range cc.clients {
		rc.Close()
	}
	return nil
}

// client returns (creating lazily) the single-peer transport for name. No
// ping: the fleet's wire version was verified once at DialCluster.
func (cc *ClusterClient) client(name string) *RemoteClient {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	rc := cc.clients[name]
	if rc == nil {
		rc = &RemoteClient{wire: newWireClient(cc.addrs[name], 60*time.Second)}
		cc.clients[name] = rc
	}
	return rc
}

func (cc *ClusterClient) markDown(name string) {
	cc.mu.Lock()
	cc.downUntil[name] = time.Now().Add(downCooldown)
	cc.mu.Unlock()
}

func (cc *ClusterClient) markUp(name string) {
	cc.mu.Lock()
	delete(cc.downUntil, name)
	cc.mu.Unlock()
}

// candidates orders a job's primary + replicas for a call: ring order, with
// peers inside their down-cooldown moved to the back (still tried — a
// cooldown is a hint, not a verdict).
func (cc *ClusterClient) candidates(job string) []string {
	return cc.upFirst(cc.ring.Candidates(job, 1+cc.replicas))
}

// upFirst stably moves the peers inside their down-cooldown to the back.
func (cc *ClusterClient) upFirst(peers []string) []string {
	now := time.Now()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	up := make([]string, 0, len(peers))
	var down []string
	for _, p := range peers {
		if until, bad := cc.downUntil[p]; bad && now.Before(until) {
			down = append(down, p)
		} else {
			up = append(up, p)
		}
	}
	return append(up, down...)
}

// routed runs fn against the job's primary, failing over to its replicas on
// transport errors. Application errors return immediately — the answering
// peer is authoritative for them.
func routed[R any](cc *ClusterClient, job JobID, fn func(*RemoteClient) (R, error)) (res R, err error) {
	peers := cc.candidates(string(job))
	if len(peers) == 0 {
		return res, fmt.Errorf("mycroft: empty cluster ring")
	}
	for i, p := range peers {
		if res, err = fn(cc.client(p)); err == nil {
			cc.markUp(p)
			return res, nil
		}
		if !isTransportErr(err) {
			return res, err
		}
		cc.markDown(p)
		if i < len(peers)-1 {
			cc.failovers.Add(1)
		}
	}
	return res, fmt.Errorf("mycroft: job %s: every candidate peer failed: %w: %v", job, ErrUnreachable, err)
}

// eachPeer runs fn against every reachable peer and collects the answers;
// transport failures mark the peer down and are skipped. It errors only
// when no peer answered.
func eachPeer[R any](cc *ClusterClient, fn func(*RemoteClient) (R, error)) (answers []R, err error) {
	for _, p := range cc.upFirst(cc.ring.Peers()) {
		res, e := fn(cc.client(p))
		if e == nil {
			cc.markUp(p)
			answers = append(answers, res)
			continue
		}
		if isTransportErr(e) {
			cc.markDown(p)
		}
		err = e
	}
	if len(answers) == 0 {
		return nil, fmt.Errorf("mycroft: no cluster peer answered: %w: %v", ErrUnreachable, err)
	}
	return answers, nil
}

// ClusterInfo merges the fleet's own view with this client's direct
// observations: the first answering peer's table is the base, every peer
// the client cannot reach right now is overridden to dead, and job rows are
// merged across peers preferring the hosting (Local) row.
func (cc *ClusterClient) ClusterInfo() (api.ClusterInfoResponse, error) {
	infos, err := eachPeer(cc, func(rc *RemoteClient) (info api.ClusterInfoResponse, err error) {
		return info, rc.do(http.MethodGet, api.Prefix+"/cluster/info", nil, &info)
	})
	if err != nil {
		return api.ClusterInfoResponse{}, err
	}
	reached := make(map[string]bool)
	jobs := make(map[string]api.ClusterJob)
	var stats api.ClusterStats
	statsSeen := false
	for _, info := range infos {
		reached[info.Self] = true
		if s := info.Stats; s != nil {
			statsSeen = true
			stats.ReplicatedEvents += s.ReplicatedEvents
			stats.ReplicationBatches += s.ReplicationBatches
			stats.ReplicationFailures += s.ReplicationFailures
			stats.TailPrimary += s.TailPrimary
			stats.TailReplica += s.TailReplica
		}
		for _, row := range info.Jobs {
			have, ok := jobs[row.ID]
			if !ok || (!have.Local && row.Local) {
				jobs[row.ID] = row
			}
		}
	}
	resp := infos[0]
	if statsSeen {
		// Fleet-wide counters: the sum across every answering peer.
		resp.Stats = &stats
	}
	for i, p := range resp.Peers {
		if !reached[p.Name] {
			resp.Peers[i].State = api.PeerDead
		}
	}
	resp.Jobs = resp.Jobs[:0]
	for _, row := range jobs {
		resp.Jobs = append(resp.Jobs, row)
	}
	sort.Slice(resp.Jobs, func(i, j int) bool { return resp.Jobs[i].ID < resp.Jobs[j].ID })
	return resp, nil
}

// Subscribe returns a live stream fed by one seq-cursored tail per job, the
// loop a RemoteClient's Subscribe runs too. Each tail starts at its job's
// current watermark and survives the primary dying: it re-issues the same
// cursor against the job's replicas, and any entries the replica never
// received show up as an exact, bounded count on Stream.Dropped — computed
// from the sequence gaps, never guessed. Filter matching happens
// client-side, so the filter semantics are identical to a single-daemon
// subscription.
func (cc *ClusterClient) Subscribe(f EventFilter) *Stream { return subscribe(cc, f) }

// failover records a tail that found a peer unreachable and moved on.
func (cc *ClusterClient) failover(peer string) {
	cc.markDown(peer)
	cc.failovers.Add(1)
}
