package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mycroft/internal/api"
)

// MissesBeforeDead is how many consecutive failed direct contacts move a
// peer from suspect to dead. One miss is suspect; a single success resets
// the ladder to alive.
const MissesBeforeDead = 3

// Peer is one row of a Node's membership table.
type Peer struct {
	Name     string
	Addr     string
	misses   int       // consecutive failed direct contacts
	lastSeen time.Time // wall clock; zero = never heard from
	dead     bool      // sticky once misses crosses the threshold, until a success
}

// State renders the health ladder for one peer.
func (p *Peer) state() string {
	switch {
	case p.dead:
		return api.PeerDead
	case p.misses > 0:
		return api.PeerSuspect
	default:
		return api.PeerAlive
	}
}

// Node is one peer's view of the cluster: static membership (from flags),
// the ring built over it, and a wall-clock health table fed by direct
// contact outcomes and gossip. All methods are safe for concurrent use.
type Node struct {
	ClusterID string
	Self      string
	SelfAddr  string
	Replicas  int // R: followers per job

	ring *Ring

	mu    sync.Mutex
	peers map[string]*Peer // includes self
}

// NewNode builds a node. peers maps name → addr and must include self (it
// is added if missing). replicas is clamped to the number of other peers.
// The ring has DefaultVNodes per peer.
func NewNode(clusterID, self, selfAddr string, peers map[string]string, replicas int) (*Node, error) {
	if clusterID == "" {
		return nil, fmt.Errorf("cluster: empty cluster id")
	}
	if self == "" {
		return nil, fmt.Errorf("cluster: empty self name")
	}
	n := &Node{
		ClusterID: clusterID, Self: self, SelfAddr: selfAddr,
		Replicas: replicas,
		peers:    make(map[string]*Peer, len(peers)+1),
	}
	names := make([]string, 0, len(peers)+1)
	for name, addr := range peers {
		n.peers[name] = &Peer{Name: name, Addr: addr}
		names = append(names, name)
	}
	if _, ok := n.peers[self]; !ok {
		n.peers[self] = &Peer{Name: self, Addr: selfAddr}
		names = append(names, self)
	} else if selfAddr != "" {
		n.peers[self].Addr = selfAddr
	}
	if n.Replicas < 0 {
		n.Replicas = 0
	}
	if max := len(names) - 1; n.Replicas > max {
		n.Replicas = max
	}
	n.ring = NewRing(names, DefaultVNodes)
	return n, nil
}

// Ring exposes the placement ring (immutable after construction).
func (n *Node) Ring() *Ring { return n.ring }

// Primary names the peer owning job under this node's ring.
func (n *Node) Primary(job string) string { return n.ring.Primary(job) }

// Placement returns the primary plus the R replica followers for job.
func (n *Node) Placement(job string) (primary string, replicas []string) {
	c := n.ring.Candidates(job, 1+n.Replicas)
	if len(c) == 0 {
		return "", nil
	}
	return c[0], c[1:]
}

// Owns reports whether this node is job's primary.
func (n *Node) Owns(job string) bool { return n.Primary(job) == n.Self }

// Addr returns a peer's address ("" when unknown).
func (n *Node) Addr(name string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[name]; p != nil {
		return p.Addr
	}
	return ""
}

// MarkContact records the outcome of one direct contact with a peer:
// success resets its ladder to alive and freshens LastSeen, failure climbs
// it toward dead.
func (n *Node) MarkContact(name string, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[name]
	if p == nil || name == n.Self {
		return
	}
	if ok {
		p.misses = 0
		p.dead = false
		p.lastSeen = time.Now()
		return
	}
	p.misses++
	if p.misses >= MissesBeforeDead {
		p.dead = true
	}
}

// State reports the health verdict for one peer (self is always alive).
func (n *Node) State(name string) string {
	if name == n.Self {
		return api.PeerAlive
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[name]; p != nil {
		return p.state()
	}
	return api.PeerDead
}

// View renders the health table as wire rows, sorted by name, marking self.
func (n *Node) View() []api.ClusterPeer {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]api.ClusterPeer, 0, len(n.peers))
	for _, p := range n.peers {
		row := api.ClusterPeer{Name: p.Name, Addr: p.Addr, State: p.state(), Self: p.Name == n.Self}
		if p.Name == n.Self {
			row.State = api.PeerAlive
		}
		if !p.lastSeen.IsZero() {
			row.LastSeenUnixMs = p.lastSeen.UnixMilli()
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merge folds a gossiped view into the table: rows about peers this node
// knows are merged by freshest LastSeen — a fresher row's state wins, so a
// recovery observed elsewhere propagates without direct contact. Rows about
// self or unknown names are ignored (membership is static).
func (n *Node) Merge(rows []api.ClusterPeer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, row := range rows {
		p := n.peers[row.Name]
		if p == nil || row.Name == n.Self {
			continue
		}
		seen := time.UnixMilli(row.LastSeenUnixMs)
		if row.LastSeenUnixMs == 0 || !seen.After(p.lastSeen) {
			continue
		}
		p.lastSeen = seen
		switch row.State {
		case api.PeerAlive:
			p.misses = 0
			p.dead = false
		case api.PeerSuspect:
			if p.misses == 0 {
				p.misses = 1
			}
			p.dead = false
		case api.PeerDead:
			p.misses = MissesBeforeDead
			p.dead = true
		}
	}
}

// Heard freshens a peer's LastSeen from inbound traffic (a gossip or
// replicate request from it proves liveness just as well as an outbound
// success).
func (n *Node) Heard(name string) { n.MarkContact(name, true) }

// Others lists every peer name except self, sorted.
func (n *Node) Others() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers)-1)
	for name := range n.peers {
		if name != n.Self {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
