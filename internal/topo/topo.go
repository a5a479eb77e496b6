// Package topo models the physical and logical topology of an LLM training
// cluster: nodes with GPUs and NICs, the rank space, and the Megatron-style
// decomposition of ranks into tensor- (TP), pipeline- (PP) and data-parallel
// (DP) process groups. Mycroft's sampler and root-cause analysis consume
// these groups; the CCL builds its communicators from them.
package topo

import (
	"fmt"
)

// Rank is a global rank id in [0, WorldSize).
type Rank int

// NodeID identifies a physical host.
type NodeID int

// GPUID identifies a GPU globally (equal to the rank in this model: one
// process per GPU, as in production LLM training).
type GPUID int

// IP is the host address used as the key in trace metadata (Table 2 of the
// paper keys logs by IP).
type IP string

// Node is a physical host with LocalGPUs GPUs and one RNIC per GPU.
type Node struct {
	ID  NodeID
	IP  IP
	GPU []GPUID // global GPU ids hosted here, index = local rank
}

// Cluster is the physical layout plus the logical parallelism plan.
type Cluster struct {
	Nodes       []*Node
	GPUsPerNode int

	// Parallelism plan (Megatron order: TP innermost, then PP, then DP).
	TP int
	PP int
	DP int

	rankNode []NodeID // rank -> node
}

// Config sizes a cluster. WorldSize = Nodes × GPUsPerNode must equal
// TP × PP × DP. The JSON tags are the scenario file's and the incident
// artifact header's names for it.
type Config struct {
	Nodes       int `json:"nodes"`
	GPUsPerNode int `json:"gpus_per_node"`
	TP          int `json:"tp"`
	PP          int `json:"pp"`
	DP          int `json:"dp"`
}

// Small is the 8-GPU testbed, 2 nodes × 4 GPUs at TP=2 PP=2 DP=2: the shape a
// job or a scenario takes when it leaves the topology unset, and the one
// experiments use where many runs are needed.
func Small() Config { return Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2} }

func (c Config) String() string {
	return fmt.Sprintf("%d×%d tp=%d pp=%d dp=%d", c.Nodes, c.GPUsPerNode, c.TP, c.PP, c.DP)
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.GPUsPerNode <= 0 {
		return fmt.Errorf("topo: non-positive cluster dims %d×%d", c.Nodes, c.GPUsPerNode)
	}
	if c.TP <= 0 || c.PP <= 0 || c.DP <= 0 {
		return fmt.Errorf("topo: non-positive parallelism dims tp=%d pp=%d dp=%d", c.TP, c.PP, c.DP)
	}
	world := c.Nodes * c.GPUsPerNode
	if c.TP*c.PP*c.DP != world {
		return fmt.Errorf("topo: tp×pp×dp = %d does not cover world size %d", c.TP*c.PP*c.DP, world)
	}
	return nil
}

// New builds a cluster from a validated config.
func New(c Config) (*Cluster, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{
		GPUsPerNode: c.GPUsPerNode,
		TP:          c.TP, PP: c.PP, DP: c.DP,
	}
	world := c.Nodes * c.GPUsPerNode
	cl.rankNode = make([]NodeID, world)
	for n := 0; n < c.Nodes; n++ {
		node := &Node{
			ID: NodeID(n),
			IP: IP(fmt.Sprintf("10.0.%d.%d", n/256, n%256)),
		}
		for g := 0; g < c.GPUsPerNode; g++ {
			global := GPUID(n*c.GPUsPerNode + g)
			node.GPU = append(node.GPU, global)
			cl.rankNode[int(global)] = node.ID
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	return cl, nil
}

// MustNew is New for known-good configs (tests, examples).
func MustNew(c Config) *Cluster {
	cl, err := New(c)
	if err != nil {
		panic(err)
	}
	return cl
}

// WorldSize returns the number of ranks.
func (cl *Cluster) WorldSize() int { return len(cl.rankNode) }

// NodeOf returns the node hosting rank r.
func (cl *Cluster) NodeOf(r Rank) *Node { return cl.Nodes[cl.rankNode[int(r)]] }

// IPOf returns the host IP of rank r.
func (cl *Cluster) IPOf(r Rank) IP { return cl.NodeOf(r).IP }

// SameNode reports whether two ranks share a host.
func (cl *Cluster) SameNode(a, b Rank) bool { return cl.rankNode[int(a)] == cl.rankNode[int(b)] }

// LocalRank returns r's index within its node.
func (cl *Cluster) LocalRank(r Rank) int { return int(r) % cl.GPUsPerNode }

// Coord is a rank's position in the (DP, PP, TP) grid.
type Coord struct{ DP, PP, TP int }

// CoordOf decomposes rank r using Megatron ordering: rank = ((dp*PP)+pp)*TP+tp.
func (cl *Cluster) CoordOf(r Rank) Coord {
	i := int(r)
	tp := i % cl.TP
	pp := (i / cl.TP) % cl.PP
	dp := i / (cl.TP * cl.PP)
	return Coord{DP: dp, PP: pp, TP: tp}
}

// RankAt composes a rank from a grid coordinate.
func (cl *Cluster) RankAt(c Coord) Rank {
	return Rank(((c.DP*cl.PP)+c.PP)*cl.TP + c.TP)
}

// GroupKind labels a process-group dimension.
type GroupKind string

const (
	GroupTP    GroupKind = "tp"
	GroupPP    GroupKind = "pp"
	GroupDP    GroupKind = "dp"
	GroupWorld GroupKind = "world"
)

// Group is an ordered set of ranks forming one communicator.
type Group struct {
	Kind  GroupKind
	Index int // which group of this kind (0-based)
	Ranks []Rank
}

// Contains reports whether rank r is a member.
func (g *Group) Contains(r Rank) bool {
	for _, x := range g.Ranks {
		if x == r {
			return true
		}
	}
	return false
}

func (g *Group) String() string {
	return fmt.Sprintf("%s[%d]%v", g.Kind, g.Index, g.Ranks)
}

// TPGroups returns the tensor-parallel groups: ranks contiguous in TP.
func (cl *Cluster) TPGroups() []*Group {
	var out []*Group
	n := 0
	for dp := 0; dp < cl.DP; dp++ {
		for pp := 0; pp < cl.PP; pp++ {
			g := &Group{Kind: GroupTP, Index: n}
			for tp := 0; tp < cl.TP; tp++ {
				g.Ranks = append(g.Ranks, cl.RankAt(Coord{DP: dp, PP: pp, TP: tp}))
			}
			out = append(out, g)
			n++
		}
	}
	return out
}

// PPGroups returns the pipeline-parallel groups: one per (dp, tp) pair,
// ordered by pipeline stage.
func (cl *Cluster) PPGroups() []*Group {
	var out []*Group
	n := 0
	for dp := 0; dp < cl.DP; dp++ {
		for tp := 0; tp < cl.TP; tp++ {
			g := &Group{Kind: GroupPP, Index: n}
			for pp := 0; pp < cl.PP; pp++ {
				g.Ranks = append(g.Ranks, cl.RankAt(Coord{DP: dp, PP: pp, TP: tp}))
			}
			out = append(out, g)
			n++
		}
	}
	return out
}

// DPGroups returns the data-parallel groups: one per (pp, tp) pair. The
// gradient all-reduce runs over these; Mycroft samples at least one rank per
// DP group (§4.3).
func (cl *Cluster) DPGroups() []*Group {
	var out []*Group
	n := 0
	for pp := 0; pp < cl.PP; pp++ {
		for tp := 0; tp < cl.TP; tp++ {
			g := &Group{Kind: GroupDP, Index: n}
			for dp := 0; dp < cl.DP; dp++ {
				g.Ranks = append(g.Ranks, cl.RankAt(Coord{DP: dp, PP: pp, TP: tp}))
			}
			out = append(out, g)
			n++
		}
	}
	return out
}

// WorldGroup returns the group of all ranks.
func (cl *Cluster) WorldGroup() *Group {
	g := &Group{Kind: GroupWorld}
	for r := 0; r < cl.WorldSize(); r++ {
		g.Ranks = append(g.Ranks, Rank(r))
	}
	return g
}

// AllGroups returns every process group of the plan (TP, PP, DP), which is
// what the training schedule will create communicators for.
func (cl *Cluster) AllGroups() []*Group {
	var out []*Group
	out = append(out, cl.TPGroups()...)
	out = append(out, cl.PPGroups()...)
	out = append(out, cl.DPGroups()...)
	return out
}
