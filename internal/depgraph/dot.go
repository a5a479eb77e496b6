package depgraph

import (
	"fmt"
	"sort"
	"strings"

	"mycroft/internal/sim"
)

// DOT renders the current dependency graph in Graphviz dot syntax: one
// cluster per communicator, member frontiers as nodes, wait edges inside
// clusters and nested hops across them. Output is fully deterministic —
// comms, ranks and edges all render in sorted order — so same-seed runs
// export byte-identical graphs.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph mycroft_deps {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")

	nodeID := func(n Node) string {
		return fmt.Sprintf("r%d_c%d_s%d", n.Rank, n.Comm, n.Seq)
	}
	// Collect every edge first: nodes referenced by edges must exist even
	// when they sit one op ahead of the frontier (the not-yet-launched op of
	// a nested hop).
	edges := g.Edges(0)
	extra := map[uint64]map[Node]bool{}
	note := func(n Node) {
		if rc := g.rank(n.Rank).find(n.Comm); rc != nil && rc.seq == n.Seq {
			return // rendered from the frontier below
		}
		m := extra[n.Comm]
		if m == nil {
			m = make(map[Node]bool)
			extra[n.Comm] = m
		}
		m[n] = true
	}
	for _, e := range edges {
		note(e.From)
		note(e.To)
	}

	for _, id := range g.Comms() {
		cv := g.comms[id]
		fmt.Fprintf(&b, "  subgraph cluster_comm%d {\n    label=\"comm %d\";\n", id, id)
		for _, rc := range cv.members {
			r := rc.rank
			status := "done"
			if rc.inFlight() {
				status = "in-flight"
				if rc.stuckNs > 0 {
					status = fmt.Sprintf("stuck %v", sim.Duration(rc.stuckNs))
				}
			}
			fmt.Fprintf(&b, "    %s [label=\"rank %d\\n%s #%d\\n%s\"];\n",
				nodeID(Node{Rank: r, Comm: id, Seq: rc.seq}), r, rc.op, rc.seq, status)
		}
		pending := make([]Node, 0, len(extra[id]))
		for n := range extra[id] {
			pending = append(pending, n)
		}
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].Rank != pending[j].Rank {
				return pending[i].Rank < pending[j].Rank
			}
			return pending[i].Seq < pending[j].Seq
		})
		for _, n := range pending {
			fmt.Fprintf(&b, "    %s [label=\"rank %d\\n#%d\\nnot launched\", style=dashed];\n",
				nodeID(n), n.Rank, n.Seq)
		}
		b.WriteString("  }\n")
	}

	style := map[EdgeKind]string{
		EdgeBarrier:  "",
		EdgePipeline: " [style=bold]",
		EdgeNested:   " [style=dashed, color=red]",
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  %s -> %s [label=\"%s\"]%s;\n", nodeID(e.From), nodeID(e.To), e.Kind, style[e.Kind])
	}
	b.WriteString("}\n")
	return b.String()
}
