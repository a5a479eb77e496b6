// Package depgraph maintains the per-job op-level dependency graph the
// paper's dependency-tracing analysis walks: nodes are (rank, communicator,
// op_seq) states reconstructed from Coll-level trace records, and edges are
// the three dependency kinds of §3.1 —
//
//   - barrier waits inside one communicator (a member that launched op k is
//     held at the collective's implicit barrier by a member still behind),
//   - pipeline send/recv order (the same wait inside a SendRecv
//     communicator, where the order is the pipeline schedule), and
//   - inter-communicator nesting (a rank never launches comm A's next op
//     because it is visibly stuck inside comm B — nested parallelism
//     groups).
//
// The graph is updated incrementally as records ingest into the cloud store,
// so root cause analysis walks an already-materialized frontier instead of
// re-scanning the trace database on every trigger. A record costs no map
// probe and, in the steady state, no allocation: ranks index a table, a
// rank's few communicators (~3) are a short slice, and a run of records on
// one (rank, communicator) resolves it once. All queries iterate in sorted
// order and every tie-break is explicit, so walks reproduce bit-for-bit from
// a seed.
package depgraph

import (
	"cmp"
	"fmt"
	"slices"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// Node identifies one op-level state: rank r participating (or due to
// participate) in op Seq of communicator Comm.
type Node struct {
	Rank topo.Rank `json:"rank"`
	Comm uint64    `json:"comm"`
	Seq  uint64    `json:"seq"`
}

// EdgeKind classifies a dependency edge.
type EdgeKind string

const (
	// EdgeBarrier: an intra-communicator barrier wait — From launched the op
	// and is held by To, which is still behind.
	EdgeBarrier EdgeKind = "barrier-wait"
	// EdgePipeline: the same wait inside a SendRecv communicator, where the
	// order is the pipeline send/recv schedule.
	EdgePipeline EdgeKind = "pipeline-order"
	// EdgeNested: an inter-communicator hop — From's op never launches
	// because its rank is visibly stuck inside To's communicator.
	EdgeNested EdgeKind = "nested-comm"
)

// UnmarshalText refuses an edge kind outside the set. "" is in it: a report's
// terminal hop carries no edge.
func (k *EdgeKind) UnmarshalText(text []byte) error {
	for _, known := range [...]EdgeKind{EdgeBarrier, EdgePipeline, EdgeNested, ""} {
		if string(known) == string(text) {
			*k = known // the constant, not a copy of the input: decoding an edge allocates nothing
			return nil
		}
	}
	return fmt.Errorf("depgraph: unknown edge kind %q", text)
}

// Edge is one dependency: From is blocked by (waits on) To.
type Edge struct {
	From Node     `json:"from"`
	To   Node     `json:"to"`
	Kind EdgeKind `json:"kind"`
}

// opSpan records the observed state-log extent of one op on one
// (rank, comm): state logs for Seq were seen from First through Last.
type opSpan struct {
	seq         uint64
	first, last sim.Time
}

// spanHistory bounds the per-(rank, comm) op-span history kept for the
// "was this rank executing here during (from, to]?" query. The straggler
// chase looks back one analysis window, which a handful of ops cover.
const spanHistory = 8

// rankComm is the maintained frontier of one (rank, communicator) pair.
type rankComm struct {
	rank topo.Rank
	comm uint64
	rv   *rankView // the rank's view, for its record ordinal
	cv   *commView // the communicator's view, for its maxSeq

	seq  uint64     // highest op seq observed
	kind trace.Kind // newest record kind at that seq (completion wins)
	op   trace.OpKind
	last sim.Time // newest record's emission time

	lastState sim.Time // newest state log's emission time (0 = none yet)
	stateOrd  uint64   // per-rank ordinal of that state log
	stuckNs   int64    // that state log's stuck time

	// spans is a ring of the newest per-op state-log spans: span k of
	// nspans (counting from 0, oldest first) is spans[k%spanHistory], and
	// the last spanHistory of them are held.
	spans  [spanHistory]opSpan
	nspans uint64
}

// heldSpans returns the range of span numbers the ring still holds.
func (rc *rankComm) heldSpans() (lo, hi uint64) {
	return rc.nspans - min(rc.nspans, spanHistory), rc.nspans
}

// span returns span number k.
func (rc *rankComm) span(k uint64) *opSpan { return &rc.spans[k%spanHistory] }

// inFlight reports whether the frontier shows an op still executing: the
// newest record is a state log, not a completion.
func (rc *rankComm) inFlight() bool { return rc.kind == trace.KindState }

// commView indexes one communicator's member frontiers.
type commView struct {
	id      uint64
	members []*rankComm // sorted by rank
	maxSeq  uint64
}

// commsPerRank sizes a rank's communicator list up front: a rank sits in a
// TP, a DP and one or two pipeline communicators.
const commsPerRank = 4

// rankView indexes one rank's per-communicator frontiers.
type rankView struct {
	ord   uint64      // records observed for this rank, in emission order
	comms []*rankComm // in order first seen
}

// Graph is the incrementally maintained dependency graph of one job.
type Graph struct {
	comms   map[uint64]*commView
	ranks   []*rankView // indexed by rank; nil for a rank not observed
	records uint64
	// prev is the frontier the previous record landed on: a rank emits its
	// state logs channel after channel on one communicator, so a run of
	// records resolves its (rank, comm) once.
	prev *rankComm
}

// New returns an empty graph; feed it with Observe / ObserveBatch.
func New() *Graph {
	return &Graph{comms: make(map[uint64]*commView)}
}

// Observe folds one trace record into the graph. Records for one rank must
// arrive in emission order (the cloud store enforces the same invariant);
// interleaving across ranks is arbitrary. Ranks must be non-negative: the
// rank table is as long as the highest rank observed.
func (g *Graph) Observe(rec trace.Record) { g.observe(&rec) }

// rank returns rank r's view, or nil.
func (g *Graph) rank(r topo.Rank) *rankView {
	if r < 0 || int(r) >= len(g.ranks) {
		return nil
	}
	return g.ranks[r]
}

// find returns the frontier of (rank, comm), or nil.
func (rv *rankView) find(comm uint64) *rankComm {
	if rv != nil {
		for _, rc := range rv.comms {
			if rc.comm == comm {
				return rc
			}
		}
	}
	return nil
}

// frontier returns (creating on first sight) the frontier of (rank, comm).
func (g *Graph) frontier(rank topo.Rank, comm uint64) *rankComm {
	if int(rank) >= len(g.ranks) {
		g.ranks = append(g.ranks, make([]*rankView, int(rank)+1-len(g.ranks))...)
	}
	rv := g.ranks[rank]
	if rv == nil {
		rv = &rankView{comms: make([]*rankComm, 0, commsPerRank)}
		g.ranks[rank] = rv
	}
	rc := rv.find(comm)
	if rc == nil {
		cv := g.comms[comm]
		if cv == nil {
			cv = &commView{id: comm}
			g.comms[comm] = cv
		}
		rc = &rankComm{rank: rank, comm: comm, rv: rv, cv: cv}
		rv.comms = append(rv.comms, rc)
		at, _ := slices.BinarySearchFunc(cv.members, rank, func(m *rankComm, r topo.Rank) int { return cmp.Compare(m.rank, r) })
		cv.members = slices.Insert(cv.members, at, rc)
	}
	return rc
}

func (g *Graph) observe(rec *trace.Record) {
	g.records++
	rc := g.prev
	if rc == nil || rc.rank != rec.Rank || rc.comm != rec.CommID {
		rc = g.frontier(rec.Rank, rec.CommID)
		g.prev = rc
	}
	rv := rc.rv
	rv.ord++

	switch {
	case rec.OpSeq > rc.seq || (rc.last == 0 && rc.kind == 0):
		rc.seq = rec.OpSeq
		rc.kind = rec.Kind
	case rec.OpSeq == rc.seq:
		// Same op: a completion supersedes its state logs; a late state log
		// never reopens a completed op.
		if rec.Kind == trace.KindCompletion {
			rc.kind = trace.KindCompletion
		}
	}
	rc.op = rec.Op
	rc.last = rec.Time
	if rec.OpSeq > rc.cv.maxSeq {
		rc.cv.maxSeq = rec.OpSeq
	}

	if rec.Kind == trace.KindState {
		rc.lastState = rec.Time
		rc.stateOrd = rv.ord
		rc.stuckNs = rec.StuckNs
		if n := rc.nspans; n > 0 && rc.span(n-1).seq == rec.OpSeq {
			rc.span(n - 1).last = rec.Time
		} else {
			*rc.span(n) = opSpan{seq: rec.OpSeq, first: rec.Time, last: rec.Time}
			rc.nspans++
		}
	}
}

// ObserveBatch folds a whole ingest batch; it has the signature the cloud
// store's ingest observer hook expects.
func (g *Graph) ObserveBatch(batch []trace.Record) {
	for i := range batch {
		g.observe(&batch[i])
	}
}

// Records returns how many records the graph has folded in.
func (g *Graph) Records() uint64 { return g.records }

// Comms returns the known communicator ids, sorted.
func (g *Graph) Comms() []uint64 {
	out := make([]uint64, 0, len(g.comms))
	for id := range g.comms {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Members returns a communicator's observed member ranks, sorted.
func (g *Graph) Members(comm uint64) []topo.Rank {
	cv := g.comms[comm]
	if cv == nil {
		return nil
	}
	out := make([]topo.Rank, len(cv.members))
	for i, rc := range cv.members {
		out[i] = rc.rank
	}
	return out
}

// StuckComm returns the communicator (≠ exclude; exclude 0 excludes none) on
// which rank r most recently emitted a state log with time in (from, to] —
// the op it is visibly stuck inside. Recency is the rank's own emission
// order, exactly matching a backward scan of its trace series.
func (g *Graph) StuckComm(r topo.Rank, exclude uint64, from, to sim.Time) (uint64, bool) {
	rv := g.rank(r)
	if rv == nil {
		return 0, false
	}
	var best *rankComm
	for _, rc := range rv.comms {
		if rc.comm == exclude || rc.lastState == 0 {
			continue
		}
		if rc.lastState <= from || rc.lastState > to {
			continue
		}
		if best == nil || rc.stateOrd > best.stateOrd {
			best = rc
		}
	}
	if best == nil {
		return 0, false
	}
	return best.comm, true
}

// StuckCommDuring returns a communicator (≠ exclude) rank r was visibly
// executing an op on during (from, to] — evidence that a late start was
// dependency-induced rather than compute-induced. When several qualify, the
// one whose in-window activity starts earliest wins (lower comm id breaks
// ties). This approximates a forward scan of the rank's series at span
// granularity: a span already running when the window opens counts from the
// window start, which is exact to within one state-log period, and the
// spanHistory bound can drop activity older than the last spanHistory ops
// per (rank, comm) — both deliberate trades for O(1) maintenance, sized so
// the straggler chase's one-window look-back is unaffected.
func (g *Graph) StuckCommDuring(r topo.Rank, from, to sim.Time, exclude uint64) (uint64, bool) {
	rv := g.rank(r)
	if rv == nil {
		return 0, false
	}
	bestComm := uint64(0)
	var bestAt sim.Time
	for _, rc := range rv.comms {
		if rc.comm == exclude {
			continue
		}
		for k, hi := rc.heldSpans(); k < hi; k++ {
			sp := rc.span(k)
			if sp.last <= from || sp.first > to {
				continue
			}
			at := sp.first
			if at <= from {
				at = from // span entered the window already running
			}
			if bestComm == 0 || at < bestAt || (at == bestAt && rc.comm < bestComm) {
				bestComm, bestAt = rc.comm, at
			}
			break // spans are time-ordered; the first overlap is the earliest
		}
	}
	return bestComm, bestComm != 0
}

// FrontierOp returns the op kind of rank r's newest record on a
// communicator (OpNone when unobserved).
func (g *Graph) FrontierOp(r topo.Rank, comm uint64) trace.OpKind {
	if rc := g.rank(r).find(comm); rc != nil {
		return rc.op
	}
	return trace.OpNone
}

// waitKind maps an op kind to the intra-comm edge kind: send/recv order is
// the pipeline schedule, everything else is a collective barrier.
func waitKind(op trace.OpKind) EdgeKind {
	if op == trace.OpSendRecv {
		return EdgePipeline
	}
	return EdgeBarrier
}

// HopKind classifies the inter-comm edge of a dependency chase landing on
// rank r inside comm: pipeline order when the nested op is a send/recv,
// plain nesting otherwise.
func (g *Graph) HopKind(r topo.Rank, comm uint64) EdgeKind {
	if g.FrontierOp(r, comm) == trace.OpSendRecv {
		return EdgePipeline
	}
	return EdgeNested
}

// appendCommEdges appends one communicator's current wait edges, derived
// from its member frontiers, to out:
//
//   - members in flight at seq > the group minimum wait on every member
//     still at the minimum (barrier / pipeline order), and
//   - when the whole group is in flight on the same op, stuck members wait
//     on the member whose flows stalled longest (the ring coupling the
//     CheckMinData analysis exploits).
func appendCommEdges(out []Edge, cv *commView) []Edge {
	members := cv.members
	if len(members) < 2 {
		return out
	}
	minSeq := cv.minSeq()
	laggards := 0
	for _, rc := range members {
		if rc.seq == minSeq {
			laggards++
		}
	}
	if laggards < len(members) {
		for _, rc := range members {
			if rc.seq == minSeq || !rc.inFlight() {
				continue
			}
			for _, lag := range members {
				if lag.seq != minSeq {
					continue
				}
				out = append(out, Edge{
					From: Node{Rank: rc.rank, Comm: cv.id, Seq: rc.seq},
					To:   Node{Rank: lag.rank, Comm: cv.id, Seq: lag.seq},
					Kind: waitKind(rc.op),
				})
			}
		}
		return out
	}
	// Everyone is on the same op: the stalled-first member holds the ring.
	var hub *rankComm
	for _, rc := range members {
		if !rc.inFlight() {
			continue
		}
		if hub == nil || rc.stuckNs > hub.stuckNs {
			hub = rc
		}
	}
	if hub == nil {
		return out
	}
	for _, rc := range members {
		if rc == hub || !rc.inFlight() || rc.stuckNs <= 0 {
			continue
		}
		out = append(out, Edge{
			From: Node{Rank: rc.rank, Comm: cv.id, Seq: rc.seq},
			To:   Node{Rank: hub.rank, Comm: cv.id, Seq: hub.seq},
			Kind: waitKind(rc.op),
		})
	}
	return out
}

// appendNestedEdges appends the inter-communicator edges out of cv to out:
// rank r never launched comm A's next op (its frontier is a completion below
// the group maximum) while visibly in flight on comm B.
func appendNestedEdges(out []Edge, cv *commView) []Edge {
	for _, rc := range cv.members {
		if rc.inFlight() || rc.seq >= cv.maxSeq {
			continue
		}
		var busy *rankComm
		for _, other := range rc.rv.comms {
			if other.comm == cv.id || !other.inFlight() {
				continue
			}
			if busy == nil || other.stateOrd > busy.stateOrd {
				busy = other
			}
		}
		if busy == nil {
			continue
		}
		out = append(out, Edge{
			From: Node{Rank: rc.rank, Comm: cv.id, Seq: rc.seq + 1},
			To:   Node{Rank: rc.rank, Comm: busy.comm, Seq: busy.seq},
			Kind: EdgeNested,
		})
	}
	return out
}

// Edges derives the current dependency edges, grouped per communicator in
// ascending id order: each comm's wait edges first (by from-rank), then its
// nested hops (by rank). comm 0 means all; a non-zero comm restricts to
// edges touching that communicator (including nested hops out of it). The
// ordering is deterministic, and a graph with no edges answers nil.
func (g *Graph) Edges(comm uint64) []Edge {
	var out []Edge
	for _, id := range g.Comms() {
		if comm != 0 && id != comm {
			continue
		}
		cv := g.comms[id]
		out = appendCommEdges(out, cv)
		out = appendNestedEdges(out, cv)
	}
	return out
}

// Victims returns every rank transitively blocked by the suspect — the
// blast radius. A member waiting at a barrier behind a blocked rank is
// blocked; a member of a ring all on one op is blocked when a blocked
// member's flows pin it (its own progress is stuck); and blockage crosses
// communicators through shared ranks. The suspect itself is excluded; the
// result is sorted.
func (g *Graph) Victims(suspect topo.Rank) []topo.Rank {
	out := []topo.Rank{}
	if g.rank(suspect) == nil {
		return out // a rank the graph never saw holds nothing back
	}
	blocked := make([]bool, len(g.ranks))
	blocked[suspect] = true
	comms := g.Comms()
	for changed := true; changed; {
		changed = false
		for _, id := range comms {
			cv := g.comms[id]
			if len(cv.members) < 2 {
				continue
			}
			minSeq := cv.minSeq()
			// Is any blocked rank holding this comm back?
			holding := false
			allSame := true
			for _, rc := range cv.members {
				if rc.seq != minSeq {
					allSame = false
				} else if blocked[rc.rank] {
					holding = true
				}
			}
			if !holding {
				continue
			}
			for _, rc := range cv.members {
				if blocked[rc.rank] || !rc.inFlight() {
					continue
				}
				// Ahead of the laggard: held at the barrier. Same op as
				// everyone: held by the ring only if visibly stuck.
				if rc.seq > minSeq || (allSame && rc.stuckNs > 0) {
					blocked[rc.rank] = true
					changed = true
				}
			}
		}
	}
	for r, b := range blocked {
		if b && topo.Rank(r) != suspect {
			out = append(out, topo.Rank(r))
		}
	}
	return out
}

// minSeq returns the lowest op seq among the members' frontiers.
func (cv *commView) minSeq() uint64 {
	m := cv.members[0].seq
	for _, rc := range cv.members[1:] {
		m = min(m, rc.seq)
	}
	return m
}
