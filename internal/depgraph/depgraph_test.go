package depgraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

func sec(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

func state(r topo.Rank, comm, seq uint64, at sim.Time, stuck time.Duration) trace.Record {
	return trace.Record{
		Kind: trace.KindState, Time: at, Rank: r, CommID: comm, OpSeq: seq,
		Op: trace.OpAllReduce, TotalChunks: 100, GPUReady: 10, RDMATransmitted: 10, RDMADone: 8,
		StuckNs: int64(stuck),
	}
}

func completion(r topo.Rank, comm, seq uint64, at sim.Time) trace.Record {
	return trace.Record{
		Kind: trace.KindCompletion, Time: at, Rank: r, CommID: comm, OpSeq: seq,
		Op: trace.OpAllReduce, Start: at.Add(-100 * time.Millisecond), End: at,
	}
}

func sendrecv(rec trace.Record) trace.Record {
	rec.Op = trace.OpSendRecv
	return rec
}

func TestFrontierTracksNewestRecord(t *testing.T) {
	g := New()
	g.Observe(state(1, 7, 3, sec(1), 0))
	g.Observe(completion(1, 7, 3, sec(2)))
	g.Observe(state(1, 7, 4, sec(3), time.Second))

	if got := g.FrontierOp(1, 7); got != trace.OpAllReduce {
		t.Fatalf("frontier op = %v", got)
	}
	rc := g.rank(1).find(7)
	if rc.seq != 4 || !rc.inFlight() || rc.stuckNs != int64(time.Second) {
		t.Fatalf("frontier = %+v", rc)
	}
	// A completion closes the op: no longer in flight.
	g.Observe(completion(1, 7, 4, sec(4)))
	if rc.inFlight() {
		t.Fatal("completion did not close the op")
	}
	if g.Records() != 4 {
		t.Fatalf("records = %d", g.Records())
	}
}

func TestStuckCommPicksLatestStateInWindow(t *testing.T) {
	g := New()
	g.Observe(state(1, 7, 2, sec(5), 0))
	g.Observe(state(1, 9, 1, sec(6), 0)) // newer state on comm 9
	if comm, ok := g.StuckComm(1, 7, sec(0), sec(10)); !ok || comm != 9 {
		t.Fatalf("StuckComm = %d, %v", comm, ok)
	}
	// Excluding comm 9 leaves nothing except comm 7, which is excluded too
	// via the window: its state is at t=5, window (5, 10].
	if _, ok := g.StuckComm(1, 9, sec(5), sec(10)); ok {
		t.Fatal("stale state matched the window")
	}
	// Exclude 0 excludes nothing.
	if comm, ok := g.StuckComm(1, 0, sec(0), sec(10)); !ok || comm != 9 {
		t.Fatalf("StuckComm(0) = %d, %v", comm, ok)
	}
	if _, ok := g.StuckComm(99, 0, sec(0), sec(10)); ok {
		t.Fatal("unknown rank matched")
	}
}

func TestStuckCommDuringOverlapsSpans(t *testing.T) {
	g := New()
	// Rank 1 executed comm 9's op from t=2..4, then comm 11's from t=5..6.
	g.Observe(state(1, 9, 1, sec(2), 0))
	g.Observe(state(1, 9, 1, sec(4), 0))
	g.Observe(completion(1, 9, 1, sec(4.5)))
	g.Observe(state(1, 11, 1, sec(5), 0))
	g.Observe(state(1, 11, 1, sec(6), 0))

	// Window (3, 5.5]: both comms overlap; comm 9 started earlier.
	if comm, ok := g.StuckCommDuring(1, sec(3), sec(5.5), 7); !ok || comm != 9 {
		t.Fatalf("during = %d, %v", comm, ok)
	}
	// Window (4.8, 6]: only comm 11.
	if comm, ok := g.StuckCommDuring(1, sec(4.8), sec(6), 7); !ok || comm != 11 {
		t.Fatalf("during = %d, %v", comm, ok)
	}
	// Excluding the only overlapping comm finds nothing.
	if _, ok := g.StuckCommDuring(1, sec(4.8), sec(6), 11); ok {
		t.Fatal("excluded comm matched")
	}
	// Window after all activity.
	if _, ok := g.StuckCommDuring(1, sec(7), sec(9), 0); ok {
		t.Fatal("empty window matched")
	}
}

func TestSpanHistoryBounded(t *testing.T) {
	g := New()
	for seq := uint64(0); seq < 20; seq++ {
		g.Observe(state(1, 7, seq, sec(float64(seq)), 0))
		g.Observe(completion(1, 7, seq, sec(float64(seq)+0.5)))
	}
	rc := g.rank(1).find(7)
	lo, hi := rc.heldSpans()
	if n := hi - lo; n != spanHistory {
		t.Fatalf("span history = %d, want %d", n, spanHistory)
	}
	for k := lo; k < hi; k++ { // the newest ops, oldest first
		if sp := rc.span(k); sp.seq != 20-spanHistory+k-lo || sp.first != sec(float64(sp.seq)) {
			t.Fatalf("span %d of the ring = %+v", k-lo, *sp)
		}
	}
}

func TestBarrierEdges(t *testing.T) {
	g := New()
	// Rank 2 finished op 4 and never launched 5; ranks 0,1,3 in flight at 5.
	g.Observe(completion(2, 7, 4, sec(4)))
	for _, r := range []topo.Rank{0, 1, 3} {
		g.Observe(state(r, 7, 5, sec(10), 2*time.Second))
	}
	edges := g.Edges(7)
	if len(edges) != 3 {
		t.Fatalf("edges = %+v", edges)
	}
	for _, e := range edges {
		if e.Kind != EdgeBarrier || e.To.Rank != 2 || e.To.Seq != 4 {
			t.Fatalf("bad edge %+v", e)
		}
	}
	// Deterministic order by from-rank.
	if edges[0].From.Rank != 0 || edges[1].From.Rank != 1 || edges[2].From.Rank != 3 {
		t.Fatalf("edge order: %+v", edges)
	}
}

func TestPipelineEdgeKind(t *testing.T) {
	g := New()
	g.Observe(sendrecv(completion(2, 8, 4, sec(4))))
	g.Observe(sendrecv(state(3, 8, 5, sec(10), time.Second)))
	edges := g.Edges(8)
	if len(edges) != 1 || edges[0].Kind != EdgePipeline {
		t.Fatalf("edges = %+v", edges)
	}
	if g.HopKind(3, 8) != EdgePipeline || g.HopKind(3, 99) != EdgeNested {
		t.Fatal("HopKind wrong")
	}
}

func TestRingCouplingEdges(t *testing.T) {
	g := New()
	// All four ranks in flight on the same op; rank 2 stalled longest.
	for _, r := range []topo.Rank{0, 1, 3} {
		g.Observe(state(r, 7, 5, sec(10), 3*time.Second))
	}
	g.Observe(state(2, 7, 5, sec(10), 5*time.Second))
	edges := g.Edges(7)
	if len(edges) != 3 {
		t.Fatalf("edges = %+v", edges)
	}
	for _, e := range edges {
		if e.To.Rank != 2 {
			t.Fatalf("hub is not rank 2: %+v", e)
		}
	}
}

func TestNestedEdges(t *testing.T) {
	g := New()
	// Comm 7: rank 1 completed seq 4, peers in flight at 5.
	g.Observe(completion(1, 7, 4, sec(4)))
	for _, r := range []topo.Rank{0, 2, 3} {
		g.Observe(state(r, 7, 5, sec(10), 2*time.Second))
	}
	// Rank 1 is stuck inside comm 9.
	g.Observe(state(1, 9, 2, sec(10), 5*time.Second))
	g.Observe(state(5, 9, 2, sec(10), 2*time.Second))

	var nested []Edge
	for _, e := range g.Edges(0) {
		if e.Kind == EdgeNested {
			nested = append(nested, e)
		}
	}
	if len(nested) != 1 {
		t.Fatalf("nested edges = %+v", nested)
	}
	e := nested[0]
	if e.From != (Node{Rank: 1, Comm: 7, Seq: 5}) || e.To != (Node{Rank: 1, Comm: 9, Seq: 2}) {
		t.Fatalf("nested edge = %+v", e)
	}
}

func TestVictimsBlastRadius(t *testing.T) {
	g := New()
	// Comm 9 (TP): rank 1 is the root cause, rank 5 its ring peer — both in
	// flight on the same op, rank 5 stuck.
	g.Observe(state(1, 9, 2, sec(10), 5*time.Second))
	g.Observe(state(5, 9, 2, sec(10), 2*time.Second))
	// Comm 7 (DP): rank 1 never launched seq 5; ranks 0,2,3 wait in flight.
	g.Observe(completion(1, 7, 4, sec(4)))
	for _, r := range []topo.Rank{0, 2, 3} {
		g.Observe(state(r, 7, 5, sec(10), 2*time.Second))
	}
	got := g.Victims(1)
	want := []topo.Rank{0, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("victims = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("victims = %v, want %v", got, want)
		}
	}
	// A healthy bystander rank is not a victim.
	g.Observe(state(8, 13, 1, sec(10), 0))
	if got := g.Victims(1); len(got) != 4 {
		t.Fatalf("bystander dragged in: %v", got)
	}
}

func TestVictimsTransitiveAcrossComms(t *testing.T) {
	g := New()
	// Suspect 4 blocks comm 20 (ranks 4,5 on same op, 5 stuck).
	g.Observe(state(4, 20, 3, sec(10), 6*time.Second))
	g.Observe(state(5, 20, 3, sec(10), 3*time.Second))
	// Rank 5 in turn lags comm 21, where rank 6 waits one op ahead.
	g.Observe(state(6, 21, 8, sec(10), 2*time.Second))
	// rank 5's comm-21 frontier: completed 7, never launched 8.
	g.Observe(completion(5, 21, 7, sec(5)))
	got := g.Victims(4)
	want := []topo.Rank{5, 6}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("victims = %v, want %v", got, want)
	}
}

func TestVictimsEmptyForUnknownOrHealthy(t *testing.T) {
	g := New()
	g.Observe(completion(0, 7, 3, sec(1)))
	g.Observe(completion(1, 7, 3, sec(1)))
	if got := g.Victims(0); len(got) != 0 {
		t.Fatalf("healthy comm produced victims: %v", got)
	}
	if got := g.Victims(42); len(got) != 0 {
		t.Fatalf("unknown suspect produced victims: %v", got)
	}
}

func TestDOTDeterministicAndStructured(t *testing.T) {
	build := func() *Graph {
		g := New()
		g.Observe(completion(1, 7, 4, sec(4)))
		for _, r := range []topo.Rank{0, 2, 3} {
			g.Observe(state(r, 7, 5, sec(10), 2*time.Second))
		}
		g.Observe(state(1, 9, 2, sec(10), 5*time.Second))
		g.Observe(state(5, 9, 2, sec(10), 2*time.Second))
		return g
	}
	a, b := build().DOT(), build().DOT()
	if a != b {
		t.Fatal("DOT output is not deterministic")
	}
	for _, want := range []string{
		"digraph mycroft_deps", "cluster_comm7", "cluster_comm9",
		"nested-comm", "barrier-wait", "not launched",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("DOT missing %q:\n%s", want, a)
		}
	}
}

func TestObserveBatchAndAccessors(t *testing.T) {
	g := New()
	g.ObserveBatch([]trace.Record{
		state(0, 7, 1, sec(1), 0),
		state(1, 9, 1, sec(1), 0),
	})
	if comms := g.Comms(); len(comms) != 2 || comms[0] != 7 || comms[1] != 9 {
		t.Fatalf("comms = %v", comms)
	}
	if m := g.Members(7); len(m) != 1 || m[0] != (Member{Rank: 0, Seq: 1, Kind: trace.KindState, Last: sec(1)}) {
		t.Fatalf("members = %+v", m)
	}
	if g.Members(99) != nil {
		t.Fatal("unknown comm has members")
	}
	g.Observe(completion(0, 9, 1, sec(2)))
	if f, ok := g.Rank(0); !ok || f != (RankFrontier{Comm: 9, Completed: true}) {
		t.Fatalf("rank 0 frontier = %+v %v", f, ok)
	}
	if f, ok := g.Rank(1); !ok || f != (RankFrontier{Comm: 9}) {
		t.Fatalf("rank 1 frontier = %+v %v", f, ok)
	}
	if _, ok := g.Rank(99); ok {
		t.Fatal("unknown rank has a frontier")
	}
}

// interleavingProgram draws each rank's record sequence for a 16-rank job:
// four TP communicators of four ranks, four DP communicators across them
// and two pipeline (send/recv) communicators. Every rank walks its own
// communicators in random order, runs ops there as state logs with random
// stall times, completes most of them, and sometimes skips an op, so the
// groups end at different seqs and every edge kind shows up.
func interleavingProgram(rng *rand.Rand) [][]trace.Record {
	const world = 16
	perRank := make([][]trace.Record, world)
	for r := range perRank {
		comms := []uint64{100 + uint64(r/4), 200 + uint64(r%4), 300 + uint64(r%2)}
		seq := map[uint64]uint64{}
		at := sim.Time(0)
		for op := rng.Intn(30); op < 40; op++ {
			comm := comms[rng.Intn(len(comms))]
			seq[comm] += 1 + uint64(rng.Intn(4)/3)
			for n := rng.Intn(4); n >= 0; n-- {
				at = at.Add(time.Duration(rng.Intn(3)) * time.Millisecond)
				rec := state(topo.Rank(r), comm, seq[comm], at, time.Duration(rng.Intn(4))*time.Second)
				if comm >= 300 {
					rec = sendrecv(rec)
				}
				perRank[r] = append(perRank[r], rec)
			}
			if rng.Intn(10) < 7 {
				at = at.Add(time.Millisecond)
				rec := completion(topo.Rank(r), comm, seq[comm], at)
				if comm >= 300 {
					rec = sendrecv(rec)
				}
				perRank[r] = append(perRank[r], rec)
			}
		}
	}
	return perRank
}

// interleave merges the ranks' sequences in a random cross-rank order that
// keeps each rank's own.
func interleave(rng *rand.Rand, perRank [][]trace.Record) []trace.Record {
	next := make([]int, len(perRank))
	var out []trace.Record
	for {
		var live []int
		for r, recs := range perRank {
			if next[r] < len(recs) {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			return out
		}
		r := live[rng.Intn(len(live))]
		for n := 1 + rng.Intn(6); n > 0 && next[r] < len(perRank[r]); n-- {
			out = append(out, perRank[r][next[r]])
			next[r]++
		}
	}
}

// transcript answers every query the graph offers, one line each.
func transcript(g *Graph, end sim.Time) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	comms := g.Comms()
	add("Comms %v", comms)
	windows := [][2]sim.Time{{0, end}, {end / 2, end}, {end - sim.Time(5*time.Millisecond), end}, {end / 4, end / 2}}
	for r := topo.Rank(-1); r <= 17; r++ {
		for _, ex := range append([]uint64{0}, comms...) {
			for _, w := range windows {
				c, ok := g.StuckComm(r, ex, w[0], w[1])
				add("StuckComm(%d, %d, %v) = %d %v", r, ex, w, c, ok)
				c, ok = g.StuckCommDuring(r, w[0], w[1], ex)
				add("StuckCommDuring(%d, %v, %d) = %d %v", r, w, ex, c, ok)
			}
		}
		for _, c := range comms {
			add("FrontierOp(%d, %d) = %v; HopKind %v", r, c, g.FrontierOp(r, c), g.HopKind(r, c))
		}
		add("Victims(%d) = %v", r, g.Victims(r))
		f, ok := g.Rank(r)
		add("Rank(%d) = %+v %v", r, f, ok)
	}
	for _, c := range append([]uint64{0}, comms...) {
		add("Members(%d) = %v", c, g.Members(c))
		add("Edges(%d) = %+v", c, g.Edges(c))
	}
	add("DOT %s", g.DOT())
	return out
}

// TestInterleavingInvariance: the graph is a function of each rank's record
// sequence alone. The same records, fed in two cross-rank interleavings that
// each keep every rank's order (one batch at a time, one record at a time),
// give identical StuckComm, StuckCommDuring, FrontierOp, Edges, Victims,
// Members, Rank and DOT answers.
func TestInterleavingInvariance(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perRank := interleavingProgram(rng)
		var end sim.Time
		for _, recs := range perRank {
			if n := len(recs); n > 0 {
				end = max(end, recs[n-1].Time)
			}
		}

		a, b := New(), New()
		for recs := interleave(rng, perRank); len(recs) > 0; {
			n := min(len(recs), 1+rng.Intn(24))
			a.ObserveBatch(recs[:n])
			recs = recs[n:]
		}
		for _, rec := range interleave(rng, perRank) {
			b.Observe(rec)
		}
		if a.Records() != b.Records() {
			t.Fatalf("seed %d: %d records against %d", seed, a.Records(), b.Records())
		}
		ta, tb := transcript(a, end), transcript(b, end)
		if len(ta) != len(tb) {
			t.Fatalf("seed %d: %d answers against %d", seed, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("seed %d: the interleavings disagree:\n%s\n%s", seed, ta[i], tb[i])
			}
		}
		if edges := a.Edges(0); len(edges) == 0 {
			t.Fatalf("seed %d: the program left no edge to compare", seed)
		}
	}
}

// TestEdgesAllocs: a dependency query appends every communicator's edges
// into one slice, so the allocations it makes are that slice's growth and
// the sorted comm list, not a few per communicator. The 256-rank graph has
// 32 TP groups of 8 with one rank behind (barrier edges plus a nested hop
// each) and 8 DP rings of 32 all stalled on one op (ring coupling edges).
func TestEdgesAllocs(t *testing.T) {
	g := New()
	for r := topo.Rank(0); r < 256; r++ {
		tp, dp := 1+uint64(r/8), 101+uint64(r%8)
		if r%8 == 0 {
			g.Observe(completion(r, tp, 4, sec(4)))
		} else {
			g.Observe(state(r, tp, 5, sec(10), 2*time.Second))
		}
		g.Observe(state(r, dp, 9, sec(11), time.Duration(1+r)*time.Millisecond))
	}
	edges := g.Edges(0)
	if len(edges) != 32*7+32+8*31 {
		t.Fatalf("%d edges, want %d", len(edges), 32*7+32+8*31)
	}
	n := testing.AllocsPerRun(20, func() { g.Edges(0) })
	t.Logf("%v mallocs per Edges(0)", n)
	if n > 16 {
		t.Fatalf("Edges made %v mallocs, want at most 16", n)
	}
}
