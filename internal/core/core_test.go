package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

func sec(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

type fixture struct {
	eng *sim.Engine
	db  *clouddb.DB
	b   *Backend
}

func newFixture(t *testing.T, sampled []topo.Rank, cfg Config) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	return &fixture{eng: eng, db: db, b: NewBackend(eng, db, sampled, cfg)}
}

func ipOf(r topo.Rank) topo.IP { return topo.IP("10.0.0." + string(rune('0'+int(r)))) }

func (f *fixture) completion(r topo.Rank, comm, seq uint64, start, end sim.Time, bytes int64) {
	f.db.Ingest([]trace.Record{{
		Kind: trace.KindCompletion, Time: end, IP: ipOf(r), CommID: comm, Rank: r,
		Op: trace.OpAllReduce, OpSeq: seq, MsgSize: bytes, Start: start, End: end,
	}})
}

func (f *fixture) state(r topo.Rank, comm, seq uint64, at sim.Time, ch int32, total, ready, tx, done uint32, stuck time.Duration) {
	f.db.Ingest([]trace.Record{{
		Kind: trace.KindState, Time: at, IP: ipOf(r), CommID: comm, Rank: r,
		Op: trace.OpAllReduce, OpSeq: seq, MsgSize: 1 << 30, Channel: ch,
		TotalChunks: total, GPUReady: ready, RDMATransmitted: tx, RDMADone: done,
		StuckNs: int64(stuck),
	}})
}

func TestSampleRanksCoversDPGroups(t *testing.T) {
	cl := topo.MustNew(topo.Config{Nodes: 4, GPUsPerNode: 8, TP: 2, PP: 4, DP: 4})
	dp := cl.DPGroups() // 8 groups
	s := SampleRanks(dp, 10)
	if len(s) != 8 {
		t.Fatalf("sampled %d ranks, want 8 (one per DP group)", len(s))
	}
	for i, g := range dp {
		found := false
		for _, r := range s {
			if g.Contains(r) {
				found = true
			}
		}
		if !found {
			t.Fatalf("DP group %d has no sampled rank", i)
		}
	}
}

func TestSampleRanksCap(t *testing.T) {
	cl := topo.MustNew(topo.Config{Nodes: 8, GPUsPerNode: 8, TP: 4, PP: 4, DP: 4})
	if got := SampleRanks(cl.DPGroups(), 10); len(got) != 10 {
		t.Fatalf("cap not applied: %d", len(got))
	}
	if got := SampleRanks(nil, 10); got != nil {
		t.Fatalf("no groups should sample nothing, got %v", got)
	}
}

func TestNoTriggerBeforeJobProducesLogs(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.b.Evaluate(sec(10))
	if len(f.b.Triggers()) != 0 {
		t.Fatal("triggered on silent pre-start rank")
	}
}

func TestFailureTriggerOnStall(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.eng.RunUntil(sec(1))
	f.completion(0, 7, 0, sec(0.2), sec(1), 1<<30)
	// Then only state logs: op 1 in flight, stuck.
	for i := 0; i < 10; i++ {
		f.state(0, 7, 1, sec(4+0.1*float64(i)), 0, 100, 10, 10, 10, time.Duration(float64(time.Second)*0.1*float64(i)))
	}
	f.b.Evaluate(sec(8)) // window (3,8]: states only
	trs := f.b.Triggers()
	if len(trs) != 1 || trs[0].Kind != TriggerFailure {
		t.Fatalf("triggers = %v", trs)
	}
	if trs[0].CommID != 7 || trs[0].Rank != 0 {
		t.Fatalf("trigger meta wrong: %+v", trs[0])
	}
	if trs[0].Reason != "no CollOp completed in window" {
		t.Fatalf("reason = %q, want the stalled rule's, not the silent one's", trs[0].Reason)
	}
}

// TestWindowOpenEdge: the window (t−Window, t] is open at its start, so a
// completion exactly Window before the pass is outside it.
func TestWindowOpenEdge(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.completion(0, 7, 0, sec(2.5), sec(3), 1<<30)
	f.b.Evaluate(sec(8))
	if trs := f.b.Triggers(); len(trs) != 1 || trs[0].Kind != TriggerFailure {
		t.Fatalf("triggers = %v, want the failure rule's", trs)
	}
}

func TestFailureTriggerOnTotalSilence(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.completion(0, 7, 0, sec(0.2), sec(0.5), 1<<30)
	f.b.Evaluate(sec(30)) // window (25,30]: nothing at all, but rank was seen before
	trs := f.b.Triggers()
	if len(trs) != 1 || trs[0].Kind != TriggerFailure {
		t.Fatalf("triggers = %v", trs)
	}
	if !strings.Contains(trs[0].Reason, "silent") {
		t.Fatalf("reason = %q", trs[0].Reason)
	}
}

// The Algorithm 1 tests evaluate each instant only once every record up to
// it is ingested, as the timer and replay do.

func TestNoFalseTriggerOnHealthyCadence(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	for i := 0; i < 30; i++ {
		ts := sec(float64(i))
		f.completion(0, 7, uint64(i), ts, ts.Add(200*time.Millisecond), 1<<30)
		if i >= 4 {
			f.b.Evaluate(sec(float64(i + 1)))
		}
	}
	if n := len(f.b.Triggers()); n != 0 {
		t.Fatalf("healthy run produced %d triggers: %v", n, f.b.Triggers())
	}
}

func TestStragglerTriggerOnThroughputDrop(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Warm baseline: 1 GiB per second-ish.
	seq := uint64(0)
	for i := 0; i < 10; i++ {
		ts := sec(float64(i))
		f.completion(0, 7, seq, ts, ts.Add(200*time.Millisecond), 1<<30)
		seq++
		if i >= 4 {
			f.b.Evaluate(sec(float64(i + 1)))
		}
	}
	if len(f.b.Triggers()) != 0 {
		t.Fatalf("premature trigger: %v", f.b.Triggers())
	}
	// Degrade: tiny ops (1/8 the bytes) at the same cadence.
	for i := 0; i < 10; i++ {
		ts := sec(float64(10 + i))
		f.completion(0, 7, seq, ts, ts.Add(200*time.Millisecond), 1<<27)
		seq++
		f.b.Evaluate(sec(float64(11 + i)))
	}
	trs := f.b.Triggers()
	if len(trs) != 1 || trs[0].Kind != TriggerStraggler {
		t.Fatalf("triggers = %v", trs)
	}
	if !strings.Contains(trs[0].Reason, "throughput") {
		t.Fatalf("reason = %q", trs[0].Reason)
	}
}

func TestStragglerTriggerOnIntervalGrowth(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	seq := uint64(0)
	// Baseline: completions every 1 s, 1 GiB each.
	for i := 0; i < 12; i++ {
		ts := sec(float64(i))
		f.completion(0, 7, seq, ts, ts.Add(100*time.Millisecond), 1<<30)
		seq++
		if i >= 4 {
			f.b.Evaluate(sec(float64(i + 1)))
		}
	}
	if len(f.b.Triggers()) != 0 {
		t.Fatalf("premature trigger: %v", f.b.Triggers())
	}
	// Slow phase: completions every 2.5 s. Message size scales with the gap
	// so windowed throughput stays at the baseline — only the interval rule
	// can fire.
	next := 0
	for ts := 13.0; ts <= 30; ts++ {
		for ; next < 6 && 14.6+2.5*float64(next) <= ts; next++ {
			at := sec(14.5 + 2.5*float64(next))
			f.completion(0, 7, seq, at, at.Add(100*time.Millisecond), 5<<29) // 2.5 GiB
			seq++
		}
		f.b.Evaluate(sec(ts))
	}
	trs := f.b.Triggers()
	if len(trs) == 0 || trs[0].Kind != TriggerStraggler {
		t.Fatalf("triggers = %v", trs)
	}
	if !strings.Contains(trs[0].Reason, "interval") {
		t.Fatalf("reason = %q", trs[0].Reason)
	}
}

// TestEvaluateAllocatesNothing: once its buffers have grown, an Algorithm 1
// pass over the sampled ranks allocates nothing — it reads the state kept at
// ingest, not a copy of each rank's window out of the store.
func TestEvaluateAllocatesNothing(t *testing.T) {
	sampled := []topo.Rank{0, 1, 2}
	f := newFixture(t, sampled, Config{})
	var seq uint64
	allocs := 0.0
	for s := 0; s < 40; s++ {
		for i := 0; i < 4; i++ {
			ts := sec(float64(s) + 0.25*float64(i))
			for _, r := range sampled {
				f.completion(r, 7, seq, ts, ts.Add(100*time.Millisecond), 1<<30)
			}
			seq++
		}
		now := sec(float64(s + 1))
		if s < 20 {
			f.b.Evaluate(now)
			continue
		}
		allocs += testing.AllocsPerRun(1, func() { f.b.Evaluate(now) })
	}
	if n := len(f.b.Triggers()); n != 0 {
		t.Fatalf("a steady cadence fired %d triggers: %v", n, f.b.Triggers())
	}
	if allocs != 0 {
		t.Fatalf("steady-state passes allocated %v times", allocs)
	}
}

func TestRearmMutesAfterTrigger(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{RearmDelay: 30 * time.Second})
	f.completion(0, 7, 0, sec(0.1), sec(0.2), 1<<30)
	f.state(0, 7, 1, sec(1), 0, 100, 5, 5, 5, 0)
	f.b.Evaluate(sec(8))
	f.b.Evaluate(sec(9))
	f.b.Evaluate(sec(10))
	if n := len(f.b.Triggers()); n != 1 {
		t.Fatalf("muting failed: %d triggers", n)
	}
	f.b.Evaluate(sec(39))
	if n := len(f.b.Triggers()); n != 2 {
		t.Fatalf("rearm failed: %d triggers", n)
	}
}

func TestStartStopTicker(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{Interval: time.Second})
	passes := 0
	f.b.SetEvalObserver(func(sim.Time) { passes++ })
	f.b.Start()
	f.eng.RunFor(5 * time.Second)
	if passes != 5 {
		t.Fatalf("evaluations = %d, want 5", passes)
	}
	f.b.Stop()
	f.eng.RunFor(5 * time.Second)
	if passes != 5 {
		t.Fatal("ticker survived Stop")
	}
	func() {
		defer func() { recover() }()
		f.b.Start()
		f.b.Start()
		t.Fatal("double Start did not panic")
	}()
}

func TestEmptySampledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty sampled did not panic")
		}
	}()
	NewBackend(sim.NewEngine(1), clouddb.New(sim.NewEngine(1), 0), nil, Config{})
}

// TestBackendAfterFirstRecordPanics: a backend is wired before its store's
// first record, so its dependency graph sees every record.
func TestBackendAfterFirstRecordPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	db.Ingest([]trace.Record{{Kind: trace.KindState, Time: 1, IP: ipOf(0), CommID: 7}})
	defer func() {
		if r := recover(); r != "core: store already holds 1 ingested records" {
			t.Errorf("panic = %v, want the stored-records refusal", r)
		}
	}()
	NewBackend(eng, db, []topo.Rank{0}, Config{})
}

// --- Algorithm 2: failure analysis ---

func stuckTrigger(f *fixture, comm uint64) Trigger {
	return Trigger{Kind: TriggerFailure, Rank: 0, IP: ipOf(0), At: f.eng.Now(), CommID: comm}
}

func TestRCANetworkSendPath(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.eng.RunUntil(sec(10))
	// 4 ranks on comm 7, all op seq 1. Rank 2 stalled first with outstanding
	// WRs; others are dependency-starved victims with shorter stuck times.
	for r := topo.Rank(0); r < 4; r++ {
		if r == 2 {
			f.state(r, 7, 1, sec(10), 0, 100, 24, 24, 20, 5*time.Second)
		} else {
			f.state(r, 7, 1, sec(10), 0, 100, 28, 24, 24, 4*time.Second)
		}
	}
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if rep.Suspect != 2 || rep.Category != CatNetworkSendPath || rep.Via != ViaMinData {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SuspectIP != ipOf(2) {
		t.Fatalf("suspect IP = %v", rep.SuspectIP)
	}
}

func TestRCAGPUHang(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.eng.RunUntil(sec(10))
	for r := topo.Rank(0); r < 4; r++ {
		if r == 1 {
			// staged == posted == acked < total: GPU stopped feeding.
			f.state(r, 7, 1, sec(10), 0, 100, 30, 30, 30, 5*time.Second)
		} else {
			f.state(r, 7, 1, sec(10), 0, 100, 34, 30, 30, 4*time.Second)
		}
	}
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if rep.Suspect != 1 || rep.Category != CatGPUHang {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRCASilentProxy(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Rank 3's last state log is stale; peers log freshly at t=10.
	f.state(3, 7, 1, sec(4), 0, 100, 10, 10, 10, 100*time.Millisecond)
	f.eng.RunUntil(sec(10))
	for r := topo.Rank(0); r < 3; r++ {
		f.state(r, 7, 1, sec(10), 0, 100, 20, 20, 20, 4*time.Second)
	}
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if rep.Suspect != 3 || rep.Category != CatProxyCrash || rep.Via != ViaSilentProxy {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRCAMinOpNotLaunched(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Rank 1 completed seq 4 and went quiet; others show seq 5 in flight.
	f.completion(1, 7, 4, sec(3), sec(4), 1<<30)
	f.eng.RunUntil(sec(10))
	for _, r := range []topo.Rank{0, 2, 3} {
		f.state(r, 7, 5, sec(10), 0, 100, 10, 10, 10, 4*time.Second)
	}
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if rep.Suspect != 1 || rep.Category != CatNotLaunched || rep.Via != ViaMinOp {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRCAChainAndVictims(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Comm 7 (DP): rank 1 finished seq 4, peers stuck at 5 → rank 1 lags.
	f.completion(1, 7, 4, sec(3), sec(4), 1<<30)
	f.eng.RunUntil(sec(10))
	for _, r := range []topo.Rank{0, 2, 3} {
		f.state(r, 7, 5, sec(10), 0, 100, 10, 10, 10, 4*time.Second)
	}
	// Comm 9 (rank 1's TP group): the true root cause; rank 5 is a victim.
	f.state(1, 9, 2, sec(10), 0, 50, 12, 12, 8, 5*time.Second)
	f.state(5, 9, 2, sec(10), 0, 50, 16, 12, 12, 4*time.Second)
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))

	if len(rep.Chain) != 2 {
		t.Fatalf("chain = %+v", rep.Chain)
	}
	if rep.Chain[0] != (Hop{Comm: 7, Suspect: 1, Via: ViaMinOp, Edge: "nested-comm"}) {
		t.Fatalf("hop 0 = %+v", rep.Chain[0])
	}
	if rep.Chain[1] != (Hop{Comm: 9, Suspect: 1, Via: ViaMinData}) {
		t.Fatalf("hop 1 = %+v", rep.Chain[1])
	}
	// Blast radius: DP peers 0,2,3 and TP peer 5 — every rank transitively
	// blocked by rank 1.
	want := []topo.Rank{0, 2, 3, 5}
	if len(rep.Victims) != len(want) {
		t.Fatalf("victims = %v, want %v", rep.Victims, want)
	}
	for i := range want {
		if rep.Victims[i] != want[i] {
			t.Fatalf("victims = %v, want %v", rep.Victims, want)
		}
	}
	if s := rep.String(); !strings.Contains(s, "chain") || !strings.Contains(s, "victims") {
		t.Fatalf("report string lacks chain/victims: %s", s)
	}
}

// TestRCACycleTerminates pins the chase's cycle guard: two communicators
// each blaming a rank that is visibly stuck inside the other must terminate
// via the visited set (and never exceed ChaseDepth).
func TestRCACycleTerminates(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Comm 7: rank 1 lags at a completion; peers in flight at 5.
	f.completion(1, 7, 4, sec(3), sec(4), 1<<30)
	// Comm 9: rank 2 lags at a completion; peers in flight at 3.
	f.completion(2, 9, 2, sec(3.5), sec(4.5), 1<<30)
	f.eng.RunUntil(sec(10))
	for _, r := range []topo.Rank{0, 3} {
		f.state(r, 7, 5, sec(10), 0, 100, 10, 10, 10, 4*time.Second)
	}
	// Rank 1 is stuck inside comm 9 → chase hops 7 → 9.
	f.state(1, 9, 3, sec(10), 0, 50, 12, 12, 12, 4*time.Second)
	// Comm 9's laggard (rank 2) is stuck inside comm 7 → the chase would hop
	// back to 7, which visited must refuse.
	f.state(2, 7, 5, sec(9.9), 0, 100, 10, 10, 10, 4*time.Second)

	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if len(rep.Chain) != 2 {
		t.Fatalf("cycle did not terminate after 2 hops: %+v", rep.Chain)
	}
	if rep.Chain[0].Comm != 7 || rep.Chain[1].Comm != 9 {
		t.Fatalf("chain = %+v", rep.Chain)
	}
	// The terminal verdict stands on comm 9 even though its suspect points
	// back into comm 7.
	if rep.CommID != 9 || rep.Suspect != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// The refused back-hop still records its edge kind: the trail was cut by
	// visited, not by a missing dependency.
	if rep.Chain[1].Edge != "nested-comm" {
		t.Fatalf("terminal hop edge = %q", rep.Chain[1].Edge)
	}
}

// TestRCACycleRespectsChaseDepth drives a longer chain than ChaseDepth
// allows and checks the bound.
func TestRCACycleRespectsChaseDepth(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{ChaseDepth: 2})
	f.eng.RunUntil(sec(10))
	// Comms 7→9→11→13: in each, rank (comm-6) lags via completion and is in
	// flight on the next comm.
	for _, c := range []uint64{7, 9, 11} {
		lag := topo.Rank(c - 6)
		f.completion(lag, c, 4, sec(3), sec(4), 1<<30)
	}
	f.db.Ingest([]trace.Record{
		{Kind: trace.KindState, Time: sec(10), IP: ipOf(0), CommID: 7, Rank: 0, Op: trace.OpAllReduce, OpSeq: 5, TotalChunks: 100, GPUReady: 10, RDMATransmitted: 10, RDMADone: 10, StuckNs: int64(4 * time.Second)},
		{Kind: trace.KindState, Time: sec(10), IP: ipOf(1), CommID: 9, Rank: 1, Op: trace.OpAllReduce, OpSeq: 5, TotalChunks: 100, GPUReady: 10, RDMATransmitted: 10, RDMADone: 10, StuckNs: int64(4 * time.Second)},
		{Kind: trace.KindState, Time: sec(10), IP: ipOf(3), CommID: 11, Rank: 3, Op: trace.OpAllReduce, OpSeq: 5, TotalChunks: 100, GPUReady: 10, RDMATransmitted: 10, RDMADone: 10, StuckNs: int64(4 * time.Second)},
		{Kind: trace.KindState, Time: sec(10), IP: ipOf(5), CommID: 13, Rank: 5, Op: trace.OpAllReduce, OpSeq: 5, TotalChunks: 100, GPUReady: 10, RDMATransmitted: 10, RDMADone: 8, StuckNs: int64(5 * time.Second)},
	})
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if len(rep.Chain) > 2 {
		t.Fatalf("ChaseDepth 2 exceeded: %+v", rep.Chain)
	}
}

// TestStragglerTieBreakDeterministic is the regression for the lateRanks
// ordering: two ranks with identical late counts must always convict the
// lower rank, run after run.
func TestStragglerTieBreakDeterministic(t *testing.T) {
	for run := 0; run < 20; run++ {
		f := newFixture(t, []topo.Rank{0}, Config{StragglerLate: time.Second, LateCount: 3})
		// 4 ranks, 6 iterations; ranks 1 and 3 both start 2 s late every time.
		for i := 0; i < 6; i++ {
			base := sec(float64(3 * i))
			for r := topo.Rank(0); r < 4; r++ {
				start := base
				if r == 1 || r == 3 {
					start = base.Add(2 * time.Second)
				}
				f.completion(r, 7, uint64(i), start, start.Add(500*time.Millisecond), 1<<30)
			}
		}
		f.eng.RunUntil(sec(18))
		tr := Trigger{Kind: TriggerStraggler, Rank: 0, IP: ipOf(0), At: sec(18), CommID: 7}
		rep := f.b.AnalyzeStraggler(tr)
		if rep.Suspect != 1 {
			t.Fatalf("run %d: suspect = %d, want 1 (deterministic tie-break)", run, rep.Suspect)
		}
	}
}

// TestStragglerPicks pins the straggler analysis's choices where several
// members qualify, or none does: the lowest rank wins a tie, a sub-quorum
// late start whose chase finds no suspect leaves the verdict to flow
// pressure, and a member without state snapshots of an active flow is never
// pressured.
func TestStragglerPicks(t *testing.T) {
	// lateStarts logs ops 0..n-1 on comm 7 for ranks 0–3, 4 s apart from
	// 1 s on, with each rank in late starting them 2 s late.
	lateStarts := func(f *fixture, n int, late ...topo.Rank) {
		for i := 0; i < n; i++ {
			for r := topo.Rank(0); r < 4; r++ {
				start := sec(float64(1 + 4*i))
				if slices.Contains(late, r) {
					start = start.Add(2 * time.Second)
				}
				f.completion(r, 7, uint64(i), start, start.Add(500*time.Millisecond), 1<<30)
			}
		}
	}
	// snapshots logs ten state snapshots per rank on comm 7 from 10 s on:
	// NIC-bound (outstanding WRs) for the ranks in nic, neither bound for
	// the rest.
	snapshots := func(f *fixture, nic ...topo.Rank) {
		for i := 0; i < 10; i++ {
			ts := sec(10 + 0.1*float64(i))
			for r := topo.Rank(0); r < 4; r++ {
				if slices.Contains(nic, r) {
					f.state(r, 7, 9, ts, 0, 100, uint32(10+i), uint32(10+i), uint32(8+i), 0)
				} else {
					f.state(r, 7, 9, ts, 0, 100, uint32(14+i), uint32(10+i), uint32(10+i), 0)
				}
			}
		}
	}
	for _, tc := range []struct {
		name    string
		setup   func(*testing.T, *fixture)
		suspect topo.Rank
		cat     Category
		via     Via
	}{
		{
			name:    "equal late counts convict the lower rank",
			setup:   func(_ *testing.T, f *fixture) { lateStarts(f, 6, 3, 1) },
			suspect: 1, cat: CatComputeStraggler, via: ViaLateStart,
		},
		{
			name: "a sub-quorum chase that names no one falls through to flow pressure",
			setup: func(t *testing.T, f *fixture) {
				// Rank 2 starts op 1 late (one late op: under quorum) while
				// it is busy on comm 9, where no member shows a pattern.
				f.completion(2, 7, 0, 0, sec(0.5), 1<<30)
				for i := 0; i < 3; i++ {
					f.state(2, 9, 1, sec(4.5+0.5*float64(i)), 0, 100, 14, 10, 10, 0)
					f.state(5, 9, 1, sec(4.5+0.5*float64(i)), 0, 100, 14, 10, 10, 0)
				}
				f.completion(2, 7, 1, sec(6), sec(6.5), 1<<30)
				for _, r := range []topo.Rank{0, 1, 3} {
					f.completion(r, 7, 0, 0, sec(0.5), 1<<30)
					f.completion(r, 7, 1, sec(4), sec(4.5), 1<<30)
				}
				snapshots(f, 3)
				if busy, ok := f.b.graph.StuckCommDuring(2, sec(4), sec(6), 7); !ok || busy != 9 {
					t.Fatalf("rank 2 is busy on comm %d (%v) while late, want 9", busy, ok)
				}
			},
			suspect: 3, cat: CatNetworkDegrade, via: ViaFlowPressure,
		},
		{
			name:    "equal NIC-bound shares pick the lower rank",
			setup:   func(_ *testing.T, f *fixture) { snapshots(f, 3, 1) },
			suspect: 1, cat: CatNetworkDegrade, via: ViaFlowPressure,
		},
		{
			name: "members with no state snapshots give no pressure verdict",
			setup: func(_ *testing.T, f *fixture) {
				lateStarts(f, 2)
				// Rank 2's only state logs name no active flow (no chunks).
				for i := 0; i < 10; i++ {
					f.state(2, 7, 9, sec(10+0.1*float64(i)), 0, 0, 0, 2, 1, 0)
				}
			},
			suspect: -1, cat: CatUnknown, via: ViaNone,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, []topo.Rank{0}, Config{StragglerLate: time.Second, LateCount: 3})
			tc.setup(t, f)
			f.eng.RunUntil(sec(12))
			rep := f.b.AnalyzeStraggler(Trigger{Kind: TriggerStraggler, Rank: 0, IP: ipOf(0), At: sec(12), CommID: 7})
			want := []Hop{{Comm: 7, Suspect: tc.suspect, Via: tc.via}}
			if rep.Suspect != tc.suspect || rep.Category != tc.cat || rep.Via != tc.via || !slices.Equal(rep.Chain, want) {
				t.Fatalf("report = %+v, want suspect %d (%s) via %s, chain %v", rep, tc.suspect, tc.cat, tc.via, want)
			}
		})
	}
}

func TestRCAChasesAcrossComms(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Comm 7 (DP): rank 1 finished seq 4, peers stuck at 5 → rank 1 lags.
	f.completion(1, 7, 4, sec(3), sec(4), 1<<30)
	// Comm 9 (rank 1's TP group): rank 1 is stuck with outstanding WRs —
	// the true root cause. Peer rank 5 is a victim.
	f.eng.RunUntil(sec(10))
	for _, r := range []topo.Rank{0, 2, 3} {
		f.state(r, 7, 5, sec(10), 0, 100, 10, 10, 10, 4*time.Second)
	}
	f.state(1, 9, 2, sec(10), 0, 50, 12, 12, 8, 5*time.Second)
	f.state(5, 9, 2, sec(10), 0, 50, 16, 12, 12, 4*time.Second)
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if rep.Suspect != 1 || rep.Category != CatNetworkSendPath {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CommID != 9 {
		t.Fatalf("chase did not land on comm 9: %+v", rep)
	}
}

func TestRCAMinOpStuckInComm(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	f.eng.RunUntil(sec(10))
	// Rank 2's last record is a fresh state log at seq 4 while others are at
	// seq 5: it is behind AND visibly stuck inside this comm.
	f.state(2, 7, 4, sec(10), 0, 100, 24, 24, 20, 5*time.Second)
	for _, r := range []topo.Rank{0, 1, 3} {
		f.state(r, 7, 5, sec(10), 0, 100, 10, 10, 10, time.Second)
	}
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 7))
	if rep.Suspect != 2 || rep.Via != ViaMinOp || rep.Category != CatNetworkSendPath {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRCAUnknownOnNoLogs(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	rep := f.b.AnalyzeFailure(stuckTrigger(f, 77))
	if rep.Category != CatUnknown || rep.Suspect != -1 {
		t.Fatalf("report = %+v", rep)
	}
}

// --- Algorithm 2: straggler analysis ---

func TestStragglerLateStart(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{StragglerLate: time.Second, LateCount: 3})
	// 4 ranks, 5 iterations 4 s apart; rank 2 starts 2 s late every time.
	for i := 0; i < 5; i++ {
		base := sec(float64(4 * i))
		for r := topo.Rank(0); r < 4; r++ {
			start := base
			if r == 2 {
				start = base.Add(2 * time.Second)
			}
			f.completion(r, 7, uint64(i), start, start.Add(500*time.Millisecond), 1<<30)
		}
	}
	f.eng.RunUntil(sec(20))
	tr := Trigger{Kind: TriggerStraggler, Rank: 0, IP: ipOf(0), At: sec(20), CommID: 7}
	rep := f.b.AnalyzeStraggler(tr)
	if rep.Suspect != 2 || rep.Category != CatComputeStraggler || rep.Via != ViaLateStart {
		t.Fatalf("report = %+v", rep)
	}
}

func TestStragglerFlowPressureNIC(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// No late starts; rank 3's flows show outstanding WRs in every snapshot.
	for i := 0; i < 10; i++ {
		ts := sec(1 + 0.1*float64(i))
		for r := topo.Rank(0); r < 4; r++ {
			if r == 3 {
				f.state(r, 7, 1, ts, 0, 100, uint32(10+i), uint32(10+i), uint32(8+i), 0)
			} else {
				f.state(r, 7, 1, ts, 0, 100, uint32(14+i), uint32(10+i), uint32(10+i), 0)
			}
		}
	}
	f.eng.RunUntil(sec(3))
	tr := Trigger{Kind: TriggerStraggler, Rank: 0, IP: ipOf(0), At: sec(3), CommID: 7}
	rep := f.b.AnalyzeStraggler(tr)
	if rep.Suspect != 3 || rep.Category != CatNetworkDegrade || rep.Via != ViaFlowPressure {
		t.Fatalf("report = %+v", rep)
	}
}

func TestStragglerFlowPressurePCIe(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	// Rank 1 staging-bound (buffer empty), others buffer-full victims, and
	// nobody shows outstanding WRs.
	for i := 0; i < 10; i++ {
		ts := sec(1 + 0.1*float64(i))
		for r := topo.Rank(0); r < 4; r++ {
			if r == 1 {
				f.state(r, 7, 1, ts, 0, 100, uint32(10+i), uint32(10+i), uint32(10+i), 0)
			} else {
				f.state(r, 7, 1, ts, 0, 100, uint32(14+i), uint32(10+i), uint32(10+i), 0)
			}
		}
	}
	f.eng.RunUntil(sec(3))
	tr := Trigger{Kind: TriggerStraggler, Rank: 0, IP: ipOf(0), At: sec(3), CommID: 7}
	rep := f.b.AnalyzeStraggler(tr)
	if rep.Suspect != 1 || rep.Category != CatPCIeDegrade || rep.Via != ViaFlowPressure {
		t.Fatalf("report = %+v", rep)
	}
}

func TestStragglerNoLogs(t *testing.T) {
	f := newFixture(t, []topo.Rank{0}, Config{})
	tr := Trigger{Kind: TriggerStraggler, Rank: 0, At: 0, CommID: 55}
	rep := f.b.AnalyzeStraggler(tr)
	if rep.Suspect != -1 || rep.Category != CatUnknown {
		t.Fatalf("report = %+v", rep)
	}
}

func TestStringers(t *testing.T) {
	tr := Trigger{Kind: TriggerFailure, Rank: 3, IP: "10.0.0.3", At: sec(1), CommID: 7, Reason: "x"}
	if tr.String() == "" || TriggerStraggler.String() != "straggler" || TriggerKind(9).String() == "" {
		t.Fatal("stringers broken")
	}
	rep := Report{Trigger: tr, Suspect: 3, Category: CatGPUHang, Via: ViaMinData}
	if rep.String() == "" {
		t.Fatal("report stringer broken")
	}
}
