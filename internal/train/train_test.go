package train

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/collector"
	"mycroft/internal/pystack"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// smallCfg is a 2-node × 4-GPU job (TP=2, PP=2, DP=2) with quick iterations.
func smallCfg() Config {
	return Config{
		Topo:            topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		LayersPerStage:  2,
		ComputePerLayer: 50 * time.Millisecond,
		TPBytesPerLayer: 16 << 20,
		PPBytes:         8 << 20,
		DPBytes:         64 << 20,
		DataloaderDelay: 10 * time.Millisecond,
		Collector:       collector.Config{DrainPeriod: 50 * time.Millisecond, UploadLatency: 200 * time.Millisecond},
	}
}

func TestIterationsComplete(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(30 * time.Second)
	n := j.IterationsDone()
	if n < 5 {
		t.Fatalf("only %d iterations in 30s", n)
	}
	s, e, ok := j.IterationTime(0)
	if !ok || e <= s {
		t.Fatalf("iteration 0 times: %v %v %v", s, e, ok)
	}
	if mean, ok := j.MeanIterationTime(n); !ok || mean <= 0 {
		t.Fatalf("mean iteration time: %v %v", mean, ok)
	}
}

func TestIterationTimesMonotone(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	var ends []sim.Time
	j.OnIteration = func(i int, start, end sim.Time) { ends = append(ends, end) }
	j.Start()
	eng.RunFor(20 * time.Second)
	if len(ends) < 3 {
		t.Fatalf("too few iterations: %d", len(ends))
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("iteration ends not monotone: %v", ends)
		}
	}
}

// TestDoneRanksBounded: the per-iteration count of finished ranks is dropped
// once every rank has finished that iteration, so after 120 virtual-s it
// holds only the iterations some rank is still inside, while every past
// iteration keeps its start and end.
func TestDoneRanksBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(120 * time.Second)
	lo, hi := j.IterationsDone(), slices.Max(j.iterDone)
	if lo < 20 {
		t.Fatalf("only %d iterations in 120s", lo)
	}
	for i, n := range j.doneRanks {
		if i < lo || i >= hi || n <= 0 || n >= j.Cluster.WorldSize() {
			t.Errorf("doneRanks[%d] = %d kept; only iterations in [%d, %d) are in flight", i, n, lo, hi)
		}
	}
	for i := 0; i < lo; i++ {
		if s, e, ok := j.IterationTime(i); !ok || e <= s {
			t.Fatalf("iteration %d times: %v %v %v", i, s, e, ok)
		}
	}
}

func TestTraceRecordsReachDB(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(15 * time.Second)
	if j.DB.Ingested() == 0 {
		t.Fatal("no records reached the cloud DB")
	}
	// Every rank must have produced completion logs on its DP comm.
	for r := 0; r < j.Cluster.WorldSize(); r++ {
		recs := j.DB.Query(clouddb.Query{Ranks: []topo.Rank{topo.Rank(r)}, To: eng.Now()}).Records
		var completions, states int
		for _, rec := range recs {
			switch rec.Kind {
			case trace.KindCompletion:
				completions++
			case trace.KindState:
				states++
			}
		}
		if completions == 0 {
			t.Fatalf("rank %d has no completion logs", r)
		}
		if states == 0 {
			t.Fatalf("rank %d has no state logs", r)
		}
	}
}

func TestDPBusBandwidthSane(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(20 * time.Second)
	bw, ok := j.DPBusBandwidth()
	if !ok {
		t.Fatal("no DP bandwidth measured")
	}
	// Must be positive and below NIC line rate (50 GB/s).
	if bw <= 0 || bw > 50e9 {
		t.Fatalf("bus bandwidth %.3g B/s out of range", bw)
	}
}

func TestFlightRecorderSeesLaunches(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(10 * time.Second)
	if len(j.FlightRec.Ranks()) != j.Cluster.WorldSize() {
		t.Fatalf("flight recorder covers %d ranks", len(j.FlightRec.Ranks()))
	}
	if fs := j.FlightRec.Analyze(eng.Now(), 5*time.Second); len(fs) != 0 {
		t.Fatalf("healthy job produced findings: %v", fs)
	}
}

func TestPyStackFramesMove(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(5 * time.Second)
	stacks := j.PyStack.Dump()
	if len(stacks) != j.Cluster.WorldSize() {
		t.Fatalf("stacks for %d ranks", len(stacks))
	}
}

func TestDataloaderStallFreezesRank(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(5 * time.Second)
	before := j.IterationsDone()
	j.StallDataloader(2)
	eng.RunFor(20 * time.Second)
	if got := j.IterationsDone(); got > before+2 {
		t.Fatalf("job progressed %d iterations past a dataloader stall", got-before)
	}
	a := pystack.Analyze(j.PyStack.Dump())
	stuck := a.StuckInDataPath()
	if len(stuck) != 1 || stuck[0].Rank != 2 {
		t.Fatalf("py-spy outliers = %+v", stuck)
	}
}

func TestComputeHangFreezesRank(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(5 * time.Second)
	j.StallCompute(1)
	eng.RunFor(20 * time.Second)
	// Rank 1 must stop completing ops; its TP peer blocks with it.
	recs := j.DB.Query(clouddb.Query{Ranks: []topo.Rank{1}, From: eng.Now().Add(-5 * time.Second), To: eng.Now()}).Records
	for _, rec := range recs {
		if rec.Kind == trace.KindCompletion {
			t.Fatalf("hung rank still completing ops: %+v", rec)
		}
	}
}

func TestSyncMismatchShowsInFlightRecorder(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(5 * time.Second)
	j.SkipNextDPLaunch(3)
	eng.RunFor(25 * time.Second)
	findings := j.FlightRec.Analyze(eng.Now(), 5*time.Second)
	if len(findings) == 0 {
		t.Fatal("flight recorder found nothing after a skipped launch")
	}
	found := false
	for _, f := range findings {
		if f.Kind == "launch-ahead" {
			for _, r := range f.Ranks {
				if r == 3 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("rank 3 not identified as running ahead: %+v", findings)
	}
}

func TestProxyCrashStopsRankLogs(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(5 * time.Second)
	j.CrashProxy(2)
	eng.RunFor(2 * time.Second) // let in-flight uploads land
	mark := eng.Now()
	eng.RunFor(10 * time.Second)
	if recs := j.DB.Query(clouddb.Query{Ranks: []topo.Rank{2}, From: mark, To: eng.Now()}).Records; len(recs) != 0 {
		t.Fatalf("crashed rank produced %d records", len(recs))
	}
}

func TestMasterExtraDelaysRankZero(t *testing.T) {
	cfg := smallCfg()
	cfg.MasterExtra = 200 * time.Millisecond
	eng := sim.NewEngine(1)
	j := MustNew(eng, cfg)
	j.Start()
	eng.RunFor(15 * time.Second)
	// Rank 0's TP all-reduce starts must trail its TP peer's.
	var start0, start1 sim.Time
	for _, rec := range j.DB.Query(clouddb.Query{Ranks: []topo.Rank{0}, To: eng.Now()}).Records {
		if rec.Kind == trace.KindCompletion && rec.CommID == j.TPComms[0].ID() {
			start0 = rec.Start
			break
		}
	}
	for _, rec := range j.DB.Query(clouddb.Query{Ranks: []topo.Rank{1}, To: eng.Now()}).Records {
		if rec.Kind == trace.KindCompletion && rec.CommID == j.TPComms[0].ID() {
			start1 = rec.Start
			break
		}
	}
	if start0 == 0 || start1 == 0 {
		t.Fatal("missing TP completion logs")
	}
	if start0.Sub(start1) < 150*time.Millisecond {
		t.Fatalf("master extra not visible: start0=%v start1=%v", start0, start1)
	}
}

func TestDisableTracingSilencesDB(t *testing.T) {
	cfg := smallCfg()
	cfg.DisableTracing = true
	eng := sim.NewEngine(1)
	j := MustNew(eng, cfg)
	j.Start()
	eng.RunFor(10 * time.Second)
	if j.DB.Ingested() != 0 {
		t.Fatalf("tracing disabled but %d records ingested", j.DB.Ingested())
	}
	if j.IterationsDone() < 2 {
		t.Fatal("job did not progress with tracing disabled")
	}
}

func TestStopHaltsEverything(t *testing.T) {
	eng := sim.NewEngine(1)
	j := MustNew(eng, smallCfg())
	j.Start()
	eng.RunFor(5 * time.Second)
	j.Stop()
	n := j.IterationsDone()
	eng.RunFor(10 * time.Second)
	if j.IterationsDone() > n+1 {
		t.Fatal("iterations continued after Stop")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, uint64) {
		eng := sim.NewEngine(7)
		j := MustNew(eng, smallCfg())
		j.Start()
		eng.RunFor(15 * time.Second)
		return j.IterationsDone(), j.DB.Ingested()
	}
	i1, r1 := run()
	i2, r2 := run()
	if i1 != i2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", i1, r1, i2, r2)
	}
}

// TestCompletedOpsReleased: a communicator and its await state hold the ops
// in flight, not every op the job ever ran — and releasing them changes
// nothing the job computes. The iterations, bus bandwidth and records are
// what the job read while it kept every op, for the same seed and config. The
// event count is what it reads with one state-log ticker per communicator and
// no event of its own for a transmission.
func TestCompletedOpsReleased(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := smallCfg()
	cfg.Topo = topo.Config{Nodes: 2, GPUsPerNode: 8, TP: 2, PP: 2, DP: 4}
	j := MustNew(eng, cfg)
	j.Start()
	states := map[*commState]bool{}
	for _, rd := range j.ranks {
		states[rd.tp.commState], states[rd.pp.commState], states[rd.dp.commState] = true, true, true
	}
	// retained is the most ops, await entries and parked ranks any one
	// communicator held at a step boundary so far.
	var retained int
	observe := func() {
		for cs := range states {
			waiters := 0
			for _, p := range cs.pending {
				waiters += p.waiting
			}
			retained = max(retained, cs.comm.Pending(), len(cs.pending), waiters)
		}
	}
	var at10 int
	for j.IterationsDone() < 40 {
		eng.RunFor(100 * time.Millisecond)
		observe()
		if at10 == 0 && j.IterationsDone() >= 10 {
			at10 = retained
		}
	}
	// A rank's script awaits one op at a time, so a communicator holds the op
	// in flight, perhaps the next one a faster rank submitted, and at most a
	// parked rank per member (the DP groups have four).
	if retained > 4 {
		t.Errorf("a communicator retained %d ops/waiters, want a handful", retained)
	}
	if retained != at10 {
		t.Errorf("retention grew with iterations: %d after 10, %d after 40", at10, retained)
	}
	if now := eng.Now(); now != sim.Time(24500*time.Millisecond) {
		t.Errorf("40 iterations took %v, want 24.5s", now)
	}
	bw, _ := j.DPBusBandwidth()
	if n, recs := j.IterationsDone(), j.DB.Ingested(); n != 40 || bw != 8.727818525652646e+10 || recs != 8280 || eng.Dispatched() != 71998 {
		t.Errorf("iterations=%d bus bandwidth=%v records=%d events=%d, want 40, 8.727818525652646e+10, 8280, 71998",
			n, bw, recs, eng.Dispatched())
	}
}

// TestIterationAllocsFlat: an iteration submits the same ops with the same
// shapes as the one before, so once the first few have planned them and
// filled the free lists and spare op frames, an iteration allocates nothing.
// Tracing is off so the count is the substrate's alone (the store allocates a
// segment every 146 records, which is not per iteration).
func TestIterationAllocsFlat(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := smallCfg()
	cfg.Topo = topo.Config{Nodes: 2, GPUsPerNode: 8, TP: 2, PP: 2, DP: 4}
	cfg.DisableTracing = true
	j := MustNew(eng, cfg)
	// At the end of iteration i. Not a map: its overflow buckets depend on
	// the map's random hash seed, and would show in the count now and then.
	mallocsAt := make([]uint64, 64)
	j.OnIteration = func(i int, _, _ sim.Time) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if i < len(mallocsAt) {
			mallocsAt[i] = ms.Mallocs
		}
	}
	j.Start()
	for j.IterationsDone() < 41 {
		eng.RunFor(100 * time.Millisecond)
	}
	at10, at40 := mallocsAt[10]-mallocsAt[9], mallocsAt[40]-mallocsAt[39]
	if at10 != at40 {
		t.Errorf("iteration 10 cost %d mallocs, iteration 40 %d", at10, at40)
	}
	// Each of the 52 collectives an iteration runs in a reused frame, and the
	// rank scripts wait without a closure: 0. With a new frame per op it
	// was 156 (3 mallocs an op); with a continuation closure per wait as
	// well, 540; before plans and await entries were reused, 1,796.
	t.Logf("iteration 40 cost %d mallocs", at40)
	if at40 != 0 {
		t.Errorf("iteration 40 cost %d mallocs, want 0", at40)
	}
}

func TestBadTopoRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.Topo.TP = 3
	if _, err := New(sim.NewEngine(1), cfg); err == nil {
		t.Fatal("inconsistent topo accepted")
	}
}
