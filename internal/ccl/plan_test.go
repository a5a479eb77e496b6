package ccl

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// samePlan compares two plans field by field (links by identity).
func samePlan(a, b []chanPlan) bool {
	return slices.EqualFunc(a, b, func(x, y chanPlan) bool {
		return x.ch == y.ch && x.qpid == y.qpid && x.link == y.link && x.peer == y.peer &&
			x.depOffset == y.depOffset && x.expectRecv == y.expectRecv && slices.Equal(x.sends, y.sends)
	})
}

// everyShape lists one spec per op kind and, for the rooted and paired kinds,
// per root and per ordered pair, at a size that is not a whole number of
// chunks on either channel count.
func everyShape(R int) []OpSpec {
	const bytes = 5<<20 + 777
	specs := []OpSpec{
		{Kind: trace.OpAllReduce, Bytes: bytes},
		{Kind: trace.OpAllGather, Bytes: bytes},
		{Kind: trace.OpReduceScatter, Bytes: bytes},
		{Kind: trace.OpAllToAll, Bytes: bytes},
		{Kind: trace.OpBarrier, Bytes: 64},
	}
	for root := 0; root < R; root++ {
		specs = append(specs, OpSpec{Kind: trace.OpBroadcast, Bytes: bytes, Root: root})
	}
	for src := 0; src < R; src++ {
		for dst := 0; dst < R; dst++ {
			if src != dst {
				specs = append(specs, OpSpec{Kind: trace.OpSendRecv, Bytes: bytes, Src: src, Dst: dst})
			}
		}
	}
	return specs
}

// TestCachedPlanMatchesFreshDerivation: whatever a communicator has planned
// and run, the plan it serves for a shape is the one derivePlan would work
// out now — no shape answers for another, and running ops leaves the shared
// plan as it was.
func TestCachedPlanMatchesFreshDerivation(t *testing.T) {
	for _, size := range []struct{ nodes, gpusPer int }{{1, 1}, {2, 1}, {3, 1}, {2, 4}} {
		for _, channels := range []int{1, 2} {
			e := newEnv(size.nodes, size.gpusPer)
			c := e.comm(Config{Channels: channels, ChunkBytes: 1 << 20})
			R := c.Size()
			specs := everyShape(R)
			// Twice over, so every shape is also served from the cache and
			// shapes alternate on the communicator.
			var ops []*Op
			for _, spec := range append(specs, specs...) {
				ops = append(ops, c.Submit(spec, nil))
			}
			if len(c.plans) != len(specs) {
				t.Fatalf("R=%d C=%d: %d plans cached for %d shapes", R, channels, len(c.plans), len(specs))
			}
			e.eng.RunFor(time.Minute)
			for i, op := range ops {
				if !op.Done() {
					t.Fatalf("R=%d C=%d: op %d (%+v) incomplete", R, channels, i, op.run.spec)
				}
			}
			for _, spec := range specs {
				cached, fresh := c.plan(spec), c.derivePlan(spec)
				if len(cached) != R*channels || !samePlan(cached, fresh) {
					t.Errorf("R=%d C=%d %+v:\ncached %+v\nfresh  %+v", R, channels, spec, cached, fresh)
				}
				// The shape's chunk list exists once: every sender shares it.
				var shared *int64
				for _, p := range cached {
					if len(p.sends) == 0 {
						continue
					}
					if shared == nil {
						shared = &p.sends[0]
					}
					if &p.sends[0] != shared {
						t.Errorf("R=%d C=%d %+v: channels hold separate copies of the chunk list", R, channels, spec)
					}
				}
			}
		}
	}
}

// TestInterleavedShapesKeepTheirPlans is a pipeline communicator's traffic:
// SendRecv pairs alternating on one communicator, each op filled from its own
// shape's plan.
func TestInterleavedShapesKeepTheirPlans(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{})
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {2, 1}, {1, 0}}
	var ops []*Op
	for iter := 0; iter < 3; iter++ {
		for _, p := range pairs {
			ops = append(ops, c.SendRecv(8<<20+1, p[0], p[1], nil))
		}
	}
	e.eng.RunFor(time.Minute)
	for k, op := range ops {
		p := pairs[k%len(pairs)]
		if !op.Done() {
			t.Fatalf("op %d incomplete", k)
		}
		fresh := c.derivePlan(op.run.spec)
		for i := range op.run.chans {
			cr := &op.run.chans[i]
			if !samePlan([]chanPlan{cr.chanPlan}, fresh[i:i+1]) {
				t.Fatalf("op %d (%d→%d) slot %d ran %+v, want %+v", k, p[0], p[1], i, cr.chanPlan, fresh[i])
			}
			rank := i / c.cfg.Channels
			wantSent, wantRecv := 0, 0
			if rank == p[0] {
				wantSent = len(cr.sends)
			}
			if rank == p[1] {
				wantRecv = cr.expectRecv
			}
			if cr.acked != wantSent || cr.delivered != wantRecv || (rank == p[0]) != (wantSent > 0) || (rank == p[1]) != (wantRecv > 0) {
				t.Fatalf("op %d (%d→%d) rank %d: acked %d delivered %d, want %d and %d", k, p[0], p[1], rank, cr.acked, cr.delivered, wantSent, wantRecv)
			}
		}
	}
}

// TestSkipDoesNotLeakIntoTheShape: a skipped rank's absence belongs to the op,
// not to the plan — the same shape submitted again has everyone in it.
func TestSkipDoesNotLeakIntoTheShape(t *testing.T) {
	e := newEnv(3, 1)
	c := e.comm(Config{Channels: 1})
	spec := OpSpec{Kind: trace.OpSendRecv, Bytes: 8 << 20, Src: 0, Dst: 1}
	before := c.derivePlan(spec)
	skipping := spec
	skipping.Skip = map[topo.Rank]bool{2: true}
	op0 := c.Submit(skipping, nil)
	op1 := c.Submit(spec, nil)
	e.eng.RunFor(time.Second)
	if !op0.Done() || !op1.Done() {
		t.Fatal("ops incomplete")
	}
	if _, ok := op0.RankDone(2); ok || op0.Snapshot(2) != nil {
		t.Error("the skipped rank has a share of the op it skipped")
	}
	if _, ok := op1.RankDone(2); !ok || len(op1.Snapshot(2)) != 1 {
		t.Error("the skip leaked: rank 2 has no share of the unskipped op")
	}
	if !samePlan(c.plan(spec), before) {
		t.Error("a skipping op changed its shape's plan")
	}

	// On a ring the skipped rank's predecessor has nobody to deliver to —
	// in that op only.
	ring := OpSpec{Kind: trace.OpAllReduce, Bytes: 8 << 20, Skip: map[topo.Rank]bool{2: true}}
	r0 := c.Submit(ring, nil).run
	ring.Skip = nil
	r1 := c.Submit(ring, nil).run
	pred := c.prevIdx[0][2]
	if r0.chans[pred].recv != nil {
		t.Error("a rank delivers to a peer that skipped the op")
	}
	if r1.chans[pred].recv != &r1.chans[2] {
		t.Error("the skip leaked: the unskipped op's ring is still cut")
	}
}

// TestSubmitSteadyStateAllocs: once a shape is planned, submitting and
// running it again costs the op's frame — a fixed number of mallocs however
// many ranks take part — and nothing at all when each handle is freed, so a
// spare frame is there to reuse. (Before plans were kept this was 9·R+3: 75
// at R=8.)
func TestSubmitSteadyStateAllocs(t *testing.T) {
	perOp := func(nodes, gpusPer int, free bool) float64 {
		e := newEnv(nodes, gpusPer)
		c := NewCommunicator(e.eng, 1, e.infos, Config{})
		R := c.Size()
		round := func() {
			ops := []*Op{
				c.AllReduce(32<<20, nil),
				c.SendRecv(8<<20, 0, R-1, nil),
				c.Broadcast(8<<20, 1, nil),
			}
			e.eng.RunFor(time.Second)
			for _, op := range ops {
				if !op.Done() {
					t.Fatalf("R=%d: %v incomplete", R, op.Meta().Kind)
				}
				if free {
					op.Free()
				}
			}
		}
		round() // plans each shape; the event queue and free lists reach their depth
		return testing.AllocsPerRun(5, round) / 3
	}
	for _, free := range []bool{false, true} {
		two, eight, sixteen := perOp(2, 1, free), perOp(2, 4, free), perOp(4, 4, free)
		if two != eight || eight != sixteen {
			t.Errorf("free=%v: mallocs per op grow with the communicator: %v at R=2, %v at R=8, %v at R=16", free, two, eight, sixteen)
		}
		if !free && eight > 3 {
			t.Errorf("%v mallocs per steady-state op, want the frame's 3 (op, rank slab, channel slab)", eight)
		}
		if free && eight != 0 {
			t.Errorf("%v mallocs per steady-state op with freed handles, want 0", eight)
		}
	}
}

// runOpSequence submits one fixed sequence of ops, 2 ms apart, on a 2-node ×
// 2-GPU communicator after fault has scheduled its faults, and returns every
// rank's records, each op's completion time, the engine's dispatch count and
// how many distinct frames the ops ran in. With free, each handle is freed
// once its op is Done, so later ops reuse frames; without, every handle is
// held to the end and no frame is reused. Every sixth op is a SendRecv that a
// bystander skips, so frames pass between ops with and without a skip.
func runOpSequence(t *testing.T, cfg Config, fault func(*env), free bool) (recs [][]trace.Record, doneAt []sim.Time, dispatched uint64, frames int) {
	t.Helper()
	e := newEnv(2, 2)
	c := e.comm(cfg)
	fault(e)
	specs := []OpSpec{
		{Kind: trace.OpAllReduce, Bytes: 24<<20 + 3},
		{Kind: trace.OpSendRecv, Bytes: 8 << 20, Src: 0, Dst: 3},
		{Kind: trace.OpSendRecv, Bytes: 8 << 20, Src: 1, Dst: 2, Skip: map[topo.Rank]bool{3: true}},
		{Kind: trace.OpBroadcast, Bytes: 12 << 20, Root: 1},
		{Kind: trace.OpAllGather, Bytes: 6 << 20},
		{Kind: trace.OpReduceScatter, Bytes: 16 << 20},
	}
	seen := make(map[*opRun]bool)
	var live []*Op
	for i := 0; i < 60; i++ {
		k := len(doneAt)
		doneAt = append(doneAt, 0)
		op := c.Submit(specs[i%len(specs)], func(at sim.Time) { doneAt[k] = at })
		seen[op.run] = true
		live = append(live, op)
		e.eng.RunFor(2 * time.Millisecond)
		if free {
			live = slices.DeleteFunc(live, func(op *Op) bool {
				if op.Done() {
					op.Free()
					return true
				}
				return false
			})
		}
	}
	e.eng.RunFor(time.Second)
	if slices.Contains(doneAt, 0) {
		t.Fatalf("free=%v: an op never completed: %v", free, doneAt)
	}
	for r := range c.Size() {
		recs = append(recs, *e.recs[topo.Rank(r)])
	}
	return recs, doneAt, e.eng.Dispatched(), len(seen)
}

// TestFrameReuseIsInvisible: freeing every handle, so that later ops run in
// reused frames, changes nothing a rank emits or the engine dispatches —
// through a NIC outage, a GPU hang, synchronous per-chunk overhead, and ops a
// rank skips.
func TestFrameReuseIsInvisible(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		name  string
		cfg   Config
		fault func(*env)
	}{
		{"healthy", Config{}, func(*env) {}},
		{"nic-down-up", Config{}, func(e *env) {
			e.eng.At(at(21), func() { e.nics[2].SetDown(true) })
			e.eng.At(at(63), func() { e.nics[2].SetDown(false) })
		}},
		{"gpu-hang-unhang", Config{}, func(e *env) {
			e.eng.At(at(33), func() { e.gpus[1].SetHang(true) })
			e.eng.At(at(79), func() { e.gpus[1].SetHang(false) })
		}},
		{"chunk-overhead", Config{ChunkOverhead: 3 * time.Microsecond}, func(*env) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heldRecs, heldDone, heldEvents, heldFrames := runOpSequence(t, tc.cfg, tc.fault, false)
			freedRecs, freedDone, freedEvents, freedFrames := runOpSequence(t, tc.cfg, tc.fault, true)
			if heldFrames != len(heldDone) || freedFrames > len(freedDone)/2 {
				t.Fatalf("%d ops ran in %d frames held and %d freed: frames were not reused", len(heldDone), heldFrames, freedFrames)
			}
			for r := range heldRecs {
				if !slices.Equal(heldRecs[r], freedRecs[r]) {
					t.Errorf("rank %d emitted %d records with held handles and %d with freed ones, or they differ", r, len(heldRecs[r]), len(freedRecs[r]))
				}
			}
			if !slices.Equal(heldDone, freedDone) || heldEvents != freedEvents {
				t.Errorf("held: %d events, done at %v\nfreed: %d events, done at %v", heldEvents, heldDone, freedEvents, freedDone)
			}
		})
	}
}

// TestFreeMisusePanics: a handle is freed once, and only once its op is done.
func TestFreeMisusePanics(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := newEnv(2, 1)
	c := e.comm(Config{})
	op := c.AllReduce(8<<20, nil)
	panics("freeing an op in flight", op.Free)
	e.eng.RunFor(time.Second)
	op.Free()
	panics("freeing a handle twice", op.Free)
}

// TestOpHandleSurvivesLaterOps: a caller may keep an *Op for as long as it
// likes; what the handle answers after completion does not change as the
// communicator moves on.
func TestOpHandleSurvivesLaterOps(t *testing.T) {
	e := newEnv(2, 2)
	c := e.comm(Config{})
	type answers struct {
		done               bool
		doneAt, startAt    sim.Time
		rankStart, rankEnd []sim.Time
		snaps              [][]ChanSnapshot
	}
	ask := func(op *Op) answers {
		a := answers{done: op.Done(), doneAt: op.DoneTime(), startAt: op.StartTime()}
		for _, r := range c.Ranks() {
			s, started := op.RankStart(r)
			d, done := op.RankDone(r)
			if !started || !done {
				t.Fatalf("rank %d: started %v done %v", r, started, done)
			}
			a.rankStart, a.rankEnd = append(a.rankStart, s), append(a.rankEnd, d)
			a.snaps = append(a.snaps, op.Snapshot(r))
		}
		return a
	}
	e.eng.RunFor(10 * time.Millisecond) // so the held op's times are not the zero time
	held := c.AllReduce(48<<20+5, nil)
	e.eng.RunFor(time.Second)
	want := ask(held)
	if !want.done || want.doneAt <= want.startAt || want.snaps[0][0].Acked == 0 {
		t.Fatalf("held op did not run: %+v", want)
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			c.AllReduce(48<<20+5, nil) // the held op's own shape
		} else {
			c.SendRecv(4<<20, i%4, (i+1)%4, nil)
		}
		e.eng.RunFor(time.Second)
	}
	if c.Pending() != 0 || c.NextSeq() != 101 {
		t.Fatalf("later ops did not drain: %d pending, next seq %d", c.Pending(), c.NextSeq())
	}
	if got := ask(held); !reflect.DeepEqual(got, want) {
		t.Errorf("the held op answers differently after 100 later ops:\n got %+v\nwant %+v", got, want)
	}
	if m := held.Meta(); m.Seq != 0 || m.Bytes != 48<<20+5 {
		t.Errorf("held op's meta = %+v", m)
	}
}
