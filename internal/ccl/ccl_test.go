package ccl

import (
	"testing"
	"testing/quick"
	"time"

	"mycroft/internal/gpusim"
	"mycroft/internal/rdma"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// env is a small simulated cluster for CCL tests.
type env struct {
	eng   *sim.Engine
	infos []RankInfo
	nics  []*rdma.NIC
	gpus  []*gpusim.GPU
	recs  map[topo.Rank]*[]trace.Record
}

// newEnv builds nodes×gpusPer ranks. Ranks are laid out node-major.
func newEnv(nodes, gpusPer int) *env {
	e := &env{eng: sim.NewEngine(42), recs: make(map[topo.Rank]*[]trace.Record)}
	for n := 0; n < nodes; n++ {
		for g := 0; g < gpusPer; g++ {
			r := topo.Rank(n*gpusPer + g)
			nic := rdma.NewNIC(e.eng, rdma.NICID(r), "nic", rdma.DefaultNIC())
			gpu := gpusim.New(e.eng, gpusim.ID(r), gpusim.DefaultGPU())
			e.nics = append(e.nics, nic)
			e.gpus = append(e.gpus, gpu)
			e.infos = append(e.infos, RankInfo{
				Rank: r, IP: topo.IP("10.0.0." + string(rune('0'+n))), Node: topo.NodeID(n),
				GPU: gpu, NIC: nic,
			})
			recs := &[]trace.Record{}
			e.recs[r] = recs
		}
	}
	return e
}

func (e *env) sinkFor(r topo.Rank) trace.Sink {
	recs := e.recs[r]
	return trace.SinkFunc(func(rec trace.Record) { *recs = append(*recs, rec) })
}

func (e *env) comm(cfg Config) *Communicator {
	cfg.SinkFor = e.sinkFor
	return NewCommunicator(e.eng, 1, e.infos, cfg)
}

func TestAllReduceCompletes(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1, ChunkBytes: 4 << 20})
	var doneAt sim.Time
	op := c.AllReduce(400<<20, func(ts sim.Time) { doneAt = ts })
	e.eng.RunFor(time.Second)
	if !op.Done() {
		t.Fatal("allreduce did not complete")
	}
	// 4 cross-node ranks, 1 channel, ring allreduce of 400 MiB:
	// per rank sends 2(R-1)/R × 400 MiB = 600 MiB at 50 GB/s ≈ 12.6 ms.
	if doneAt < sim.Time(11*time.Millisecond) || doneAt > sim.Time(25*time.Millisecond) {
		t.Fatalf("completed at %v, want ≈12–20 ms", doneAt)
	}
	if op.DoneTime() != doneAt {
		t.Fatal("DoneTime mismatch")
	}
}

func TestAllReduceEmitsCompletionLogs(t *testing.T) {
	e := newEnv(2, 2)
	c := e.comm(Config{Channels: 2})
	c.AllReduce(64<<20, nil)
	e.eng.RunFor(time.Second)
	for r := topo.Rank(0); r < 4; r++ {
		var completions int
		for _, rec := range *e.recs[r] {
			if rec.Kind == trace.KindCompletion {
				completions++
				if rec.Op != trace.OpAllReduce || rec.OpSeq != 0 || rec.MsgSize != 64<<20 {
					t.Fatalf("bad completion record: %+v", rec)
				}
				if rec.End <= rec.Start {
					t.Fatalf("non-positive op duration: %+v", rec)
				}
				if rec.RDMADone != rec.TotalChunks {
					t.Fatalf("completion with unfinished chunks: %+v", rec)
				}
			}
		}
		if completions != 1 {
			t.Fatalf("rank %d emitted %d completion logs, want 1", r, completions)
		}
	}
}

func TestStateLogsDuringLongOp(t *testing.T) {
	e := newEnv(2, 1)
	// Throttle NICs so the op takes ≫ 100 ms and state logs accumulate.
	e.nics[0].SetBandwidthScale(0.01)
	e.nics[1].SetBandwidthScale(0.01)
	c := e.comm(Config{Channels: 1, StateLogPeriod: 100 * time.Millisecond})
	c.AllReduce(256<<20, nil)
	e.eng.RunFor(500 * time.Millisecond)
	var states int
	for _, rec := range *e.recs[0] {
		if rec.Kind == trace.KindState {
			states++
			if rec.Channel != 0 || rec.Op != trace.OpAllReduce {
				t.Fatalf("bad state record: %+v", rec)
			}
			if rec.GPUReady < rec.RDMATransmitted || rec.RDMATransmitted < rec.RDMADone {
				t.Fatalf("counter monotonicity violated: %+v", rec)
			}
		}
	}
	if states < 3 {
		t.Fatalf("got %d state logs in 500ms, want ≥3", states)
	}
}

func TestChannelsSplitLoad(t *testing.T) {
	run := func(channels int) sim.Time {
		e := newEnv(2, 2) // intra-node pairs give the extra channel a 2nd NIC path
		c := e.comm(Config{Channels: channels})
		var doneAt sim.Time
		c.AllReduce(256<<20, func(ts sim.Time) { doneAt = ts })
		e.eng.RunFor(5 * time.Second)
		if doneAt == 0 {
			t.Fatal("op did not complete")
		}
		return doneAt
	}
	one, two := run(1), run(2)
	if two >= one {
		t.Fatalf("2 channels (%v) not faster than 1 (%v)", two, one)
	}
}

func TestRingRotationPerChannel(t *testing.T) {
	e := newEnv(2, 4)
	c := e.comm(Config{Channels: 2})
	if c.ringIdx[0][0] == c.ringIdx[1][0] {
		t.Fatalf("channel rings not rotated: ch0=%v ch1=%v", c.ringIdx[0], c.ringIdx[1])
	}
	// Every ring must be a permutation of all ranks.
	for ch := 0; ch < 2; ch++ {
		seen := make(map[int]bool)
		for _, idx := range c.ringIdx[ch] {
			seen[idx] = true
		}
		if len(seen) != 8 {
			t.Fatalf("channel %d ring covers %d ranks, want 8", ch, len(seen))
		}
	}
}

func TestBroadcastRoles(t *testing.T) {
	e := newEnv(3, 1)
	c := e.comm(Config{Channels: 1})
	var doneAt sim.Time
	op := c.Broadcast(64<<20, 0, func(ts sim.Time) { doneAt = ts }).run
	e.eng.RunFor(time.Second)
	if doneAt == 0 {
		t.Fatal("broadcast did not complete")
	}
	// Root emits but receives nothing; tail receives but sends nothing.
	root := op.rankRuns[0].chans[0]
	tail := op.rankRuns[2].chans[0]
	if len(root.sends) == 0 || root.expectRecv != 0 {
		t.Fatalf("root role wrong: sends=%d recv=%d", len(root.sends), root.expectRecv)
	}
	if len(tail.sends) != 0 || tail.expectRecv == 0 {
		t.Fatalf("tail role wrong: sends=%d recv=%d", len(tail.sends), tail.expectRecv)
	}
}

func TestSendRecvAdjacentAndDistant(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1})
	var first, second sim.Time
	c.SendRecv(32<<20, 0, 1, func(ts sim.Time) { first = ts })
	c.SendRecv(32<<20, 0, 3, func(ts sim.Time) { second = ts }) // not ring-adjacent: direct link
	e.eng.RunFor(time.Second)
	if first == 0 || second == 0 {
		t.Fatalf("sendrecvs incomplete: %v %v", first, second)
	}
	if second <= first {
		t.Fatal("FIFO order violated across ops")
	}
}

func TestSendRecvBystandersFinishInstantly(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1})
	op := c.SendRecv(32<<20, 1, 2, nil)
	e.eng.RunFor(time.Second)
	if !op.Done() {
		t.Fatal("sendrecv incomplete")
	}
	if ts, ok := op.RankDone(0); !ok || ts != op.StartTime() {
		t.Fatalf("bystander rank not instantly done: %v %v", ts, ok)
	}
}

func TestAllOpKindsComplete(t *testing.T) {
	e := newEnv(2, 2)
	c := e.comm(Config{})
	done := 0
	cb := func(sim.Time) { done++ }
	c.AllGather(16<<20, cb)
	c.ReduceScatter(16<<20, cb)
	c.AllToAll(16<<20, cb)
	c.Barrier(cb)
	e.eng.RunFor(5 * time.Second)
	if done != 4 {
		t.Fatalf("%d/4 ops completed", done)
	}
}

func TestFIFOPerRank(t *testing.T) {
	e := newEnv(2, 1)
	c := e.comm(Config{Channels: 1})
	var order []uint64
	c.AllReduce(8<<20, func(sim.Time) { order = append(order, 0) })
	c.AllReduce(8<<20, func(sim.Time) { order = append(order, 1) })
	c.AllReduce(8<<20, func(sim.Time) { order = append(order, 2) })
	e.eng.RunFor(time.Second)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order = %v", order)
	}
}

func TestNICDownSignature(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1, PipelineDepth: 4})
	op := c.AllReduce(400<<20, nil)
	// Fault rank 1's NIC shortly after start.
	e.eng.After(time.Millisecond, func() { e.nics[1].SetDown(true) })
	e.eng.RunFor(3 * time.Second)
	if op.Done() {
		t.Fatal("op completed despite NIC down")
	}
	cr := c.ops[0].rankRuns[1].chans[0]
	// The faulty rank's outstanding WRs fill the queue and freeze: posted
	// ran ahead of CQEs by the pipeline depth — the send-path signature.
	if cr.posted-cr.acked != 4 {
		t.Fatalf("want posted-acked == depth at faulty rank, got %d-%d", cr.posted, cr.acked)
	}
	// A dependency-starved victim shows the opposite: no outstanding WRs,
	// staging buffer full.
	victim := c.ops[0].rankRuns[3].chans[0]
	if victim.posted != victim.acked {
		t.Fatalf("victim has outstanding WRs: posted=%d acked=%d", victim.posted, victim.acked)
	}
	if victim.staged-victim.posted != 4 {
		t.Fatalf("victim buffer not full: staged=%d posted=%d", victim.staged, victim.posted)
	}
	// The stall cascades outward, so the faulty rank carries the earliest
	// lastProgress (longest stuck_time) — the ordering Algorithm 2 exploits.
	for i, rr := range c.ops[0].rankRuns {
		if i == 1 {
			continue
		}
		if v := rr.chans[0]; v.lastProgress <= cr.lastProgress {
			t.Fatalf("rank %d stalled at %v, not after faulty rank (%v)", i, v.lastProgress, cr.lastProgress)
		}
	}
}

func TestGPUHangSignature(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1})
	op := c.AllReduce(400<<20, nil)
	e.eng.After(time.Millisecond, func() { e.gpus[1].SetHang(true) })
	e.eng.RunFor(3 * time.Second)
	if op.Done() {
		t.Fatal("op completed despite GPU hang")
	}
	cr := c.ops[0].rankRuns[1].chans[0]
	// GPU hang: the send path drained everything the GPU staged — all three
	// counters converge below total.
	if cr.staged != cr.posted || cr.posted != cr.acked {
		t.Fatalf("want staged == posted == acked at hung rank, got %d/%d/%d", cr.staged, cr.posted, cr.acked)
	}
	if cr.staged == len(cr.sends) {
		t.Fatal("hung rank staged everything — hang had no effect")
	}
}

func TestWireLossSignature(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1})
	op := c.AllReduce(400<<20, nil)
	e.eng.After(time.Millisecond, func() { e.nics[1].SetWireLoss(true) })
	e.eng.RunFor(3 * time.Second)
	if op.Done() {
		t.Fatal("op completed despite wire loss")
	}
	cr := c.ops[0].rankRuns[1].chans[0]
	// Wire loss: WRs keep being posted (and bytes keep leaving the NIC) but
	// CQEs stop — outstanding WRs pin at the queue bound and freeze.
	if cr.posted <= cr.acked {
		t.Fatalf("want posted > acked, got %d/%d", cr.posted, cr.acked)
	}
	// The NIC agrees with the proxy's counters, and every posted WR's bytes
	// did leave it: transmission went on while completion stopped.
	n := e.nics[1].Counters()
	if n.WRsPosted != uint64(cr.posted) || n.WRsCompleted != uint64(cr.acked) {
		t.Fatalf("NIC saw %d posted / %d completed, proxy %d/%d", n.WRsPosted, n.WRsCompleted, cr.posted, cr.acked)
	}
	var posted, acked uint64
	for i, b := range cr.sends[:cr.posted] {
		posted += uint64(b)
		if i < cr.acked {
			acked += uint64(b)
		}
	}
	if n.BytesSent != posted || n.BytesAcked != acked {
		t.Fatalf("NIC sent %d bytes and acked %d, want %d and %d", n.BytesSent, n.BytesAcked, posted, acked)
	}
}

func TestAnomalyPropagatesToAllRanks(t *testing.T) {
	e := newEnv(8, 1)
	c := e.comm(Config{Channels: 1})
	c.AllReduce(1<<30, nil)
	faultAt := sim.Time(2 * time.Millisecond)
	e.eng.At(faultAt, func() { e.nics[3].SetDown(true) })
	e.eng.RunFor(5 * time.Second)
	// Every rank's channel must eventually stop making progress.
	for i, rr := range c.ops[0].rankRuns {
		cr := rr.chans[0]
		if cr.done {
			t.Fatalf("rank %d finished despite upstream stall", i)
		}
		stalledFor := e.eng.Now().Sub(cr.lastProgress)
		if stalledFor < time.Second {
			t.Fatalf("rank %d still progressing %v after fault", i, stalledFor)
		}
	}
}

// TestProxyCrashStopsStateLogs: the communicator's one state-log ticker skips
// a crashed proxy, keeps logging every other rank once a period, and stops
// for all of them at Close.
func TestProxyCrashStopsStateLogs(t *testing.T) {
	e := newEnv(3, 1)
	for _, n := range e.nics {
		n.SetBandwidthScale(0.001) // make the op crawl
	}
	c := e.comm(Config{Channels: 1, StateLogPeriod: 100 * time.Millisecond})
	c.AllReduce(256<<20, nil)
	e.eng.RunFor(500 * time.Millisecond)
	c.CrashProxy(0)
	if !c.ProxyCrashed(0) {
		t.Fatal("ProxyCrashed = false")
	}
	logged := func(r topo.Rank) int { return len(*e.recs[r]) }
	before := []int{logged(0), logged(1), logged(2)}
	e.eng.RunFor(time.Second)
	if after := logged(0); after != before[0] {
		t.Fatalf("crashed proxy emitted %d more logs", after-before[0])
	}
	// The healthy ranks keep logging (and keep being stuck): one state log
	// at each of the ten ticks 600 ms, 700 ms, …, 1.5 s.
	for r := topo.Rank(1); r < 3; r++ {
		recs := (*e.recs[r])[before[r]:]
		if len(recs) != 10 {
			t.Fatalf("rank %d wrote %d logs in ten periods, want 10", r, len(recs))
		}
		for i, rec := range recs {
			if want := sim.Time(600*time.Millisecond + time.Duration(i)*100*time.Millisecond); rec.Kind != trace.KindState || rec.Time != want {
				t.Fatalf("rank %d log %d: %v at %v, want a state log at %v", r, i, rec.Kind, rec.Time, want)
			}
		}
	}
	c.Close()
	before = []int{logged(0), logged(1), logged(2)}
	e.eng.RunFor(time.Second)
	for r, n := range before {
		if after := logged(topo.Rank(r)); after != n {
			t.Fatalf("rank %d wrote %d logs after Close", r, after-n)
		}
	}
}

func TestSkipRankDeadlocksGroup(t *testing.T) {
	e := newEnv(4, 1)
	c := e.comm(Config{Channels: 1})
	skipped := topo.Rank(2)
	launches := make(map[topo.Rank][]uint64)
	cfg := c.cfg
	cfg.OnLaunch = func(r topo.Rank, m OpMeta) { launches[r] = append(launches[r], m.Seq) }
	c.cfg = cfg
	op0 := c.Submit(OpSpec{Kind: trace.OpAllReduce, Bytes: 64 << 20, Skip: map[topo.Rank]bool{skipped: true}}, nil)
	op1 := c.AllReduce(64<<20, nil)
	e.eng.RunFor(5 * time.Second)
	if op0.Done() || op1.Done() {
		t.Fatal("deadlocked ops reported done")
	}
	// The skipped rank moved on and launched op 1; everyone else is on op 0.
	if got := launches[skipped]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("skipped rank launches = %v, want [1]", got)
	}
	if got := launches[topo.Rank(0)]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("rank 0 launches = %v, want [0]", got)
	}
}

func TestHoldDelaysLaunch(t *testing.T) {
	e := newEnv(2, 1)
	c := e.comm(Config{Channels: 1})
	c.Hold(0)
	op := c.AllReduce(8<<20, nil)
	e.eng.RunFor(300 * time.Millisecond)
	if _, started := op.RankStart(0); started {
		t.Fatal("held rank started the op")
	}
	if _, started := op.RankStart(1); !started {
		t.Fatal("free rank did not start the op")
	}
	c.Release(0)
	e.eng.RunFor(time.Second)
	if !op.Done() {
		t.Fatal("op incomplete after release")
	}
	start0, _ := op.RankStart(0)
	if start0 < sim.Time(300*time.Millisecond) {
		t.Fatalf("held rank start = %v, want ≥300ms", start0)
	}
}

func TestChunkOverheadSlowsOp(t *testing.T) {
	run := func(oh time.Duration) sim.Time {
		e := newEnv(2, 1)
		c := e.comm(Config{Channels: 1, ChunkOverhead: oh})
		var doneAt sim.Time
		c.AllReduce(256<<20, func(ts sim.Time) { doneAt = ts })
		e.eng.RunFor(10 * time.Second)
		return doneAt
	}
	clean, traced := run(0), run(200*time.Microsecond)
	if clean == 0 || traced == 0 {
		t.Fatal("ops incomplete")
	}
	if float64(traced) < 1.5*float64(clean) {
		t.Fatalf("per-chunk overhead barely slowed the op: %v vs %v", clean, traced)
	}
}

func TestOnChunkEventFires(t *testing.T) {
	e := newEnv(2, 1)
	counts := map[ChunkStage]int{}
	c := NewCommunicator(e.eng, 1, e.infos, Config{
		Channels:     1,
		OnChunkEvent: func(_ topo.Rank, s ChunkStage, _ int64) { counts[s]++ },
	})
	c.AllReduce(32<<20, nil)
	e.eng.RunFor(time.Second)
	if counts[StageGPUReady] == 0 || counts[StageTransmit] == 0 || counts[StageDone] == 0 {
		t.Fatalf("chunk events missing: %v", counts)
	}
	if counts[StageGPUReady] != counts[StageTransmit] || counts[StageTransmit] != counts[StageDone] {
		t.Fatalf("chunk stage counts unbalanced: %v", counts)
	}
}

func TestOnCompleteHook(t *testing.T) {
	e := newEnv(2, 1)
	var metas []OpMeta
	c := NewCommunicator(e.eng, 9, e.infos, Config{
		Channels:   1,
		OnComplete: func(_ topo.Rank, m OpMeta, _, _ sim.Time) { metas = append(metas, m) },
	})
	c.AllReduce(8<<20, nil)
	e.eng.RunFor(time.Second)
	if len(metas) != 2 {
		t.Fatalf("OnComplete fired %d times, want 2", len(metas))
	}
	if metas[0].CommID != 9 || metas[0].Kind != trace.OpAllReduce {
		t.Fatalf("bad meta: %+v", metas[0])
	}
}

func TestSingleRankComm(t *testing.T) {
	e := newEnv(1, 1)
	c := e.comm(Config{Channels: 2})
	op := c.AllReduce(1<<20, nil)
	e.eng.RunFor(time.Millisecond)
	if !op.Done() {
		t.Fatal("single-rank op incomplete")
	}
}

func TestCloseStopsTickers(t *testing.T) {
	e := newEnv(2, 1)
	e.nics[0].SetBandwidthScale(0.001)
	e.nics[1].SetBandwidthScale(0.001)
	c := e.comm(Config{Channels: 1})
	c.AllReduce(256<<20, nil)
	e.eng.RunFor(300 * time.Millisecond)
	c.Close()
	c.Close() // idempotent
	before := len(*e.recs[0])
	e.eng.RunFor(time.Second)
	if len(*e.recs[0]) != before {
		t.Fatal("state logs after Close")
	}
}

func TestDeterministicCompletion(t *testing.T) {
	run := func() sim.Time {
		e := newEnv(4, 2)
		c := e.comm(Config{})
		var doneAt sim.Time
		c.AllReduce(128<<20, func(ts sim.Time) { doneAt = ts })
		e.eng.RunFor(5 * time.Second)
		return doneAt
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic completion: %v vs %v", a, b)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newEnv(2, 1)
	c := e.comm(Config{Channels: 1})
	for name, fn := range map[string]func(){
		"zero bytes":    func() { c.AllReduce(0, nil) },
		"bad root":      func() { c.Broadcast(1<<20, 5, nil) },
		"self sendrecv": func() { c.SendRecv(1<<20, 0, 0, nil) },
		"oob sendrecv":  func() { c.SendRecv(1<<20, 0, 7, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCommAccessors(t *testing.T) {
	e := newEnv(2, 2)
	c := e.comm(Config{})
	if c.ID() != 1 || c.Size() != 4 {
		t.Fatalf("ID/Size = %d/%d", c.ID(), c.Size())
	}
	if c.IndexOf(2) != 2 || c.IndexOf(99) != -1 {
		t.Fatal("IndexOf wrong")
	}
	if len(c.Ranks()) != 4 {
		t.Fatal("Ranks wrong")
	}
	if c.NextSeq() != 0 {
		t.Fatal("NextSeq wrong")
	}
	c.AllReduce(1<<20, nil)
	if c.NextSeq() != 1 {
		t.Fatal("NextSeq did not advance")
	}
}

// Property: chunkList pieces are positive, ≤ chunk, and sum to max(n, 1).
func TestChunkListProperty(t *testing.T) {
	f := func(nRaw, chunkRaw uint32) bool {
		n := int64(nRaw % (1 << 26))
		chunk := int64(chunkRaw%(8<<20)) + 1
		pieces := chunkList(n, chunk)
		var sum int64
		for _, p := range pieces {
			if p <= 0 || p > chunk {
				return false
			}
			sum += p
		}
		want := n
		if want <= 0 {
			want = 1
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkPathAllocatesNothing is the allocation gate of the per-chunk path:
// planning an op may allocate, moving its chunks may not, so an all-reduce of
// four times the bytes (four times the chunks) costs exactly the mallocs of
// the small one — over RDMA QPs and over NVLink, with and without the
// synchronous per-chunk tracer cost.
func TestChunkPathAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nodes, gpusPer int
		overhead       time.Duration
	}{
		{"rdma", 8, 1, 0},
		{"nvlink", 1, 8, 0},
		{"rdma+overhead", 8, 1, 2 * time.Microsecond},
		{"nvlink+overhead", 1, 8, 2 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(tc.nodes, tc.gpusPer)
			c := NewCommunicator(e.eng, 1, e.infos, Config{ChunkOverhead: tc.overhead})
			allReduce := func(bytes int64) func() {
				return func() {
					op := c.AllReduce(bytes, nil)
					e.eng.RunFor(time.Second)
					if !op.Done() {
						t.Fatalf("all-reduce of %d bytes incomplete", bytes)
					}
				}
			}
			const small = 64 << 20 // 14 chunks per channel; 4x is 56
			allReduce(4 * small)() // the event queue and free lists reach their depth
			one := testing.AllocsPerRun(3, allReduce(small))
			four := testing.AllocsPerRun(3, allReduce(4*small))
			if one != four {
				t.Errorf("1x op: %v mallocs, 4x op: %v — the chunk path allocates", one, four)
			}
		})
	}
}

// Property: for every op kind, all chunk accounting converges exactly at
// completion (acked == sends, delivered == expectRecv on every channel).
func TestChunkConservation(t *testing.T) {
	kinds := []trace.OpKind{trace.OpAllReduce, trace.OpAllGather, trace.OpReduceScatter, trace.OpAllToAll, trace.OpBroadcast}
	for _, kind := range kinds {
		e := newEnv(2, 2)
		c := e.comm(Config{})
		op := c.Submit(OpSpec{Kind: kind, Bytes: 48 << 20}, nil).run
		e.eng.RunFor(5 * time.Second)
		if !op.globalDone {
			t.Fatalf("%v incomplete", kind)
		}
		for i, rr := range op.rankRuns {
			for _, cr := range rr.chans {
				if cr.acked != len(cr.sends) || cr.staged != len(cr.sends) {
					t.Fatalf("%v rank %d ch %d: staged=%d acked=%d sends=%d", kind, i, cr.ch, cr.staged, cr.acked, len(cr.sends))
				}
				if cr.delivered < cr.expectRecv {
					t.Fatalf("%v rank %d ch %d: delivered=%d expect=%d", kind, i, cr.ch, cr.delivered, cr.expectRecv)
				}
			}
		}
	}
}
