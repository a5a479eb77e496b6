package ccl

import (
	"fmt"

	"mycroft/internal/rdma"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// OpSpec describes one collective operation.
type OpSpec struct {
	Kind trace.OpKind
	// Bytes is the per-rank payload (sendcount × element size for symmetric
	// collectives; the message size for SendRecv/Broadcast).
	Bytes int64
	// Root is the group index of the broadcast root.
	Root int
	// Src and Dst are group indices for SendRecv.
	Src, Dst int
	// Skip lists ranks that never launch the op — the synchronization
	// mismatch fault of §6.2. A skipped rank proceeds to the next op; the
	// group deadlocks, and only framework-level analysis (Flight Recorder)
	// sees why.
	Skip map[topo.Rank]bool
	// OnRankDone fires as each rank finishes its part.
	OnRankDone func(topo.Rank, sim.Time)
}

// Op is a handle on a submitted operation.
type Op struct{ run *opRun }

// Meta returns the operation's identity.
func (o *Op) Meta() OpMeta { return o.run.meta }

// Done reports whether every participating rank completed.
func (o *Op) Done() bool { return o.run.globalDone }

// StartTime returns when the first rank started the op (zero until then).
func (o *Op) StartTime() sim.Time { return o.run.startTime }

// DoneTime returns the global completion time (zero until Done).
func (o *Op) DoneTime() sim.Time { return o.run.doneTime }

// share returns rank r's share of the op, or nil if r is not participating.
func (o *Op) share(r topo.Rank) *rankRun {
	rc, ok := o.run.comm.byRank[r]
	if !ok || o.run.rankRuns[rc.idx].skip {
		return nil
	}
	return &o.run.rankRuns[rc.idx]
}

// RankStart returns when rank r started its part, and whether it has.
func (o *Op) RankStart(r topo.Rank) (sim.Time, bool) {
	rr := o.share(r)
	if rr == nil {
		return 0, false
	}
	return rr.start, rr.started
}

// RankDone returns when rank r finished its part, and whether it has.
func (o *Op) RankDone(r topo.Rank) (sim.Time, bool) {
	rr := o.share(r)
	if rr == nil {
		return 0, false
	}
	return rr.end, rr.done
}

// ChanSnapshot is a point-in-time view of one (rank, channel) pipeline,
// for experiments and inspection tooling.
type ChanSnapshot struct {
	Channel      int
	Total        int
	Staged       int
	Posted       int
	Acked        int
	Delivered    int
	ExpectRecv   int
	LastProgress sim.Time
	Done         bool
}

// Snapshot returns the current per-channel pipeline state of rank r, or nil
// if the rank is not participating.
func (o *Op) Snapshot(r topo.Rank) []ChanSnapshot {
	rr := o.share(r)
	if rr == nil {
		return nil
	}
	out := make([]ChanSnapshot, 0, len(rr.chans))
	for i := range rr.chans {
		cr := &rr.chans[i]
		out = append(out, ChanSnapshot{
			Channel: cr.ch, Total: len(cr.sends),
			Staged: cr.staged, Posted: cr.posted, Acked: cr.acked,
			Delivered: cr.delivered, ExpectRecv: cr.expectRecv,
			LastProgress: cr.lastProgress, Done: cr.done,
		})
	}
	return out
}

// depNone marks sends with no remote dependency.
const depNone = 1 << 30

// shape is what a plan is a function of: every OpSpec field planning reads.
type shape struct {
	kind           trace.OpKind
	bytes          int64
	root, src, dst int
}

// chanPlan is the read-only half of one (rank, channel) pipeline: what it
// sends, over which link, to whom, and what it waits for. Every op of a
// shape copies it into its chanRun.
type chanPlan struct {
	ch   int
	qpid int

	link rdma.Link // outbound link (nil when this role sends nothing)
	peer int       // group index of the rank our sends land at (-1: nobody)

	sends      []int64 // chunk sizes, in send order; shared by every sender of the shape
	depOffset  int     // send i needs delivered ≥ i-depOffset (depNone: none)
	expectRecv int
}

// opRun is the engine-side state of one op: one frame of two slabs, filled
// from the shape's plan.
type opRun struct {
	handle     Op
	comm       *Communicator
	meta       OpMeta
	spec       OpSpec
	idx        int       // op number on the communicator (see Communicator.ops)
	rankRuns   []rankRun // by group index
	chans      []chanRun // rank i's channels are chans[i*Channels:(i+1)*Channels]
	remaining  int
	passed     int // ranks whose cursor has moved beyond this op
	started    bool
	startTime  sim.Time
	doneTime   sim.Time
	globalDone bool
	onAllDone  func(sim.Time)
}

// rankRun is one rank's share of an op.
type rankRun struct {
	op      *opRun
	rc      *rankCtx
	chans   []chanRun
	openCh  int
	skip    bool // the rank never launches the op (OpSpec.Skip)
	started bool
	done    bool
	start   sim.Time
	end     sim.Time
}

// chanRun is the per-(rank, channel) chunk pipeline — the unit Mycroft's
// flow-level tracing observes.
type chanRun struct {
	chanPlan
	rr   *rankRun
	recv *chanRun // the peer's pipeline on this channel (nil: no peer, or it skips the op)

	stageReq  int // staging copies requested
	staged    int // GPU_ready: chunks the GPU copied into the proxy buffer
	nextSend  int
	posted    int // RDMA_transmitted: WRs the proxy handed to the NIC
	acked     int // RDMA_done: CQEs polled
	delivered int // chunks received from our ring predecessor / peer

	lastProgress sim.Time
	done         bool
}

// Submit enqueues an operation. Each rank starts it as soon as that rank has
// locally completed all earlier ops on this communicator (stream order).
// onAllDone (optional) fires when every participating rank finished.
func (c *Communicator) Submit(spec OpSpec, onAllDone func(sim.Time)) *Op {
	if c.closed {
		panic("ccl: submit on closed communicator")
	}
	if spec.Bytes <= 0 {
		panic(fmt.Sprintf("ccl: non-positive op bytes %d", spec.Bytes))
	}
	plan := c.plan(spec)
	R, C := len(c.ranks), c.cfg.Channels
	op := &opRun{
		comm: c, spec: spec, idx: c.opsBase + len(c.ops), onAllDone: onAllDone,
		meta:     OpMeta{CommID: c.id, Seq: c.nextSeq, Kind: spec.Kind, Bytes: spec.Bytes},
		rankRuns: make([]rankRun, R), chans: make([]chanRun, R*C),
	}
	op.handle.run = op
	c.nextSeq++
	skips := func(i int) bool { return spec.Skip[c.ranks[i].info.Rank] }
	now := c.eng.Now()
	for i, rc := range c.ranks {
		rr := &op.rankRuns[i]
		if skips(i) {
			rr.skip = true
			continue
		}
		*rr = rankRun{op: op, rc: rc, chans: op.chans[i*C : (i+1)*C], openCh: C}
		op.remaining++
		for ch := range rr.chans {
			cr := &rr.chans[ch]
			cr.chanPlan, cr.rr, cr.lastProgress = plan[i*C+ch], rr, now
			if cr.peer >= 0 && !skips(cr.peer) {
				cr.recv = &op.chans[cr.peer*C+ch]
			}
		}
	}
	c.ops = append(c.ops, op)
	// Ranks already idle pick the op up immediately.
	for _, rc := range c.ranks {
		if rc.cursor == op.idx {
			rc.pump()
		}
	}
	return &op.handle
}

// plan returns the plan of spec's shape, [rank index × Channels + channel],
// deriving it on the shape's first Submit. The cache holds one entry per
// distinct shape the communicator is ever asked for (a training script: one
// per schedule position) and nothing before the first Submit.
func (c *Communicator) plan(spec OpSpec) []chanPlan {
	key := shape{spec.Kind, spec.Bytes, spec.Root, spec.Src, spec.Dst}
	if p, ok := c.plans[key]; ok {
		return p
	}
	p := c.derivePlan(spec)
	if c.plans == nil {
		c.plans = make(map[shape][]chanPlan)
	}
	c.plans[key] = p
	return p
}

// derivePlan works out what the shape moves — per channel, the chunk sizes of
// one ring step tiled across the steps — and then each (rank, channel)'s role
// in moving it.
func (c *Communicator) derivePlan(spec OpSpec) []chanPlan {
	R, C := len(c.ranks), c.cfg.Channels
	plan := make([]chanPlan, R*C)
	var sends []int64
	var perStep int
	if R > 1 {
		perChan := ceilDiv(spec.Bytes, int64(C))
		seg, steps := max(perChan, 1), 1 // Broadcast, SendRecv: the payload, once
		switch spec.Kind {
		case trace.OpAllReduce, trace.OpBarrier:
			seg, steps = max(ceilDiv(perChan, int64(R)), 1), 2*(R-1)
		case trace.OpReduceScatter, trace.OpAllToAll:
			seg, steps = max(ceilDiv(perChan, int64(R)), 1), R-1
		case trace.OpAllGather:
			steps = R - 1
		case trace.OpBroadcast:
			if spec.Root < 0 || spec.Root >= R {
				panic(fmt.Sprintf("ccl: broadcast root %d out of range", spec.Root))
			}
		case trace.OpSendRecv:
			if spec.Src == spec.Dst || spec.Src < 0 || spec.Dst < 0 || spec.Src >= R || spec.Dst >= R {
				panic(fmt.Sprintf("ccl: bad sendrecv pair (%d, %d)", spec.Src, spec.Dst))
			}
		default:
			panic(fmt.Sprintf("ccl: unsupported op kind %v", spec.Kind))
		}
		per := chunkList(seg, c.cfg.ChunkBytes)
		sends, perStep = repeatChunks(per, steps), len(per)
	}
	for i := 0; i < R; i++ {
		for ch := 0; ch < C; ch++ {
			plan[i*C+ch] = c.planChannel(spec, sends, perStep, i, ch)
		}
	}
	return plan
}

// planChannel computes rank index i's send/receive obligations on channel ch
// for an op that moves sends, perStep chunks a ring step.
func (c *Communicator) planChannel(spec OpSpec, sends []int64, perStep, i, ch int) chanPlan {
	R := len(c.ranks)
	p := chanPlan{ch: ch, peer: -1}
	if R == 1 {
		return p // trivially complete
	}
	p.qpid = c.qpid[ch][i]
	switch spec.Kind {
	case trace.OpBroadcast:
		pos := (c.ringPos[ch][i] - c.ringPos[ch][spec.Root] + R) % R
		if pos < R-1 {
			p.sends, p.link, p.peer = sends, c.sendLink[ch][i], c.nextIdx[ch][i]
		}
		if pos > 0 {
			p.expectRecv = len(sends)
		}
		if pos == 0 {
			p.depOffset = depNone
		} else {
			p.depOffset = -1 // forward chunk i only after receiving it
		}
	case trace.OpSendRecv:
		p.depOffset = depNone
		switch i {
		case spec.Src:
			p.sends, p.link, p.peer = sends, c.directLink(ch, spec.Src, spec.Dst), spec.Dst
		case spec.Dst:
			p.expectRecv = len(sends)
		}
	default: // the ring collectives: every rank sends every step to its successor
		p.sends, p.link, p.peer = sends, c.sendLink[ch][i], c.nextIdx[ch][i]
		p.depOffset, p.expectRecv = perStep-1, len(sends)
	}
	return p
}

// pump starts the rank's next pending op, skipping ops it was told to skip
// (the sync-mismatch fault), until it blocks on an in-flight op or drains.
// It is the only function that advances the cursor; the pumping flag keeps
// synchronous completions inside begin from advancing it twice.
func (rc *rankCtx) pump() {
	if rc.pumping {
		return
	}
	rc.pumping = true
	defer func() { rc.pumping = false }()
	c := rc.comm
	for op := c.opAt(rc.cursor); op != nil; op = c.opAt(rc.cursor) {
		// A skipped rank pretends it never saw the op.
		if rr := &op.rankRuns[rc.idx]; !rr.skip {
			if !rr.started {
				if rc.held {
					return // busy outside the CCL; Release will pump again
				}
				rr.begin()
			}
			if !rr.done {
				return
			}
		}
		rc.cursor++
		op.passed++
		if op.passed == len(c.ranks) {
			// Every rank passes ops in order, so the last one past op finds
			// it at the front of the window (a handful of ops).
			last := copy(c.ops, c.ops[1:])
			c.ops[last] = nil
			c.ops = c.ops[:last]
			c.opsBase++
		}
	}
}

// begin marks the rank-local op start: launch hook, staging fill.
func (rr *rankRun) begin() {
	now := rr.rc.comm.eng.Now()
	rr.started = true
	rr.start = now
	op := rr.op
	if !op.started {
		op.started = true
		op.startTime = now
	}
	if h := rr.rc.comm.cfg.OnLaunch; h != nil {
		h(rr.rc.info.Rank, op.meta)
	}
	for i := range rr.chans {
		cr := &rr.chans[i]
		cr.lastProgress = now
		cr.fillStaging()
		cr.trySend()
		cr.checkDone()
	}
	rr.checkDone()
}

// fillStaging keeps up to pipelineDepth chunks in the preallocated buffer
// slots of §4.2. A slot is reclaimed when its WR completes (CQE), as NCCL
// does, so a send path that stops acking starves staging after depth chunks.
func (cr *chanRun) fillStaging() {
	rc := cr.rr.rc
	if rc.crashed {
		return
	}
	for cr.stageReq < len(cr.sends) && cr.stageReq < cr.acked+pipelineDepth {
		i := cr.stageReq
		cr.stageReq++
		rc.info.GPU.Copy(cr.sends[i], cr, int32(i))
	}
}

// CopyDone implements gpusim.CopyDone: chunk i is staged (GPU_ready).
func (cr *chanRun) CopyDone(i int32) {
	rc := cr.rr.rc
	if rc.crashed || cr.rr.done {
		return
	}
	cr.staged++
	cr.progress()
	if h := rc.comm.cfg.OnChunkEvent; h != nil {
		h(rc.info.Rank, StageGPUReady, cr.sends[i])
	}
	cr.trySend()
}

// trySend posts every eligible chunk: staged, dependency satisfied, in order.
func (cr *chanRun) trySend() {
	rc := cr.rr.rc
	if rc.crashed || !cr.rr.started {
		return
	}
	for cr.nextSend < len(cr.sends) && cr.nextSend < cr.staged && cr.delivered >= cr.needDelivered(cr.nextSend) {
		i := cr.nextSend
		cr.nextSend++
		cr.post(i)
	}
}

func (cr *chanRun) needDelivered(i int) int {
	if cr.depOffset == depNone {
		return 0
	}
	need := i - cr.depOffset
	if need < 0 {
		return 0
	}
	return need
}

// post hands chunk i to the NIC, paying any synchronous tracer overhead.
// Posting is what the proxy's RDMA_transmitted counter observes.
func (cr *chanRun) post(i int) {
	rc := cr.rr.rc
	cr.posted++
	cr.progress()
	if h := rc.comm.cfg.OnChunkEvent; h != nil {
		h(rc.info.Rank, StageTransmit, cr.sends[i])
	}
	if oh := rc.comm.cfg.ChunkOverhead; oh > 0 {
		// Synchronous instrumentation serializes on the proxy thread.
		at := rc.overheadBusy
		if now := rc.comm.eng.Now(); at < now {
			at = now
		}
		at = at.Add(oh)
		rc.overheadBusy = at
		rc.comm.eng.Schedule(at, cr, int32(i))
	} else {
		cr.Fire(int32(i))
	}
}

// Fire implements sim.Handler: chunk i goes onto the link, with the chanRun
// itself observing the transfer's delivery and completion (rdma.Completion).
func (cr *chanRun) Fire(i int32) {
	if cr.rr.rc.crashed {
		return
	}
	cr.link.Send(cr.sends[i], cr, i)
}

// OnDeliver implements rdma.Completion: the chunk landed at our ring
// successor (or the SendRecv destination).
func (cr *chanRun) OnDeliver(int32) {
	if cr.recv != nil {
		cr.recv.onDelivered()
	}
}

// OnCQE implements rdma.Completion: chunk i's WR completed (RDMA_done), which
// frees its staging slot.
func (cr *chanRun) OnCQE(i int32) {
	rc := cr.rr.rc
	if rc.crashed {
		return
	}
	cr.acked++
	cr.progress()
	if h := rc.comm.cfg.OnChunkEvent; h != nil {
		h(rc.info.Rank, StageDone, cr.sends[i])
	}
	cr.fillStaging()
	cr.checkDone()
}

// onDelivered counts a chunk arriving from the ring predecessor (or the
// SendRecv source). A crashed proxy never processes arrivals. Deliveries do
// NOT update lastProgress: stuck_time tracks only the Table 2 counters
// (GPU_ready / RDMA_transmitted / RDMA_done), so the rank whose local
// pipeline froze first carries the longest stuck time — the ordering
// Algorithm 2's minimum-progress search depends on.
func (cr *chanRun) onDelivered() {
	rc := cr.rr.rc
	if rc.crashed {
		return
	}
	cr.delivered++
	cr.trySend()
	cr.checkDone()
}

func (cr *chanRun) progress() {
	cr.lastProgress = cr.rr.rc.comm.eng.Now()
}

// checkDone closes the channel when all sends acked and receives arrived.
func (cr *chanRun) checkDone() {
	if cr.done || !cr.rr.started {
		return
	}
	if cr.acked == len(cr.sends) && cr.delivered >= cr.expectRecv {
		cr.done = true
		cr.rr.openCh--
		cr.rr.checkDone()
	}
}

// checkDone closes the rank's share: emits the completion log, fires hooks
// and lets the rank move to its next op.
func (rr *rankRun) checkDone() {
	if rr.done || !rr.started || rr.openCh > 0 {
		return
	}
	now := rr.rc.comm.eng.Now()
	rr.done = true
	rr.end = now
	op := rr.op
	rc := rr.rc

	var total, staged, tx, done uint32
	for i := range rr.chans {
		cr := &rr.chans[i]
		total += uint32(len(cr.sends))
		staged += uint32(cr.staged)
		tx += uint32(cr.posted)
		done += uint32(cr.acked)
	}
	rc.sink.Emit(trace.Record{
		Kind: trace.KindCompletion, Time: now,
		IP: rc.info.IP, CommID: rc.comm.id, Rank: rc.info.Rank,
		GPUID: int32(rc.info.GPU.ID()), Channel: -1, QPID: -1,
		Op: op.meta.Kind, OpSeq: op.meta.Seq, MsgSize: op.meta.Bytes,
		Start: rr.start, End: now,
		TotalChunks: total, GPUReady: staged, RDMATransmitted: tx, RDMADone: done,
	})
	if h := rc.comm.cfg.OnComplete; h != nil {
		h(rc.info.Rank, op.meta, rr.start, now)
	}
	if h := op.spec.OnRankDone; h != nil {
		h(rc.info.Rank, now)
	}
	op.remaining--
	if op.remaining == 0 {
		op.globalDone = true
		op.doneTime = now
		if op.onAllDone != nil {
			op.onAllDone(now)
		}
	}
	rc.pump()
}

// AllReduce submits an all-reduce of bytes per rank.
func (c *Communicator) AllReduce(bytes int64, done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpAllReduce, Bytes: bytes}, done)
}

// AllGather submits an all-gather with bytes per-rank input.
func (c *Communicator) AllGather(bytes int64, done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpAllGather, Bytes: bytes}, done)
}

// ReduceScatter submits a reduce-scatter with bytes per-rank input.
func (c *Communicator) ReduceScatter(bytes int64, done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpReduceScatter, Bytes: bytes}, done)
}

// Broadcast submits a broadcast of bytes from the rank at group index root.
func (c *Communicator) Broadcast(bytes int64, root int, done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpBroadcast, Bytes: bytes, Root: root}, done)
}

// SendRecv submits a point-to-point transfer between group indices src and
// dst.
func (c *Communicator) SendRecv(bytes int64, src, dst int, done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpSendRecv, Bytes: bytes, Src: src, Dst: dst}, done)
}

// AllToAll submits an all-to-all with bytes per-rank total payload.
func (c *Communicator) AllToAll(bytes int64, done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpAllToAll, Bytes: bytes}, done)
}

// Barrier submits a synchronization barrier (a minimal all-reduce).
func (c *Communicator) Barrier(done func(sim.Time)) *Op {
	return c.Submit(OpSpec{Kind: trace.OpBarrier, Bytes: 64}, done)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// chunkList splits n bytes into chunk-size pieces (the last possibly short).
func chunkList(n, chunk int64) []int64 {
	if n <= 0 {
		n = 1
	}
	k := int(ceilDiv(n, chunk))
	out := make([]int64, 0, k)
	rem := n
	for rem > chunk {
		out = append(out, chunk)
		rem -= chunk
	}
	out = append(out, rem)
	return out
}

// repeatChunks tiles per-step chunk sizes across steps.
func repeatChunks(per []int64, steps int) []int64 {
	out := make([]int64, 0, len(per)*steps)
	for s := 0; s < steps; s++ {
		out = append(out, per...)
	}
	return out
}
