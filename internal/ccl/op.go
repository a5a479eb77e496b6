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

// RankStart returns when rank r started its part, and whether it has.
func (o *Op) RankStart(r topo.Rank) (sim.Time, bool) {
	rc, ok := o.run.comm.byRank[r]
	if !ok || o.run.rankRuns[rc.idx] == nil {
		return 0, false
	}
	rr := o.run.rankRuns[rc.idx]
	return rr.start, rr.started
}

// RankDone returns when rank r finished its part, and whether it has.
func (o *Op) RankDone(r topo.Rank) (sim.Time, bool) {
	rc, ok := o.run.comm.byRank[r]
	if !ok || o.run.rankRuns[rc.idx] == nil {
		return 0, false
	}
	rr := o.run.rankRuns[rc.idx]
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
	rc, ok := o.run.comm.byRank[r]
	if !ok || o.run.rankRuns[rc.idx] == nil {
		return nil
	}
	rr := o.run.rankRuns[rc.idx]
	out := make([]ChanSnapshot, 0, len(rr.chans))
	for _, cr := range rr.chans {
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

// opRun is the engine-side state of one op.
type opRun struct {
	comm       *Communicator
	meta       OpMeta
	spec       OpSpec
	idx        int // op number on the communicator (see Communicator.ops)
	rankRuns   []*rankRun
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
	chans   []*chanRun
	openCh  int
	started bool
	done    bool
	start   sim.Time
	end     sim.Time
}

// chanRun is the per-(rank, channel) chunk pipeline — the unit Mycroft's
// flow-level tracing observes.
type chanRun struct {
	rr   *rankRun
	ch   int
	qpid int

	link rdma.Link // outbound link (nil when this role sends nothing)
	peer *chanRun  // receiver of our sends (set after all chanRuns exist)

	sends      []int64 // chunk sizes, in send order
	depOffset  int     // send i needs delivered ≥ i-depOffset (depNone: none)
	expectRecv int

	stageReq    int // staging copies requested
	staged      int // GPU_ready: chunks the GPU copied into the proxy buffer
	nextSend    int
	posted      int // RDMA_transmitted: WRs the proxy handed to the NIC
	transmitted int // wire-level transmit completions (internal diagnostics)
	acked       int // RDMA_done: CQEs polled
	delivered   int // chunks received from our ring predecessor / peer

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
	meta := OpMeta{CommID: c.id, Seq: c.nextSeq, Kind: spec.Kind, Bytes: spec.Bytes}
	c.nextSeq++
	op := &opRun{comm: c, meta: meta, spec: spec, idx: c.opsBase + len(c.ops), onAllDone: onAllDone}
	op.rankRuns = make([]*rankRun, len(c.ranks))
	for i, rc := range c.ranks {
		if spec.Skip[rc.info.Rank] {
			continue
		}
		rr := &rankRun{op: op, rc: rc}
		for ch := 0; ch < c.cfg.Channels; ch++ {
			cr := c.planChannel(op, rc, ch)
			rr.chans = append(rr.chans, cr)
			cr.rr = rr
		}
		rr.openCh = len(rr.chans)
		op.rankRuns[i] = rr
		op.remaining++
	}
	// Wire send targets now that every chanRun exists.
	for i, rr := range op.rankRuns {
		if rr == nil {
			continue
		}
		for chI, cr := range rr.chans {
			if cr.link == nil {
				continue
			}
			tgt := op.recvTarget(i, chI)
			if tgt >= 0 && op.rankRuns[tgt] != nil {
				cr.peer = op.rankRuns[tgt].chans[chI]
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
	return &Op{run: op}
}

// recvTarget returns the group index that receives rank i's channel-ch sends.
func (op *opRun) recvTarget(i, ch int) int {
	c := op.comm
	switch op.meta.Kind {
	case trace.OpSendRecv:
		if i == op.spec.Src {
			return op.spec.Dst
		}
		return -1
	default:
		if len(c.ranks) == 1 {
			return -1
		}
		return c.nextIdx[ch][i]
	}
}

// planChannel computes rank rc's send/receive obligations on channel ch.
func (c *Communicator) planChannel(op *opRun, rc *rankCtx, ch int) *chanRun {
	R := len(c.ranks)
	cr := &chanRun{ch: ch, lastProgress: c.eng.Now()}
	if R > 1 {
		cr.qpid = c.qpid[ch][rc.idx]
	}
	perChan := ceilDiv(op.spec.Bytes, int64(c.cfg.Channels))
	chunk := c.cfg.ChunkBytes

	if R == 1 {
		return cr // trivially complete
	}

	switch op.meta.Kind {
	case trace.OpAllReduce, trace.OpBarrier:
		seg := maxI64(ceilDiv(perChan, int64(R)), 1)
		per := chunkList(seg, chunk)
		steps := 2 * (R - 1)
		cr.sends = repeatChunks(per, steps)
		cr.depOffset = len(per) - 1
		cr.expectRecv = len(cr.sends)
		cr.link = c.sendLink[ch][rc.idx]
	case trace.OpReduceScatter, trace.OpAllToAll:
		seg := maxI64(ceilDiv(perChan, int64(R)), 1)
		per := chunkList(seg, chunk)
		steps := R - 1
		cr.sends = repeatChunks(per, steps)
		cr.depOffset = len(per) - 1
		cr.expectRecv = len(cr.sends)
		cr.link = c.sendLink[ch][rc.idx]
	case trace.OpAllGather:
		per := chunkList(maxI64(perChan, 1), chunk)
		steps := R - 1
		cr.sends = repeatChunks(per, steps)
		cr.depOffset = len(per) - 1
		cr.expectRecv = len(cr.sends)
		cr.link = c.sendLink[ch][rc.idx]
	case trace.OpBroadcast:
		if op.spec.Root < 0 || op.spec.Root >= R {
			panic(fmt.Sprintf("ccl: broadcast root %d out of range", op.spec.Root))
		}
		all := chunkList(maxI64(perChan, 1), chunk)
		rootPos := c.ringPos[ch][op.spec.Root]
		pos := (c.ringPos[ch][rc.idx] - rootPos + R) % R
		if pos < R-1 {
			cr.sends = all
			cr.link = c.sendLink[ch][rc.idx]
		}
		if pos > 0 {
			cr.expectRecv = len(all)
		}
		if pos == 0 {
			cr.depOffset = depNone
		} else {
			cr.depOffset = -1 // forward chunk i only after receiving it
		}
	case trace.OpSendRecv:
		if op.spec.Src == op.spec.Dst || op.spec.Src < 0 || op.spec.Dst < 0 || op.spec.Src >= R || op.spec.Dst >= R {
			panic(fmt.Sprintf("ccl: bad sendrecv pair (%d, %d)", op.spec.Src, op.spec.Dst))
		}
		all := chunkList(maxI64(perChan, 1), chunk)
		switch rc.idx {
		case op.spec.Src:
			cr.sends = all
			cr.depOffset = depNone
			cr.link = c.directLink(ch, op.spec.Src, op.spec.Dst)
		case op.spec.Dst:
			cr.expectRecv = len(all)
			cr.depOffset = depNone
		default:
			cr.depOffset = depNone
		}
	default:
		panic(fmt.Sprintf("ccl: unsupported op kind %v", op.meta.Kind))
	}
	return cr
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
		// A skipped rank (nil share) pretends it never saw the op.
		if rr := op.rankRuns[rc.idx]; rr != nil {
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
	for _, cr := range rr.chans {
		cr.lastProgress = now
		cr.fillStaging()
		cr.trySend()
		cr.checkDone()
	}
	rr.checkDone()
}

// fillStaging keeps up to PipelineDepth chunks in the preallocated buffer
// slots of §4.2. A slot is reclaimed when its WR completes (CQE), as NCCL
// does, so a send path that stops acking starves staging after depth chunks.
func (cr *chanRun) fillStaging() {
	rc := cr.rr.rc
	if rc.crashed {
		return
	}
	depth := rc.comm.cfg.PipelineDepth
	for cr.stageReq < len(cr.sends) && cr.stageReq < cr.acked+depth {
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
// itself observing the transfer's three stages (rdma.Completion).
func (cr *chanRun) Fire(i int32) {
	if cr.rr.rc.crashed {
		return
	}
	cr.link.Send(cr.sends[i], cr, i)
}

// OnTransmit implements rdma.Completion.
func (cr *chanRun) OnTransmit(int32) {
	if cr.rr.rc.crashed {
		return
	}
	cr.transmitted++
}

// OnDeliver implements rdma.Completion: the chunk landed at our ring
// successor (or the SendRecv destination).
func (cr *chanRun) OnDeliver(int32) {
	if cr.peer != nil {
		cr.peer.onDelivered()
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
	for _, cr := range rr.chans {
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

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

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
