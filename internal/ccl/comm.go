// Package ccl implements an NCCL-like collective communication library on
// top of the simulated RDMA and GPU substrates. It reproduces the structure
// Mycroft instruments (§4.2 of the paper):
//
//   - A Communicator owns several "channels" (network flows). Each channel is
//     a ring over the communicator's ranks; rings are rotated inside each
//     node per channel so different channels cross nodes through different
//     NICs, as NCCL does.
//   - An operation's payload is split across channels, and each channel
//     pipelines fixed-size chunks through the ring: step s on rank r may send
//     only after (a) the local GPU staged the chunk into the proxy buffer and
//     (b) step s−1 on rank r−1 was delivered. These are the intra- and
//     inter-node dependencies of §3.1.
//   - A per-rank proxy maintains the Table 2 chunk counters (total_chunks,
//     GPU_ready, RDMA_transmitted, RDMA_done, stuck_time) and emits
//     completion logs and periodic real-time state logs into a trace.Sink.
//
// Operations on one communicator serialize per rank (stream order), but
// ranks progress independently: a healthy rank finishes op k and moves to
// op k+1 while a faulty rank is still stuck on k — which is exactly what
// makes the minimum-op_seq analysis of Algorithm 2 work.
//
// State logs. One ticker per communicator writes the state logs of every
// member rank whose proxy is alive, in group order, each period. The records
// and their order are what one ticker per rank would give: those tickers
// would be armed one after another in NewCommunicator, writing a log
// schedules nothing, and each would re-arm straight after its callback, so a
// communicator's rank ticks would always fall back to back at the same
// instant with nothing between them. One event a period does their work.
//
// Planning. A training iteration submits the same collectives with the same
// shapes as the one before it, so what an op moves is worked out once per
// shape — (Kind, Bytes, Root, Src, Dst) on one communicator — on the first
// Submit of that shape, and kept: one chunk-size list shared by every sender,
// and per (rank, channel) its link, the rank its sends land at, its ring
// dependency offset and how many chunks it must receive. A plan is read-only
// and a communicator holds as many as it has been asked for distinct shapes;
// derivePlan is the only code that makes one. What is per op is its frame: an
// opRun, one slab of rank shares and one slab of channel pipelines whose
// counters start at zero, each pipeline a copy of its plan entry plus a
// pointer to the peer's pipeline in the same frame (nil when OpSpec.Skip
// leaves that peer out — who skips belongs to the op, not to the shape).
// A frame is reused once nothing refers to it: every rank has passed the op,
// and the caller has given back the *Op Submit returned with Op.Free. Every
// op on a communicator has the same ranks and channels, so any spare frame
// fits the next Submit, and a caller that frees each handle (the training
// layer does) runs its steady state without a malloc. A caller that keeps a
// handle keeps its frame: Done, DoneTime, RankStart, RankDone and Snapshot
// keep answering for that op after the communicator has moved on, and the
// frame is garbage once the last holder lets go.
package ccl

import (
	"fmt"
	"time"

	"mycroft/internal/gpusim"
	"mycroft/internal/rdma"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// RankInfo binds a rank to its hardware resources.
type RankInfo struct {
	Rank topo.Rank
	IP   topo.IP
	Node topo.NodeID
	GPU  *gpusim.GPU
	NIC  *rdma.NIC
}

// ChunkStage identifies a chunk-pipeline tracepoint, consumed by
// kernel-level baseline tracers.
type ChunkStage uint8

const (
	// StageGPUReady: the GPU staged a chunk into the proxy buffer.
	StageGPUReady ChunkStage = iota + 1
	// StageTransmit: the proxy handed a chunk's WR to the NIC
	// (RDMA_transmitted).
	StageTransmit
	// StageDone: the proxy polled the chunk's CQE.
	StageDone
)

func (s ChunkStage) String() string {
	switch s {
	case StageGPUReady:
		return "gpu_ready"
	case StageTransmit:
		return "rdma_transmitted"
	case StageDone:
		return "rdma_done"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// OpMeta is the framework-visible identity of one collective operation.
type OpMeta struct {
	CommID uint64
	Seq    uint64
	Kind   trace.OpKind
	Bytes  int64
}

const (
	// pipelineDepth bounds chunks staged ahead of transmission (the
	// preallocated GPU buffer slots).
	pipelineDepth = 4
	// nvlinkBandwidth (B/s) and nvlinkLatency characterize intra-node hops.
	nvlinkBandwidth = 200e9
	nvlinkLatency   = time.Microsecond
)

// Config tunes a communicator. Zero values take defaults.
type Config struct {
	// Channels is the number of network flows (NCCL channels). Default 2.
	Channels int
	// ChunkBytes is the pipeline chunk size — "the smallest data unit per
	// network path" (§3.2). Default 4 MiB.
	ChunkBytes int64
	// StateLogPeriod is the real-time state log interval. Default 100 ms.
	StateLogPeriod time.Duration

	// SinkFor returns the trace sink for a rank (its host's ring buffer).
	// Default: trace.Null for every rank.
	SinkFor func(topo.Rank) trace.Sink

	// OnLaunch fires when a rank's framework layer launches an op
	// (Flight-Recorder integration point).
	OnLaunch func(topo.Rank, OpMeta)
	// OnComplete fires when a rank finishes an op (Op-level tracers).
	OnComplete func(topo.Rank, OpMeta, sim.Time, sim.Time)
	// OnChunkEvent fires for every chunk pipeline stage (Kernel-level
	// tracers). High-volume.
	OnChunkEvent func(topo.Rank, ChunkStage, int64)
	// ChunkOverhead is added to the critical path before each chunk send is
	// posted, modelling synchronous per-event instrumentation cost
	// (kernel-level tracers pay this; Mycroft's asynchronous tracepoints do
	// not). Default 0.
	ChunkOverhead time.Duration
}

func (c Config) withDefaults() Config {
	if c.Channels <= 0 {
		c.Channels = 2
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 4 << 20
	}
	if c.StateLogPeriod <= 0 {
		c.StateLogPeriod = 100 * time.Millisecond
	}
	if c.SinkFor == nil {
		c.SinkFor = func(topo.Rank) trace.Sink { return trace.Null }
	}
	return c
}

// rankCtx is the per-rank proxy context, persistent across ops.
type rankCtx struct {
	comm    *Communicator
	idx     int
	info    RankInfo
	sink    trace.Sink
	crashed bool
	held    bool // rank busy outside the CCL (compute, dataloader…)
	cursor  int  // number of the next op this rank will work on (see Communicator.ops)
	pumping bool // re-entrancy guard for pump

	overheadBusy sim.Time // serialization point for synchronous tracer cost
}

// Communicator is an ordered group of ranks with per-channel ring links.
type Communicator struct {
	eng    *sim.Engine
	id     uint64
	cfg    Config
	ranks  []*rankCtx
	byRank map[topo.Rank]*rankCtx

	// Per channel: ring positions and links.
	ringPos  [][]int       // [ch][rankIdx] -> position in ring
	ringIdx  [][]int       // [ch][pos] -> rankIdx
	nextIdx  [][]int       // [ch][rankIdx] -> successor rankIdx
	prevIdx  [][]int       // [ch][rankIdx] -> predecessor rankIdx
	sendLink [][]rdma.Link // [ch][rankIdx] -> link to successor
	backLink [][]rdma.Link // [ch][rankIdx] -> link to predecessor
	qpid     [][]int       // [ch][rankIdx] -> qp id of successor link

	direct map[directKey]rdma.Link // lazy point-to-point links for SendRecv
	plans  map[shape][]chanPlan    // lazy, see plan

	// ops is the window of ops some rank has yet to pass: op number n lives
	// at ops[n-opsBase]. An op leaves the front once every rank's cursor has
	// moved beyond it, so a long-running job holds its in-flight ops, not
	// every op it ever ran.
	ops     []*opRun
	opsBase int
	spare   *opRun // frames of freed, passed ops, linked through next
	nextSeq uint64
	nextQP  int
	ticker  *sim.Ticker // state logs, see the package comment
	closed  bool
}

type directKey struct {
	ch       int
	src, dst int
}

// NewCommunicator builds a communicator over ranks (group order is
// significant: pipeline stages, ring construction and root indices all use
// it). id becomes comm_id in trace metadata.
func NewCommunicator(eng *sim.Engine, id uint64, ranks []RankInfo, cfg Config) *Communicator {
	if len(ranks) == 0 {
		panic("ccl: empty communicator")
	}
	cfg = cfg.withDefaults()
	c := &Communicator{
		eng: eng, id: id, cfg: cfg,
		byRank: make(map[topo.Rank]*rankCtx, len(ranks)),
		direct: make(map[directKey]rdma.Link),
	}
	for i, ri := range ranks {
		rc := &rankCtx{comm: c, idx: i, info: ri, sink: cfg.SinkFor(ri.Rank)}
		c.ranks = append(c.ranks, rc)
		if _, dup := c.byRank[ri.Rank]; dup {
			panic(fmt.Sprintf("ccl: duplicate rank %d in communicator %d", ri.Rank, id))
		}
		c.byRank[ri.Rank] = rc
	}
	c.buildRings()
	c.ticker = eng.NewTicker(cfg.StateLogPeriod, c.emitStateLogs)
	return c
}

// buildRings constructs one ring per channel. Ranks hosted on the same node
// appear as contiguous runs (in group order); each channel rotates every run
// by the channel index so the inter-node hop leaves through a different
// GPU's NIC per channel, spreading load across NICs as NCCL does.
func (c *Communicator) buildRings() {
	R := len(c.ranks)
	C := c.cfg.Channels
	c.ringPos = make([][]int, C)
	c.ringIdx = make([][]int, C)
	c.nextIdx = make([][]int, C)
	c.prevIdx = make([][]int, C)
	c.sendLink = make([][]rdma.Link, C)
	c.backLink = make([][]rdma.Link, C)
	c.qpid = make([][]int, C)

	// Group contiguous same-node runs (indices into c.ranks).
	var runs [][]int
	for i := 0; i < R; i++ {
		if i > 0 && c.ranks[i].info.Node == c.ranks[i-1].info.Node {
			runs[len(runs)-1] = append(runs[len(runs)-1], i)
		} else {
			runs = append(runs, []int{i})
		}
	}

	for ch := 0; ch < C; ch++ {
		ring := make([]int, 0, R)
		for _, run := range runs {
			off := ch % len(run)
			for k := 0; k < len(run); k++ {
				ring = append(ring, run[(off+k)%len(run)])
			}
		}
		c.ringIdx[ch] = ring
		c.ringPos[ch] = make([]int, R)
		c.nextIdx[ch] = make([]int, R)
		c.prevIdx[ch] = make([]int, R)
		c.sendLink[ch] = make([]rdma.Link, R)
		c.backLink[ch] = make([]rdma.Link, R)
		c.qpid[ch] = make([]int, R)
		for pos, idx := range ring {
			c.ringPos[ch][idx] = pos
		}
		if R == 1 {
			continue // single-rank comm: no links
		}
		for pos, idx := range ring {
			succ := ring[(pos+1)%R]
			pred := ring[(pos-1+R)%R]
			c.nextIdx[ch][idx] = succ
			c.prevIdx[ch][idx] = pred
			c.sendLink[ch][idx] = c.makeLink(ch, idx, succ)
			c.backLink[ch][idx] = c.makeLink(ch, idx, pred)
			qpID, _ := c.sendLink[ch][idx].Describe()
			c.qpid[ch][idx] = qpID
		}
	}
}

// makeLink creates the transport from rank index a to rank index b: NVLink
// when co-located, an RDMA QP otherwise.
func (c *Communicator) makeLink(ch, a, b int) rdma.Link {
	c.nextQP++
	id := int(c.id)*100000 + c.nextQP
	ra, rb := c.ranks[a].info, c.ranks[b].info
	if ra.Node == rb.Node {
		return rdma.NewNVLink(c.eng, id, nvlinkBandwidth, nvlinkLatency)
	}
	return rdma.NewQP(id, ra.NIC, rb.NIC).AsLink()
}

// directLink returns (lazily creating) a dedicated point-to-point link for
// SendRecv between arbitrary group members, reusing ring links when the pair
// is ring-adjacent on the channel.
func (c *Communicator) directLink(ch, src, dst int) rdma.Link {
	if c.nextIdx[ch][src] == dst && c.sendLink[ch][src] != nil {
		return c.sendLink[ch][src]
	}
	if c.prevIdx[ch][src] == dst && c.backLink[ch][src] != nil {
		return c.backLink[ch][src]
	}
	k := directKey{ch: ch, src: src, dst: dst}
	if l, ok := c.direct[k]; ok {
		return l
	}
	l := c.makeLink(ch, src, dst)
	c.direct[k] = l
	return l
}

// opAt returns op number n, or nil when it has not been submitted yet. n is
// never below the window: a rank's cursor only moves forward and the window
// only drops what every cursor has passed.
func (c *Communicator) opAt(n int) *opRun {
	if i := n - c.opsBase; i < len(c.ops) {
		return c.ops[i]
	}
	return nil
}

// ID returns the communicator id (comm_id in trace metadata).
func (c *Communicator) ID() uint64 { return c.id }

// Size returns the number of ranks.
func (c *Communicator) Size() int { return len(c.ranks) }

// Ranks returns the member ranks in group order.
func (c *Communicator) Ranks() []topo.Rank {
	out := make([]topo.Rank, len(c.ranks))
	for i, rc := range c.ranks {
		out[i] = rc.info.Rank
	}
	return out
}

// IndexOf returns the group index of rank r, or -1.
func (c *Communicator) IndexOf(r topo.Rank) int {
	if rc, ok := c.byRank[r]; ok {
		return rc.idx
	}
	return -1
}

// Pending returns how many submitted ops some rank has yet to pass — what the
// communicator still holds. A healthy job keeps it at a handful however long
// it runs; it grows only while a rank is stuck.
func (c *Communicator) Pending() int { return len(c.ops) }

// NextSeq returns the op_seq the next submitted op will get.
func (c *Communicator) NextSeq() uint64 { return c.nextSeq }

// CrashProxy simulates the NCCL proxy thread of rank r exiting: counters
// freeze, no further chunks move, and — critically — state logs stop being
// emitted (§4.2: logs are generated "until the CollOp completes or the NCCL
// proxy thread exits or crashes").
func (c *Communicator) CrashProxy(r topo.Rank) {
	rc, ok := c.byRank[r]
	if !ok {
		panic(fmt.Sprintf("ccl: rank %d not in communicator %d", r, c.id))
	}
	rc.crashed = true
}

// ProxyCrashed reports whether rank r's proxy has crashed.
func (c *Communicator) ProxyCrashed(r topo.Rank) bool {
	rc, ok := c.byRank[r]
	return ok && rc.crashed
}

// Hold marks rank r busy outside the CCL (a compute phase, the dataloader, a
// checkpoint write): it will not launch queued ops until Release. This is
// how the training layer models each rank calling a collective only when its
// own computation finishes — the source of late starts and lagging op_seq.
func (c *Communicator) Hold(r topo.Rank) {
	rc, ok := c.byRank[r]
	if !ok {
		panic(fmt.Sprintf("ccl: rank %d not in communicator %d", r, c.id))
	}
	rc.held = true
}

// Release lets a held rank resume launching queued ops.
func (c *Communicator) Release(r topo.Rank) {
	rc, ok := c.byRank[r]
	if !ok {
		panic(fmt.Sprintf("ccl: rank %d not in communicator %d", r, c.id))
	}
	if !rc.held {
		return
	}
	rc.held = false
	rc.pump()
}

// Close stops the state logs. The communicator must not be used afterwards.
func (c *Communicator) Close() {
	c.closed = true
	c.ticker.Stop()
}

// emitStateLogs is the state-log tick: every rank's logs, in group order.
func (c *Communicator) emitStateLogs(now sim.Time) {
	for _, rc := range c.ranks {
		rc.emitStateLogs(now)
	}
}

// emitStateLogs writes one real-time state log per active channel for the
// rank's in-flight op, if any.
func (rc *rankCtx) emitStateLogs(now sim.Time) {
	if rc.crashed {
		return
	}
	op := rc.comm.opAt(rc.cursor)
	if op == nil {
		return // idle
	}
	rr := &op.rankRuns[rc.idx]
	if rr.skip || !rr.started || rr.done {
		return
	}
	for i := range rr.chans {
		cr := &rr.chans[i]
		rec := trace.Record{
			Kind: trace.KindState, Time: now,
			IP: rc.info.IP, CommID: rc.comm.id, Rank: rc.info.Rank,
			GPUID: int32(rc.info.GPU.ID()), Channel: int32(cr.ch), QPID: int32(cr.qpid),
			Op: op.meta.Kind, OpSeq: op.meta.Seq, MsgSize: op.meta.Bytes,
			Start:       rr.start,
			TotalChunks: uint32(len(cr.sends)),
			GPUReady:    uint32(cr.staged), RDMATransmitted: uint32(cr.posted), RDMADone: uint32(cr.acked),
			StuckNs: int64(now.Sub(cr.lastProgress)),
		}
		rc.sink.Emit(rec)
	}
}
