// Package train simulates a Megatron-style LLM training job on the
// substrates: it builds the cluster (nodes, GPUs, NICs), the per-host trace
// rings and collector agents, the TP/PP/DP communicators, and drives a
// per-rank iteration script: the dataloader fetch; the forward pass over
// pipeline positions 0..PP-1 (at the rank's own stage, per-layer compute,
// each layer followed by its TP all-reduce; a pipeline send/recv between
// positions); the backward pass back down at twice the compute; the
// data-parallel gradient all-reduce; and a checkpoint write every
// CheckpointEvery iterations. The script is a resumable state machine
// (script.go): a rank parks on a collective, on GPU compute or on a sleep,
// and the communicator, the GPU or the engine resumes it where it stopped;
// a compute stall is tested again on resume, so it freezes a rank mid-layer.
//
// Each rank launches a collective only when its own script reaches it
// (Hold/Release on the communicator), which is what produces the late-start
// and lagging-op_seq signatures Mycroft's analysis consumes. The package
// also exposes the fault hooks used by the injection experiments.
package train

import (
	"fmt"
	"time"

	"mycroft/internal/ccl"
	"mycroft/internal/clouddb"
	"mycroft/internal/collector"
	"mycroft/internal/flightrec"
	"mycroft/internal/gpusim"
	"mycroft/internal/pystack"
	"mycroft/internal/rdma"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// Config sizes a job. Zero values take defaults that give ~2.5 s iterations
// on the paper's 32-GPU testbed shape.
type Config struct {
	Topo topo.Config

	// Model schedule.
	LayersPerStage  int           // transformer layers per pipeline stage (default 2)
	ComputePerLayer time.Duration // forward compute per layer (default 300 ms; backward is 2×)
	TPBytesPerLayer int64         // TP all-reduce payload per layer (default 64 MiB)
	PPBytes         int64         // pipeline activation transfer (default 32 MiB)
	DPBytes         int64         // gradient all-reduce payload (default 512 MiB)
	DataloaderDelay time.Duration // per-iteration fetch (default 50 ms)
	MasterExtra     time.Duration // extra work on rank 0 (the heavier master of §9)
	// ComputeJitter adds uniform ±fraction noise to every compute phase
	// (e.g. 0.1 = ±10%), making workloads realistically non-deterministic
	// in duration while staying seed-deterministic. Default 0.
	ComputeJitter float64
	// CheckpointEvery pauses all ranks for checkpointDelay every N
	// iterations (0 = never). Checkpointing happens outside the CCL, so a
	// stuck checkpoint is py-spy's case, not Mycroft's (§6.2).
	CheckpointEvery int

	// Substrate. NICs and GPUs are rdma.DefaultNIC and gpusim.DefaultGPU.
	CCL ccl.Config

	// Trace pipeline.
	Collector collector.Config
	Retention time.Duration // cloud DB retention (default 0: keep all)

	// DisableTracing turns Mycroft tracepoints off entirely (the no-tracing
	// overhead baseline).
	DisableTracing bool
}

// Fixed parts of the substrate.
const (
	checkpointDelay    = 200 * time.Millisecond // each checkpoint's pause
	ringCapacity       = 1 << 16                // per-host trace ring slots
	flightRecorderSize = 64                     // flight-recorder entries per rank
)

// JobProfile selects the workload mix of JobConfig.
type JobProfile int

const (
	// ComputeHeavy: iteration dominated by compute (failure-class faults).
	ComputeHeavy JobProfile = iota
	// CommHeavy: iteration dominated by collective time (degradation-class
	// faults, bandwidth experiments).
	CommHeavy
)

// JobConfig is the evaluation's job for a topology and profile: the default
// workload of a mycroft.JobOptions, the experiments and the scenarios.
func JobConfig(tc topo.Config, profile JobProfile) Config {
	cfg := Config{
		Topo:            tc,
		LayersPerStage:  2,
		TPBytesPerLayer: 32 << 20,
		PPBytes:         16 << 20,
		Collector:       collector.Config{DrainPeriod: 50 * time.Millisecond, UploadLatency: 500 * time.Millisecond},
	}
	switch profile {
	case CommHeavy:
		cfg.ComputePerLayer = 100 * time.Millisecond
		cfg.DPBytes = 1 << 30
	default:
		cfg.ComputePerLayer = 300 * time.Millisecond
		cfg.DPBytes = 256 << 20
	}
	return cfg
}

func (c Config) withDefaults() Config {
	if c.LayersPerStage <= 0 {
		c.LayersPerStage = 2
	}
	if c.ComputePerLayer <= 0 {
		c.ComputePerLayer = 300 * time.Millisecond
	}
	if c.TPBytesPerLayer <= 0 {
		c.TPBytesPerLayer = 64 << 20
	}
	if c.PPBytes <= 0 {
		c.PPBytes = 32 << 20
	}
	if c.DPBytes <= 0 {
		c.DPBytes = 512 << 20
	}
	if c.DataloaderDelay <= 0 {
		c.DataloaderDelay = 50 * time.Millisecond
	}
	if c.ComputeJitter < 0 || c.ComputeJitter >= 1 {
		c.ComputeJitter = 0
	}
	return c
}

// Job is a running simulated training job.
type Job struct {
	Eng     *sim.Engine
	Cluster *topo.Cluster
	Cfg     Config

	NICs []*rdma.NIC
	GPUs []*gpusim.GPU

	Rings  map[topo.IP]*trace.Ring
	Agents []*collector.Agent
	DB     *clouddb.DB

	TPComms []*ccl.Communicator // indexed by TP group index
	PPComms []*ccl.Communicator
	DPComms []*ccl.Communicator
	byComm  map[uint64]*ccl.Communicator

	FlightRec *flightrec.Recorder
	PyStack   *pystack.Sampler

	ranks []*rankDriver

	// Iteration bookkeeping.
	iterDone  []int // per rank
	iterStart map[int]sim.Time
	iterEnd   map[int]sim.Time
	doneRanks map[int]int // ranks done, per iteration some rank has yet to finish
	// OnIteration fires when every rank finishes iteration i.
	OnIteration func(i int, start, end sim.Time)
	// OnRankIteration fires as each individual rank finishes an iteration —
	// the black-box timing feed: per-rank completion timestamps and nothing
	// else, which is exactly what the perf diagnosis channel consumes.
	OnRankIteration func(rank topo.Rank, iter int, at sim.Time)

	// Bandwidth accounting: gradient all-reduces completed and the sum of
	// their bus bandwidths.
	dpOps    int
	dpBusSum float64

	stopped bool
}

// commState orders submitted ops per communicator for the await protocol.
type commState struct {
	comm      *ccl.Communicator
	submitted int
	// pending is the window of submitted ops some rank has yet to finish
	// with: op number n lives at pending[n-base]. An op leaves the front
	// once every rank has arrived at it and every waiter has resumed, so
	// a long-running job holds its in-flight ops, not its history.
	pending  []*pendingOp
	base     int
	free     []*pendingOp // entries nothing refers to any more, for entry to reuse
	onOpDone func(*ccl.Op, sim.Time)
	// skipNext holds the ranks SkipNextDPLaunch asked to skip the next op
	// submitted here; that submit consumes it.
	skipNext map[topo.Rank]bool
}

// pendingOp is the await protocol's state for one submitted op. Entries
// belong to their commState, which reuses them: the slice and the two
// callbacks the CCL is handed are made once per entry, not once per op.
type pendingOp struct {
	op      *ccl.Op
	skip    map[topo.Rank]bool // ranks that silently skip the op
	waiters []*rankDriver      // ranks parked on the op, by group index
	waiting int                // how many of them are set
	arrived int                // ranks whose script has reached the op
	// refs is 2 at submit: the window's, dropped by release, and the CCL's,
	// dropped when the op completes (if it deadlocks the entry is garbage).
	refs       int
	onRankDone func(topo.Rank, sim.Time)
	onAllDone  func(sim.Time)
}

// entry returns a blank pendingOp, a used one when there is one.
func (cs *commState) entry() *pendingOp {
	if n := len(cs.free); n > 0 {
		p := cs.free[n-1]
		cs.free = cs.free[:n-1]
		return p
	}
	p := &pendingOp{waiters: make([]*rankDriver, cs.comm.Size())}
	p.onRankDone = func(r topo.Rank, _ sim.Time) {
		cs.comm.Hold(r)
		i := cs.comm.IndexOf(r)
		if w := p.waiters[i]; w != nil {
			p.waiters[i] = nil
			p.waiting--
			cs.release()
			w.run()
		}
	}
	p.onAllDone = func(t sim.Time) {
		if cs.onOpDone != nil && p.op != nil {
			cs.onOpDone(p.op, t)
		}
		cs.unref(p)
	}
	return p
}

// unref drops one of p's two references; the second one frees it, and the
// CCL's handle on its op, for reuse.
func (cs *commState) unref(p *pendingOp) {
	if p.refs--; p.refs == 0 {
		p.op.Free()
		p.op, p.skip, p.arrived = nil, nil, 0
		cs.free = append(cs.free, p)
	}
}

// release drops fully-served ops from the front of the window.
func (cs *commState) release() {
	for len(cs.pending) > 0 {
		p := cs.pending[0]
		if p.arrived < cs.comm.Size() || p.waiting > 0 {
			return
		}
		last := copy(cs.pending, cs.pending[1:]) // the window is a handful of ops
		cs.pending[last] = nil
		cs.pending = cs.pending[:last]
		cs.base++
		cs.unref(p)
	}
}

// commSeat is one rank's place on one of its communicators.
type commSeat struct {
	*commState
	group   int // the rank's group index
	awaited int // ops of this communicator the rank's script has reached
}

// rankDriver runs one rank's iteration script (script.go).
type rankDriver struct {
	job   *Job
	rank  topo.Rank
	coord topo.Coord
	tp    commSeat
	pp    commSeat
	dp    commSeat
	iter  int

	// Where the script resumes: the step, the pipeline position, the layer
	// at that position, and which pass it is in.
	step     step
	k, l     int
	backward bool

	computeStalled bool
	dataStalled    bool
	ckptStalled    bool
}

// New builds the job. Call Start to begin iterating.
func New(eng *sim.Engine, cfg Config) (*Job, error) {
	cfg = cfg.withDefaults()
	cl, err := topo.New(cfg.Topo)
	if err != nil {
		return nil, err
	}
	j := &Job{
		Eng: eng, Cluster: cl, Cfg: cfg,
		Rings:     make(map[topo.IP]*trace.Ring),
		byComm:    make(map[uint64]*ccl.Communicator),
		iterStart: make(map[int]sim.Time),
		iterEnd:   make(map[int]sim.Time),
		doneRanks: make(map[int]int),
	}
	j.FlightRec = flightrec.New(eng, flightRecorderSize)
	j.PyStack = pystack.New(eng)
	j.DB = clouddb.New(eng, cfg.Retention)

	world := cl.WorldSize()
	j.iterDone = make([]int, world)
	nic, gpu := rdma.DefaultNIC(), gpusim.DefaultGPU()
	for r := 0; r < world; r++ {
		j.NICs = append(j.NICs, rdma.NewNIC(eng, rdma.NICID(r), fmt.Sprintf("nic%d", r), nic))
		j.GPUs = append(j.GPUs, gpusim.New(eng, gpusim.ID(r), gpu))
	}
	for _, node := range cl.Nodes {
		ring := trace.NewRing(ringCapacity)
		j.Rings[node.IP] = ring
		j.Agents = append(j.Agents, collector.NewAgent(eng, ring, j.DB, cfg.Collector))
	}

	cclCfg := cfg.CCL
	cclCfg.SinkFor = func(r topo.Rank) trace.Sink {
		if cfg.DisableTracing {
			return trace.Null
		}
		return j.Rings[cl.IPOf(r)]
	}
	baseLaunch := cclCfg.OnLaunch
	cclCfg.OnLaunch = func(r topo.Rank, m ccl.OpMeta) {
		j.FlightRec.Record(r, m)
		if baseLaunch != nil {
			baseLaunch(r, m)
		}
	}

	mkInfos := func(g *topo.Group) []ccl.RankInfo {
		infos := make([]ccl.RankInfo, len(g.Ranks))
		for i, r := range g.Ranks {
			infos[i] = ccl.RankInfo{
				Rank: r, IP: cl.IPOf(r), Node: cl.NodeOf(r).ID,
				GPU: j.GPUs[r], NIC: j.NICs[r],
			}
		}
		return infos
	}
	nextCommID := uint64(1)
	build := func(groups []*topo.Group) []*ccl.Communicator {
		var out []*ccl.Communicator
		for _, g := range groups {
			c := ccl.NewCommunicator(eng, nextCommID, mkInfos(g), cclCfg)
			nextCommID++
			j.byComm[c.ID()] = c
			out = append(out, c)
		}
		return out
	}
	j.TPComms = build(cl.TPGroups())
	j.PPComms = build(cl.PPGroups())
	j.DPComms = build(cl.DPGroups())

	for r := 0; r < world; r++ {
		rank := topo.Rank(r)
		co := cl.CoordOf(rank)
		rd := &rankDriver{job: j, rank: rank, coord: co}
		j.ranks = append(j.ranks, rd)
		j.PyStack.Set(rank, pystack.FrameIdle)
	}
	// Wire comm states after all drivers exist.
	tpStates := commStates(j.TPComms)
	ppStates := commStates(j.PPComms)
	dpStates := commStates(j.DPComms)
	R := float64(cl.DP)
	for _, cs := range dpStates {
		cs.onOpDone = func(op *ccl.Op, _ sim.Time) {
			j.dpOps++
			if d := op.DoneTime().Sub(op.StartTime()); d > 0 {
				j.dpBusSum += 2 * (R - 1) / R * float64(op.Meta().Bytes) / d.Seconds()
			}
		}
	}
	for _, rd := range j.ranks {
		rd.tp = commSeat{commState: tpStates[tpIndex(cl, rd.coord)], group: rd.coord.TP}
		rd.pp = commSeat{commState: ppStates[ppIndex(cl, rd.coord)], group: rd.coord.PP}
		rd.dp = commSeat{commState: dpStates[dpIndex(cl, rd.coord)], group: rd.coord.DP}
	}
	// Every rank starts held on all its comms; the script releases.
	for _, rd := range j.ranks {
		rd.tp.comm.Hold(rd.rank)
		rd.pp.comm.Hold(rd.rank)
		rd.dp.comm.Hold(rd.rank)
	}
	return j, nil
}

// MustNew is New for known-good configs.
func MustNew(eng *sim.Engine, cfg Config) *Job {
	j, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return j
}

func commStates(comms []*ccl.Communicator) []*commState {
	out := make([]*commState, len(comms))
	for i, c := range comms {
		out[i] = &commState{comm: c}
	}
	return out
}

// Group index helpers matching topo group construction order.
func tpIndex(cl *topo.Cluster, c topo.Coord) int { return c.DP*cl.PP + c.PP }
func ppIndex(cl *topo.Cluster, c topo.Coord) int { return c.DP*cl.TP + c.TP }
func dpIndex(cl *topo.Cluster, c topo.Coord) int { return c.PP*cl.TP + c.TP }

// Start launches every rank's script.
func (j *Job) Start() {
	for _, rd := range j.ranks {
		j.Eng.Schedule(j.Eng.Now(), rd, 0)
	}
}

// Stop halts new iterations and closes communicators' tickers.
func (j *Job) Stop() {
	j.stopped = true
	for _, c := range j.byComm {
		c.Close()
	}
	for _, a := range j.Agents {
		a.Stop()
	}
}

// CommOf returns the communicator with the given id.
func (j *Job) CommOf(id uint64) *ccl.Communicator { return j.byComm[id] }

// IterationsDone returns the minimum iteration count across ranks.
func (j *Job) IterationsDone() int {
	min := int(^uint(0) >> 1)
	for _, n := range j.iterDone {
		if n < min {
			min = n
		}
	}
	return min
}

// IterationTime returns iteration i's global start/end, if complete.
func (j *Job) IterationTime(i int) (start, end sim.Time, ok bool) {
	s, ok1 := j.iterStart[i]
	e, ok2 := j.iterEnd[i]
	return s, e, ok1 && ok2
}

// MeanIterationTime averages the first n complete iterations.
func (j *Job) MeanIterationTime(n int) (time.Duration, bool) {
	var sum time.Duration
	var count int
	for i := 0; i < n; i++ {
		if s, e, ok := j.IterationTime(i); ok {
			sum += e.Sub(s)
			count++
		}
	}
	if count == 0 {
		return 0, false
	}
	return sum / time.Duration(count), true
}

// DPBusBandwidth returns the mean achieved bus bandwidth of the gradient
// all-reduces (the nccl-tests metric: 2(R−1)/R × bytes / time), in bytes/s.
func (j *Job) DPBusBandwidth() (float64, bool) {
	if j.dpOps == 0 || j.Cluster.DP < 2 {
		return 0, false
	}
	return j.dpBusSum / float64(j.dpOps), true
}

// --- fault hooks (used by the faults package and experiments) ---

// StallCompute makes rank r's next compute step never finish (a hang outside
// the CCL: the rank will stop launching collectives).
func (j *Job) StallCompute(r topo.Rank) { j.ranks[r].computeStalled = true }

// StallDataloader makes rank r's dataloader block forever.
func (j *Job) StallDataloader(r topo.Rank) { j.ranks[r].dataStalled = true }

// StallCheckpoint makes rank r's next checkpoint write block forever
// (requires CheckpointEvery > 0 for the phase to exist).
func (j *Job) StallCheckpoint(r topo.Rank) { j.ranks[r].ckptStalled = true }

// StartBackgroundTraffic floods rank r's NIC with external traffic toward a
// neighbouring node's NIC, modelling the congestion fault class: the
// victim's own flows contend with traffic Mycroft has no visibility into,
// and only the flow-level pressure pattern remains. share ∈ (0,1) is the
// fraction of the NIC the flood occupies (it keeps share/(1−share) bursts
// outstanding, so a FIFO NIC serves the victim the remaining slice).
// Returns a stop function.
func (j *Job) StartBackgroundTraffic(r topo.Rank, share float64) (stop func()) {
	if share <= 0 || share >= 1 {
		share = 0.9
	}
	k := int(share/(1-share) + 0.5)
	if k < 1 {
		k = 1
	}
	src := j.NICs[r]
	dst := j.NICs[(int(r)+j.Cfg.Topo.GPUsPerNode)%j.Cluster.WorldSize()]
	qp := rdma.NewQP(990000+int(r), src, dst)
	const burst = 4 << 20
	stopped := false
	var post func()
	post = func() {
		if stopped {
			return
		}
		qp.PostWrite(burst, nil, post) // repost on CQE: steady k outstanding
	}
	for i := 0; i < k; i++ {
		post()
	}
	return func() { stopped = true }
}

// SkipNextDPLaunch makes rank r silently skip its next DP all-reduce — the
// synchronization mismatch only the Flight Recorder can explain.
func (j *Job) SkipNextDPLaunch(r topo.Rank) {
	cs := j.ranks[r].dp.commState
	if cs.skipNext == nil {
		cs.skipNext = make(map[topo.Rank]bool)
	}
	cs.skipNext[r] = true
}

// CrashProxy crashes rank r's proxies on all its communicators.
func (j *Job) CrashProxy(r topo.Rank) {
	rd := j.ranks[r]
	rd.tp.comm.CrashProxy(r)
	rd.pp.comm.CrashProxy(r)
	rd.dp.comm.CrashProxy(r)
}
