package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"mycroft"
)

// sizing is everything that scales a workload. The command line always runs
// fullSize; the smoke test runs toySize so tier-1 stays fast.
type sizing struct {
	simTopo   mycroft.TopoConfig // sim-512 and replay-512 job
	serveTopo mycroft.TopoConfig // serve-read and serve-live job
	horizon   time.Duration      // virtual time one repetition simulates
	faultAt   time.Duration      // virtual time of the (first) injected fault
	warmup    time.Duration      // untimed request warm-up on serve-*
	tick      time.Duration      // serve-live: wall time per virtual second
	readEvery time.Duration      // serve-live: one read is due this often
	postEvery time.Duration      // serve-live: one ingest post is due this often
	setups    int                // set-ups per run; setup_s is their median
}

// fullSize was sized on a 2-vCPU box (go1.24): one sim-512 repetition takes
// about 1.7 s and 600 MB, which is what keeps the 1024/4096-rank rungs out
// of this benchmark until the simulation substrate gets cheaper.
var fullSize = sizing{
	simTopo:   mycroft.TopoConfig{Nodes: 64, GPUsPerNode: 8, TP: 8, PP: 4, DP: 16},
	serveTopo: mycroft.TopoConfig{Nodes: 32, GPUsPerNode: 8, TP: 8, PP: 4, DP: 8},
	horizon:   60 * time.Second,
	faultAt:   15 * time.Second,
	warmup:    3 * time.Second,
	tick:      200 * time.Millisecond,
	readEvery: 10 * time.Millisecond,
	postEvery: 20 * time.Millisecond,
	setups:    3,
}

// toySize keeps the horizon (the fault must still be diagnosed and healed)
// and shrinks everything that costs wall time.
var toySize = sizing{
	simTopo:   mycroft.TopoConfig{Nodes: 2, GPUsPerNode: 8, TP: 2, PP: 2, DP: 4},
	serveTopo: mycroft.TopoConfig{Nodes: 2, GPUsPerNode: 8, TP: 2, PP: 2, DP: 4},
	horizon:   60 * time.Second,
	faultAt:   15 * time.Second,
	warmup:    100 * time.Millisecond,
	tick:      5 * time.Millisecond,
	readEvery: time.Millisecond,
	postEvery: 2 * time.Millisecond,
	setups:    2,
}

// runConfig is one invocation: which workload, on which seed, for how long.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string // directory for spans and the CPU profile ("" = none)
	size     sizing
}

// workloads maps the names in BENCHMARK.json to their implementations.
var workloads = map[string]func(runConfig, *spanLog) (metrics, tally, error){
	"sim-512":    runSim,
	"replay-512": runReplay,
	"serve-read": runServeRead,
	"serve-live": runServeLive,
}

// workloadOrder is the order a full set runs them in.
var workloadOrder = []string{"sim-512", "replay-512", "serve-read", "serve-live"}

// The paper's headline latencies: anomalies detected within 15 s, root cause
// within 20 s. Every injected fault is held to them.
const (
	detectLimit = 15 * time.Second
	rcaLimit    = 20 * time.Second
)

// selfHealBackend is the backend tuning SelfHealPolicy is sized for: a 10 s
// re-arm so a failed mitigation is re-detected inside the verify window.
var selfHealBackend = mycroft.BackendConfig{RearmDelay: 10 * time.Second}

// faultRanks lists the ranks a seed may fault: the first pipeline stage of
// every data-parallel replica but the first. Faulting any of them yields the
// same record count and the same diagnosis timeline, so runs on different
// seeds measure the same amount of work; ranks on later pipeline stages are
// misdiagnosed at 512 ranks with today's default thresholds (README.md), and
// a workload must not contain operations that fail.
func faultRanks(tc mycroft.TopoConfig) []mycroft.Rank {
	var out []mycroft.Rank
	for dp := 1; dp < tc.DP; dp++ {
		for tp := 0; tp < tc.TP; tp++ {
			out = append(out, mycroft.Rank(dp*tc.PP*tc.TP+tp))
		}
	}
	return out
}

// fault is one injected recoverable NIC-down.
type fault struct {
	rank mycroft.Rank
	at   time.Duration
}

func (f fault) spec() mycroft.Fault {
	return mycroft.Fault{Kind: mycroft.NICDown, Rank: f.rank, At: f.at}
}

// pickFault draws the one fault of a single-fault workload from the seed.
func pickFault(seed int64, tc mycroft.TopoConfig, at time.Duration) fault {
	ranks := faultRanks(tc)
	return fault{rank: ranks[rand.New(rand.NewSource(seed)).Intn(len(ranks))], at: at}
}

// diagnosis is what the system made of one fault, in virtual time from the
// injection; -1 marks a stage that never happened.
type diagnosis struct {
	detect, rca, heal time.Duration
}

// diagnose reads one fault's fate off a job's outputs: the first trigger at
// or after the injection, the first report naming the injected rank, and the
// remediation on that rank that was verified as succeeded. Only outputs
// before until (the next fault, or the horizon) count.
func diagnose(f fault, until time.Duration, trigs []mycroft.Trigger, reps []mycroft.Report, log []mycroft.RemedyAttempt) diagnosis {
	d := diagnosis{detect: -1, rca: -1, heal: -1}
	in := func(at time.Duration) bool { return at >= f.at && at < until }
	for _, tr := range trigs {
		if in(time.Duration(tr.At)) {
			d.detect = time.Duration(tr.At) - f.at
			break
		}
	}
	for _, rep := range reps {
		if rep.Suspect == f.rank && in(time.Duration(rep.AnalyzedAt)) {
			d.rca = time.Duration(rep.AnalyzedAt) - f.at
			break
		}
	}
	for _, a := range log {
		if a.Action.Rank == f.rank && a.Outcome == mycroft.RemedySucceeded && in(time.Duration(a.ReportedAt)) {
			d.heal = time.Duration(a.ResolvedAt) - f.at
			break
		}
	}
	return d
}

// problem says why the fault counts as a failed operation ("" when it does
// not): it must be detected and its root cause named within the paper's
// limits, and healed before the window closed.
func (d diagnosis) problem(f fault) string {
	switch {
	case d.detect < 0 || d.detect > detectLimit:
		return fmt.Sprintf("fault on rank %d at %v: detected after %v (limit %v)", f.rank, f.at, d.detect, detectLimit)
	case d.rca < 0 || d.rca > rcaLimit:
		return fmt.Sprintf("fault on rank %d at %v: root cause after %v (limit %v)", f.rank, f.at, d.rca, rcaLimit)
	case d.heal < 0:
		return fmt.Sprintf("fault on rank %d at %v: no remediation verified as succeeded", f.rank, f.at)
	}
	return ""
}

// falsePositives counts reports whose suspect was never injected.
func falsePositives(faults []fault, reps []mycroft.Report) int {
	injected := make(map[mycroft.Rank]bool, len(faults))
	for _, f := range faults {
		injected[f.rank] = true
	}
	n := 0
	for _, rep := range reps {
		if !injected[rep.Suspect] {
			n++
		}
	}
	return n
}

// outcomeSignature renders the trigger and report sequence so two runs of
// one seed can be compared for identity.
func outcomeSignature(trigs []mycroft.Trigger, reps []mycroft.Report) string {
	s := ""
	for _, tr := range trigs {
		s += fmt.Sprintf("T%d/%d/%v;", tr.At, tr.Rank, tr.Kind)
	}
	for _, rep := range reps {
		s += fmt.Sprintf("R%d/%d/%s;", rep.AnalyzedAt, rep.Suspect, rep.Category)
	}
	return s
}

// setUp builds a workload's fixture cfg.size.setups times, discarding all
// but the last, and returns it with the median build time: set-up time is a
// bounded metric, and one sample of it is one scheduling accident. Every
// build starts cold, with the heap collected and its pages handed back to
// the OS, as the first build of a process does: how much of the last
// fixture's memory the runtime has returned by the time the next build
// touches it varied a 0.1 s build to 0.2 s between identical runs.
func setUp[T any](cfg runConfig, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var took []float64
	for i := 0; i < cfg.size.setups; i++ {
		if i > 0 {
			discard(last)
			var zero T
			last = zero
		}
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if last, err = build(); err != nil {
			return last, 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return last, median(took), nil
}

// probeBudget is how long each micro-probe measures.
const probeBudget = 50 * time.Millisecond

// timeFor calls fn in doubling batches for probeBudget and returns wall
// nanoseconds and mallocs per call and the number of calls, for the
// micro-probes behind single-layer rows.
func timeFor(fn func()) (nsPerOp, allocsPerOp float64, n int) {
	before := readMem()
	start := time.Now()
	for batch := 1; time.Since(start) < probeBudget; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	wall := time.Since(start)
	mallocs := readMem().mallocs - before.mallocs
	return float64(wall) / float64(n), float64(mallocs) / float64(n), n
}
