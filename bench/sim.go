package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"
	"unsafe"

	"mycroft"
	"mycroft/internal/trace"
)

// simRep is what one repetition of the whole system measured.
type simRep struct {
	addJob, wall        time.Duration
	steps               []time.Duration // wall time of each virtual second
	mallocs             uint64
	records, events     uint64
	heapMB              float64
	signature           string
	diag                diagnosis
	triggers, reports   int
	falsePos            int
	attempts, succeeded int
	ringBytesPerRank    float64
}

// simFixture is what one repetition runs: a one-job Service with the
// self-heal policy attached, started, and the fault injected.
type simFixture struct {
	svc      *mycroft.Service
	h        *mycroft.JobHandle
	recorder *mycroft.Recorder // nil unless the run is captured
	addJob   time.Duration
}

// buildSimFixture is sim-512's set-up. With rec set the run is captured as an
// incident artifact.
func buildSimFixture(cfg runConfig, f fault, rec io.Writer, log *spanLog, root, rep int) (*simFixture, error) {
	fx := &simFixture{svc: mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.seed})}
	sp := log.begin("train.addjob", root, rep)
	start := time.Now()
	var err error
	fx.h, err = fx.svc.AddJob("sim", mycroft.JobOptions{Topo: cfg.size.simTopo, Backend: selfHealBackend})
	fx.addJob = time.Since(start)
	log.end(sp)
	if err != nil {
		return nil, err
	}
	if err := fx.svc.AttachPolicy("sim", mycroft.SelfHealPolicy()); err != nil {
		return nil, err
	}
	if rec != nil {
		if fx.recorder, err = fx.svc.Record("sim", rec); err != nil {
			return nil, err
		}
	}
	fx.svc.Start()
	fx.h.Inject(f.spec())
	return fx, nil
}

// simRepetition builds a fresh fixture and advances it one virtual second at
// a time to the horizon — what a daemon's drive loop does, so each step is
// also the longest a request would wait for the engine.
func simRepetition(cfg runConfig, f fault, rec io.Writer, log *spanLog, rep int) (simRep, error) {
	var r simRep
	root := log.begin("rep", 0, rep)
	fx, err := buildSimFixture(cfg, f, rec, log, root, rep)
	if err != nil {
		return r, err
	}
	svc, h, recorder := fx.svc, fx.h, fx.recorder
	r.addJob = fx.addJob

	before := readMem()
	start := time.Now()
	for at := time.Duration(0); at < cfg.size.horizon; at += time.Second {
		sp := log.begin("sim.run", root, rep)
		stepStart := time.Now()
		svc.Run(time.Second)
		r.steps = append(r.steps, time.Since(stepStart))
		log.end(sp)
	}
	r.wall = time.Since(start)
	r.mallocs = readMem().mallocs - before.mallocs
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			return r, fmt.Errorf("closing recorder: %w", err)
		}
	}

	r.records, r.events = h.RecordsIngested(), svc.Eng.Dispatched()
	trigs, reps, remlog := h.Triggers(), h.Reports(), h.RemediationLog()
	r.signature = outcomeSignature(trigs, reps)
	r.diag = diagnose(f, cfg.size.horizon+time.Second, trigs, reps, remlog)
	r.triggers, r.reports = len(trigs), len(reps)
	r.falsePos = falsePositives([]fault{f}, reps)
	r.attempts = len(remlog)
	for _, a := range remlog {
		if a.Outcome == mycroft.RemedySucceeded {
			r.succeeded++
		}
	}
	var slots int
	for _, ring := range h.Job.Rings {
		slots += ring.Capacity()
	}
	r.ringBytesPerRank = float64(slots) * float64(unsafe.Sizeof(trace.Record{})) / float64(h.WorldSize())
	r.heapMB = liveHeapMB() // the whole Service is still referenced here
	runtime.KeepAlive(svc)
	log.end(root)
	return r, nil
}

func simFault(cfg runConfig) fault { return pickFault(cfg.seed, cfg.size.simTopo, cfg.size.faultAt) }

// checkSimRep counts one repetition as one operation: the fault must be
// diagnosed and healed, and the repetition must reproduce the reference
// repetition of this seed exactly.
func checkSimRep(t *tally, f fault, r, ref simRep) {
	if msg := r.diag.problem(f); msg != "" {
		t.fail("%s", msg)
		return
	}
	t.check(r.records == ref.records && r.events == ref.events && r.signature == ref.signature,
		"repetition diverged from the first of its seed: %d records %d events vs %d/%d, or another trigger/report sequence",
		r.records, r.events, ref.records, ref.events)
}

func runSim(cfg runConfig, log *spanLog) (metrics, tally, error) {
	if cfg.traced {
		return runSimTraced(cfg, log)
	}
	var t tally
	f := simFault(cfg)
	_, setupS, err := setUp(cfg, func() (*simFixture, error) { return buildSimFixture(cfg, f, nil, nil, 0, 0) }, func(*simFixture) {})
	if err != nil {
		return nil, t, err
	}
	// One untimed repetition first: a cold 512-rank run costs twice a warm
	// one (page faults on a heap that has not grown yet).
	ref, err := simRepetition(cfg, f, nil, nil, 0)
	if err != nil {
		return nil, t, err
	}
	var reps []simRep
	start := time.Now()
	for time.Since(start) < cfg.seconds || len(reps) < 2 {
		runtime.GC() // the previous repetition's 600 MB must not be this one's problem
		r, err := simRepetition(cfg, f, nil, nil, len(reps)+1)
		if err != nil {
			return nil, t, err
		}
		checkSimRep(&t, f, r, ref)
		reps = append(reps, r)
	}

	virtualS := cfg.size.horizon.Seconds()
	var perVirtualS, allocs, heaps []float64
	for _, r := range reps {
		perVirtualS = append(perVirtualS, ms(r.wall)/virtualS)
		allocs = append(allocs, float64(r.mallocs)/float64(r.records))
		heaps = append(heaps, r.heapMB)
	}
	m := metrics{}
	m.set("setup_s", setupS, cfg.size.setups)
	m.setMedian("lat_p50_ms", perVirtualS)
	m.setMedian("allocs_per_work", allocs)
	m.setMedian("live_heap_mb", heaps)
	return m, t, nil
}

// runSimTraced alternates bare and span-wrapped repetitions (their
// difference is the tracing overhead), replays one recorded repetition to
// split the wall time into substrate and pipeline, and runs the probes of
// the layers only this workload exercises.
func runSimTraced(cfg runConfig, log *spanLog) (metrics, tally, error) {
	var t tally
	f := simFault(cfg)
	var artifact bytes.Buffer
	ref, err := simRepetition(cfg, f, &artifact, nil, 0)
	if err != nil {
		return nil, t, err
	}
	var bare, traced []simRep
	start := time.Now()
	for time.Since(start) < cfg.seconds/2 || len(traced) < 2 {
		runtime.GC()
		l := log
		if len(bare) <= len(traced) {
			l = nil
		}
		r, err := simRepetition(cfg, f, nil, l, len(bare)+len(traced)+1)
		if err != nil {
			return nil, t, err
		}
		checkSimRep(&t, f, r, ref)
		if l == nil {
			bare = append(bare, r)
		} else {
			traced = append(traced, r)
		}
	}
	walls := func(rs []simRep) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.wall.Seconds()
		}
		return out
	}
	bareWall, tracedWall := median(walls(bare)), median(walls(traced))

	// The same record stream through the pipeline alone.
	var replayWalls []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		s := time.Now()
		res, err := mycroft.Replay(bytes.NewReader(artifact.Bytes()), mycroft.ReplayOptions{})
		if err != nil {
			return nil, t, fmt.Errorf("replaying the recorded repetition: %w", err)
		}
		replayWalls = append(replayWalls, time.Since(s).Seconds())
		t.check(mycroft.DiffOutcomes(res.Recorded, res.Replayed).Zero(), "replay of the recorded repetition diverged")
	}

	m := metrics{}
	m.set("sim.events_per_record", float64(ref.events)/float64(ref.records), 1)
	m.set("sim.ns_per_event", bareWall*1e9/float64(ref.events), len(bare))
	m.set("sim.records_per_s", float64(ref.records)/bareWall, len(bare))
	var steps []float64
	for _, r := range bare {
		steps = append(steps, durationsMs(r.steps)...)
	}
	m.set("sim.step_p50_ms", median(steps), len(steps))
	m.setTail("sim.step_p99_ms", steps, p99, 1)
	m.set("train.substrate_share", 1-median(replayWalls)/bareWall, len(replayWalls))
	world := cfg.size.simTopo.Nodes * cfg.size.simTopo.GPUsPerNode
	var addJobs []float64
	for _, r := range append(bare, traced...) {
		addJobs = append(addJobs, ms(r.addJob)/float64(world))
	}
	m.set("train.addjob_ms_per_rank", median(addJobs), len(addJobs))
	m.set("core.triggers", float64(ref.triggers), 1)
	m.set("core.reports", float64(ref.reports), 1)
	m.set("core.false_positive_reports", float64(ref.falsePos), 1)
	m.set("core.detect_latency_vs", ref.diag.detect.Seconds(), 1)
	m.set("core.rca_latency_vs", ref.diag.rca.Seconds(), 1)
	m.set("remedy.heal_latency_vs", ref.diag.heal.Seconds(), 1)
	m.set("remedy.attempts", float64(ref.attempts), 1)
	if ref.attempts > 0 {
		m.set("remedy.succeeded_share", float64(ref.succeeded)/float64(ref.attempts), ref.attempts)
	}
	m.set("trace.ring_bytes_per_rank", ref.ringBytesPerRank, 1)
	probeSim(m, world)
	probeTrace(m, cfg.size.simTopo)
	probeCollector(m)
	procMetrics(m, 100*(tracedWall-bareWall)/bareWall)
	return m, t, nil
}
