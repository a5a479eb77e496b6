package main

import (
	"fmt"
	"time"

	"mycroft"
	"mycroft/internal/clouddb"
	"mycroft/internal/cluster"
	"mycroft/internal/collector"
	"mycroft/internal/core"
	"mycroft/internal/logdiag"
	"mycroft/internal/obs"
	"mycroft/internal/otrace"
	"mycroft/internal/perfdiag"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// The probes price one layer's public functions in isolation, on inputs
// shaped like the workload's. Each belongs to the workload the README's
// per-layer table reads it on.

// probeSim prices the bare event engine: one 50 ms ticker per rank (what the
// collectors arm) plus self-rescheduling no-op events, for ten virtual
// seconds.
func probeSim(m metrics, world int) {
	eng := sim.NewEngine(1)
	for r := 0; r < world; r++ {
		eng.NewTicker(50*time.Millisecond, func(sim.Time) {})
	}
	for c := 0; c < 64; c++ {
		var again func()
		again = func() { eng.After(3200*time.Microsecond, again) }
		eng.After(time.Duration(c)*50*time.Microsecond, again)
	}
	before := readMem()
	start := time.Now()
	eng.RunUntil(sim.Time(10 * time.Second))
	wall := time.Since(start)
	mallocs := readMem().mallocs - before.mallocs
	n := eng.Dispatched()
	m.set("sim.bare_event_ns", float64(wall)/float64(n), int(n))
	m.set("sim.bare_event_allocs", float64(mallocs)/float64(n), int(n))
}

func sampleRecord() trace.Record {
	return trace.Record{
		Kind: trace.KindState, IP: "10.0.0.1", CommID: 1, Rank: 3,
		Op: trace.OpAllReduce, TotalChunks: 128, GPUReady: 64, RDMATransmitted: 60, RDMADone: 58,
	}
}

// probeTrace prices the tracepoint write, the agent's ring drain and the
// fixed-size record codec.
func probeTrace(m metrics, tc mycroft.TopoConfig) {
	ring := trace.NewRing(1 << 16)
	rec := sampleRecord()
	ns, _, n := timeFor(func() {
		rec.OpSeq++
		ring.Emit(rec)
	})
	m.set("trace.emit_ns", ns, n)

	drainRing := trace.NewRing(1 << 14)
	rd := drainRing.NewReader()
	const per = 64 // records per drain, about what 50 ms of one host's traffic is
	var drained time.Duration
	batches := 0
	for start := time.Now(); time.Since(start) < probeBudget; batches++ {
		for j := 0; j < per; j++ {
			drainRing.Emit(rec)
		}
		s := time.Now()
		got := rd.Drain()
		drained += time.Since(s)
		if len(got) != per {
			panic(fmt.Sprintf("bench: ring drained %d of %d records", len(got), per))
		}
	}
	m.set("trace.drain_ns_per_record", float64(drained)/float64(batches*per), batches*per)

	ns, _, n = timeFor(func() {
		buf, err := rec.MarshalBinary()
		if err != nil {
			panic(err)
		}
		var out trace.Record
		if err := out.UnmarshalBinary(buf); err != nil {
			panic(err)
		}
	})
	m.set("trace.marshal_ns", ns, n)
}

// probeCollector prices one upload: Agent.Flush drains the ring and the
// engine step delivers the batch into a real store.
func probeCollector(m metrics) {
	eng := sim.NewEngine(1)
	db := clouddb.New(eng, 0)
	ring := trace.NewRing(1 << 14)
	agent := collector.NewAgent(eng, ring, db, collector.Config{DrainPeriod: time.Hour, UploadLatency: time.Millisecond})
	defer agent.Stop()
	const per = 64
	rec := sampleRecord()
	var spent time.Duration
	batches := 0
	for start := time.Now(); time.Since(start) < probeBudget; batches++ {
		for j := 0; j < per; j++ {
			rec.Time = eng.Now()
			rec.Rank = topo.Rank(j % 8)
			ring.Emit(rec)
		}
		s := time.Now()
		agent.Flush()
		eng.RunFor(2 * time.Millisecond)
		spent += time.Since(s)
	}
	if db.Ingested() != uint64(batches*per) {
		panic(fmt.Sprintf("bench: collector delivered %d of %d records", db.Ingested(), batches*per))
	}
	m.set("collector.upload_ns_per_record", float64(spent)/float64(batches*per), batches*per)
}

// probeObservability prices the two primitives every instrumented hop pays:
// one span Begin+End into the ring and one counter increment.
func probeObservability(m metrics) {
	r := otrace.NewRecorder(otrace.DefaultCapacity, func() sim.Time { return 0 })
	ns, _, n := timeFor(func() { r.End(r.Begin("bench", otrace.StageIngest, "", 0)) })
	m.set("otrace.span_ns", ns, n)

	c := obs.New().Counter("bench_events_total", "Benchmark counter.")
	ns, _, n = timeFor(c.Inc)
	m.set("obs.counter_ns", ns, n)
}

// probeFusion prices what evidence fusion adds to every delivered verdict.
func probeFusion(m metrics) {
	f := core.NewFusion(core.FusionConfig{})
	i := 0
	ns, _, n := timeFor(func() {
		at := sim.Time(time.Duration(i) * time.Millisecond)
		i++
		f.Observe(core.Evidence{Channel: core.ModalityLog, Rank: 5, Category: core.CatNetworkSendPath, At: at})
		rep := core.Report{Suspect: 5, Category: core.CatNetworkSendPath, AnalyzedAt: at}
		f.Finalize(&rep, core.Evidence{Channel: core.ModalityTracepoint, Rank: 5, Category: core.CatNetworkSendPath, At: at}, at)
	})
	m.set("core.fusion_ns", ns, n)
}

// probeChannels prices the two non-tracepoint detectors' ingest paths and a
// whole in-process IngestLogs batch (ingest plus the analysis pass it
// triggers) on a job of the serve-live size.
func probeChannels(m metrics, cfg runConfig, gen *ingestGen) error {
	world := cfg.size.serveTopo.Nodes * cfg.size.serveTopo.GPUsPerNode
	ld := logdiag.New(world, logdiag.Config{})
	lines := gen.logBatch()
	i := 0
	ns, _, n := timeFor(func() {
		l := lines[i%len(lines)]
		ld.Ingest(logdiag.Line{Rank: l.Rank, At: sim.Time(i) * sim.Time(time.Millisecond), Level: l.Level, Text: l.Text})
		i++
	})
	m.set("logdiag.ingest_ns_per_line", ns, n)

	pd := perfdiag.New(world, perfdiag.Config{})
	i = 0
	ns, _, n = timeFor(func() {
		pd.Ingest(perfdiag.Sample{Rank: topo.Rank(i % world), Iter: i / world, At: sim.Time(i/world+1) * sim.Time(time.Second)})
		i++
	})
	m.set("perfdiag.ingest_ns_per_sample", ns, n)

	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.seed})
	if _, err := svc.AddJob("probe", mycroft.JobOptions{Topo: cfg.size.serveTopo}); err != nil {
		return err
	}
	// Stamp the batches 50 ms of virtual time apart, the pace serve-live
	// posts them at, so the detector's look-back window slides as it does
	// there.
	var firstErr error
	i = 0
	ns, _, n = timeFor(func() {
		batch := gen.logBatch()
		i++
		for k := range batch {
			batch[k].At = time.Duration(i) * 50 * time.Millisecond
		}
		if _, err := svc.IngestLogs("probe", batch); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	m.set("channels.ingest_logs_us_per_batch", ns/1e3, n)
	return firstErr
}

// probeRoute prices job→peer placement on the consistent-hash ring: the hot
// path of every routed client call and replication round.
func probeRoute(m metrics) {
	ring := cluster.NewRing([]string{"p1", "p2", "p3", "p4", "p5"}, 0)
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-%d", i)
	}
	i := 0
	ns, _, n := timeFor(func() {
		if got := ring.Candidates(keys[i%len(keys)], 3); len(got) != 3 {
			panic("bench: short placement")
		}
		i++
	})
	m.set("cluster.route_ns", ns, n)
}
