package main

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"time"

	"mycroft"
	"mycroft/internal/clouddb"
	"mycroft/internal/core"
	"mycroft/internal/replay"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// recordArtifact is replay-512's set-up: one sim-512 repetition captured to
// an in-memory incident artifact. Every repetition of a seed records the
// same bytes.
func recordArtifact(cfg runConfig, t *tally) ([]byte, error) {
	f := simFault(cfg)
	var buf bytes.Buffer
	r, err := simRepetition(cfg, f, &buf, nil, 0)
	if err != nil {
		return nil, err
	}
	if msg := r.diag.problem(f); msg != "" {
		t.fail("recorded run: %s", msg)
	}
	return buf.Bytes(), nil
}

func runReplay(cfg runConfig, log *spanLog) (metrics, tally, error) {
	var t tally
	data, setupS, err := setUp(cfg, func() ([]byte, error) { return recordArtifact(cfg, &t) }, func([]byte) {})
	if err != nil {
		return nil, t, err
	}
	if cfg.traced {
		return runReplayTraced(cfg, log, data, t)
	}
	res, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{}) // untimed warm-up
	if err != nil {
		return nil, t, err
	}
	var walls, allocs, heaps []float64
	start := time.Now()
	for time.Since(start) < cfg.seconds || len(walls) < 2 {
		// One collection per repetition, taken while the previous result and
		// the artifact are still referenced: it is both the live-heap sample
		// and what keeps a repetition from inheriting the last one's garbage.
		heaps = append(heaps, liveHeapMB())
		before := readMem()
		s := time.Now()
		res, err = mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{})
		wall := time.Since(s)
		if err != nil {
			return nil, t, err
		}
		mallocs := readMem().mallocs - before.mallocs
		diff := mycroft.DiffOutcomes(res.Recorded, res.Replayed)
		t.check(diff.Zero() && len(res.Replayed.Reports) > 0, "replayed outcome differs from the recorded one:\n%s", diff.Render())
		walls = append(walls, ms(wall))
		allocs = append(allocs, float64(mallocs)/float64(res.RecordsIngested))
	}
	runtime.KeepAlive(res)

	m := metrics{}
	m.set("setup_s", setupS, cfg.size.setups)
	m.setMedian("lat_p50_ms", walls)
	m.setMedian("allocs_per_work", allocs)
	m.setMedian("live_heap_mb", heaps)
	return m, t, nil
}

// tracedReplay is replay.Replay rebuilt from the layers' public functions,
// with a benchmark-side span around each call: artifact decode, store
// ingest, the dependency-graph observer inside it, the Algorithm 1 pass and
// the failure analysis inside that. It keeps the store and backend so the
// query probes run against the state a real replay leaves behind.
type tracedReplay struct {
	db       *clouddb.DB
	bk       *core.Backend
	recorded mycroft.ReplayOutcome
	replayed mycroft.ReplayOutcome
	records  uint64
	endNs    int64
	wall     time.Duration
}

func runTracedReplay(data []byte, log *spanLog, rep int) (*tracedReplay, error) {
	out := &tracedReplay{}
	start := time.Now()
	root := log.begin("rep", 0, rep)
	dec, err := replay.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	h := dec.Header()
	sampled := make([]topo.Rank, len(h.SampledRanks))
	for i, r := range h.SampledRanks {
		sampled[i] = topo.Rank(r)
	}
	eng := sim.NewEngine(h.Seed)
	db := clouddb.New(eng, 0)
	// The hot calls are folded per virtual second (see span): folds holds the
	// current second's four.
	var folds struct{ decode, runUntil, ingest, observe int }
	timed := func(slot *int, name string, parent int, fn func()) {
		s := time.Now()
		id := log.open(slot, name, parent, rep, s)
		fn()
		log.add(id, time.Since(s))
	}

	// Observers run in registration order and the backend registers its
	// graph's in NewBackend, so these two bracket exactly that call; the
	// ingest fold it is a child of is open by the time they run.
	var observeStart time.Time
	db.AddIngestObserver(func([]trace.Record) { observeStart = time.Now() })
	bk := core.NewBackend(eng, db, sampled, h.Backend.Config())
	db.AddIngestObserver(func([]trace.Record) {
		id := log.open(&folds.observe, "depgraph.observe", folds.ingest, rep, observeStart)
		log.add(id, time.Since(observeStart))
	})

	// A failure trigger is analyzed before fire returns, so its report closes
	// the span its trigger opened. A straggler's analysis is deferred on the
	// engine; a replay's engine holds nothing else, so the run_until step
	// that delivers such a report is that analysis and gets a span of its
	// own instead of a place in the fold.
	var evaluate, analyze int
	var deferredReport bool
	bk.SetPublisher(func(ev core.Event) {
		switch ev.Kind {
		case core.EventTrigger:
			out.replayed.Triggers = append(out.replayed.Triggers, *ev.Trigger)
			if ev.Trigger.Kind == core.TriggerFailure {
				analyze = log.begin("core.analyze", evaluate, rep)
			}
		case core.EventReport:
			out.replayed.Reports = append(out.replayed.Reports, *ev.Report)
			deferredReport = analyze == 0
			log.end(analyze)
			analyze = 0
		}
	})
	runUntil := func(at int64) {
		deferredReport = false
		s := time.Now()
		eng.RunUntil(sim.Time(at))
		d := time.Since(s)
		slot, name := &folds.runUntil, "sim.run_until"
		if deferredReport {
			slot, name = new(int), "core.analyze"
		}
		log.add(log.open(slot, name, root, rep, s), d)
	}

	second := int64(-1)
	for {
		var entry replay.Entry
		var err error
		timed(&folds.decode, "replay.decode", root, func() { entry, err = dec.Next() })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out.endNs = entry.At
		if s := entry.At / int64(time.Second); s != second {
			second = s
			folds.decode, folds.runUntil, folds.ingest, folds.observe = 0, 0, 0, 0
		}
		runUntil(entry.At)
		switch entry.Kind {
		case replay.EntryBatch:
			timed(&folds.ingest, "clouddb.ingest", root, func() { db.Ingest(entry.Batch) })
			out.records += uint64(len(entry.Batch))
		case replay.EntryEval:
			evaluate = log.begin("core.evaluate", root, rep)
			bk.Evaluate(sim.Time(entry.At))
			log.end(evaluate)
		case replay.EntryEvent:
			switch {
			case entry.Event.Trigger != nil:
				tr, err := entry.Event.Trigger.Trigger()
				if err != nil {
					return nil, err
				}
				out.recorded.Triggers = append(out.recorded.Triggers, tr)
			case entry.Event.Report != nil:
				rp, err := entry.Event.Report.Report()
				if err != nil {
					return nil, err
				}
				out.recorded.Reports = append(out.recorded.Reports, rp)
			}
		}
	}
	if f, ok := dec.Footer(); ok {
		out.endNs = f.EndNs
	}
	runUntil(out.endNs)
	log.end(root)
	out.db, out.bk, out.wall = db, bk, time.Since(start)
	return out, nil
}

// replayLayers are the spans whose self times, plus replay.other_share,
// account for a traced repetition's whole wall time.
var replayLayers = []string{"replay.decode", "clouddb.ingest", "depgraph.observe", "core.evaluate", "core.analyze"}

func runReplayTraced(cfg runConfig, log *spanLog, data []byte, t tally) (metrics, tally, error) {
	if _, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{}); err != nil { // warm-up
		return nil, t, err
	}
	var bare, traced []float64
	var last *tracedReplay
	var records uint64
	start := time.Now()
	// Pairs of one plain and one span-wrapped repetition, each started from
	// the same heap: the artifact and nothing else.
	for time.Since(start) < cfg.seconds/2 || len(traced) < 2 || len(bare) > len(traced) {
		last = nil
		runtime.GC()
		if len(bare) <= len(traced) {
			s := time.Now()
			res, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{})
			if err != nil {
				return nil, t, err
			}
			bare = append(bare, time.Since(s).Seconds())
			t.check(mycroft.DiffOutcomes(res.Recorded, res.Replayed).Zero(), "replayed outcome differs from the recorded one")
			continue
		}
		tr, err := runTracedReplay(data, log, len(traced)+1)
		if err != nil {
			return nil, t, err
		}
		t.check(mycroft.DiffOutcomes(tr.recorded, tr.replayed).Zero() && len(tr.replayed.Reports) > 0,
			"span-wrapped replay differs from the recorded outcome")
		traced = append(traced, tr.wall.Seconds())
		records += tr.records
		last = tr
	}

	m := metrics{}
	self := selfTimes(log.spans)
	var attributed time.Duration
	for _, name := range replayLayers {
		attributed += self[name]
	}
	var tracedWall float64
	for _, w := range traced {
		tracedWall += w
	}
	perRecord := func(name string) float64 { return float64(self[name]) / float64(records) }
	m.set("replay.decode_ns_per_record", perRecord("replay.decode"), int(records))
	m.set("clouddb.ingest_ns_per_record", perRecord("clouddb.ingest"), int(records))
	m.set("depgraph.observe_ns_per_record", perRecord("depgraph.observe"), int(records))
	m.set("replay.other_share", 1-attributed.Seconds()/tracedWall, len(traced))
	m.set("replay.records_per_s", float64(last.records)/median(bare), len(bare))
	// Means, not medians: most passes are muted and return at once, and the
	// few analyses are what the time goes on.
	if n := log.count("core.evaluate"); n > 0 {
		m.set("core.evaluate_us", us(self["core.evaluate"])/float64(n), n)
	}
	if n := log.count("core.analyze"); n > 0 {
		m.set("core.analyze_us", us(self["core.analyze"])/float64(n), n)
	}
	m.set("core.triggers", float64(len(last.replayed.Triggers)), 1)
	m.set("core.reports", float64(len(last.replayed.Reports)), 1)
	m.set("core.false_positive_reports", float64(falsePositives([]fault{simFault(cfg)}, last.replayed.Reports)), 1)

	probeStore(m, data, last)
	probeFusion(m)
	probeObservability(m)
	procMetrics(m, 100*(median(traced)-median(bare))/median(bare))
	return m, t, nil
}

// probeStore prices the store and graph reads the backend and the query
// layer issue, against the state a whole replay leaves behind, and a bare
// ingest of the same stream (no observers, no backend) for the store's own
// allocation and memory cost.
func probeStore(m metrics, data []byte, tr *tracedReplay) {
	end := sim.Time(tr.endNs)
	ranks := tr.db.Ranks()
	comm := tr.db.CommsOfRank(ranks[0])[0]
	ns, _, n := timeFor(func() { tr.db.QueryGroup(comm, end.Add(-5*time.Second), end) })
	m.set("clouddb.query_group_us", ns/1e3, n)

	i := 0
	ns, _, n = timeFor(func() {
		tr.db.Query(clouddb.Query{Ranks: ranks[i%len(ranks) : i%len(ranks)+1], Limit: 256})
		i++
	})
	m.set("clouddb.query_page_us", ns/1e3, n)

	g := tr.bk.Graph()
	i = 0
	ns, _, n = timeFor(func() {
		r := ranks[i%len(ranks)]
		g.StuckComm(r, 0, end.Add(-5*time.Second), end)
		g.Victims(r)
		i++
	})
	m.set("depgraph.walk_us", ns/1e3, n)

	// Decode first so the measured loop is ingest alone.
	dec, err := replay.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return
	}
	var batches [][]trace.Record
	var records int
	for {
		entry, err := dec.Next()
		if err != nil {
			break
		}
		if entry.Kind == replay.EntryBatch {
			batches = append(batches, append([]trace.Record(nil), entry.Batch...))
			records += len(entry.Batch)
		}
	}
	runtime.GC()
	before := readMem()
	db := clouddb.New(sim.NewEngine(1), 0)
	for _, b := range batches {
		db.Ingest(b)
	}
	mallocs := readMem().mallocs - before.mallocs
	runtime.GC()
	heap := float64(readMem().heapAlloc) - float64(before.heapAlloc)
	runtime.KeepAlive(db)
	runtime.KeepAlive(batches) // counted on both sides of the difference
	m.set("clouddb.ingest_allocs_per_record", float64(mallocs)/float64(records), records)
	m.set("clouddb.heap_bytes_per_record", math.Max(0, heap)/float64(records), records)
}
