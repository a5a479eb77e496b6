package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"mycroft"
	"mycroft/internal/cluster"
	"mycroft/internal/experiments"
)

// ingestBatch is how many log lines or timing samples one post carries.
const ingestBatch = 64

// ingestGen makes the ingest client's inputs from the seed: benign
// info-level log lines spread evenly over every rank (a handful of templates
// with seeded numbers, so the template index stays bounded and no anomaly
// fires) and iteration timestamps on a cadence every rank shares.
type ingestGen struct {
	rng   *rand.Rand
	world int
	lines int // lines generated so far
	times int // samples generated so far
}

func (g *ingestGen) logBatch() []mycroft.LogLine {
	out := make([]mycroft.LogLine, ingestBatch)
	for i := range out {
		var text string
		switch g.rng.Intn(5) {
		case 0:
			text = fmt.Sprintf("iteration %d done in %.2fs loss %.4f", g.rng.Intn(100000), 1+g.rng.Float64(), 2*g.rng.Float64())
		case 1:
			text = fmt.Sprintf("allreduce comm %d seq %d finished", 1+g.rng.Intn(200), g.rng.Intn(1<<20))
		case 2:
			text = fmt.Sprintf("optimizer step %d lr %.6f grad-norm %.3f", g.rng.Intn(100000), g.rng.Float64()/1000, 10*g.rng.Float64())
		case 3:
			text = fmt.Sprintf("micro-batch %d of %d forward %.1fms", 1+g.rng.Intn(8), 8, 300*g.rng.Float64())
		default:
			text = fmt.Sprintf("memory allocated %dMiB reserved %dMiB", 40000+g.rng.Intn(9000), 60000+g.rng.Intn(9000))
		}
		out[i] = mycroft.LogLine{Rank: mycroft.Rank(g.lines % g.world), Level: "info", Text: text}
		g.lines++
	}
	return out
}

func (g *ingestGen) timingBatch() []mycroft.IterationSample {
	out := make([]mycroft.IterationSample, ingestBatch)
	for i := range out {
		iter := g.times / g.world
		out[i] = mycroft.IterationSample{Rank: mycroft.Rank(g.times % g.world), Iter: iter, At: time.Duration(iter+1) * time.Second}
		g.times++
	}
	return out
}

// live is serve-live's fixture: a two-peer cluster whose primary hosts one
// self-healing job with a 60 s retention horizon and a fault every minute.
type live struct {
	primary, replica *daemon
	job              mycroft.JobID
	h                *mycroft.JobHandle
	faults           []fault
	reads, writes    *mycroft.ClusterClient
	direct           *mycroft.RemoteClient // the replica peer, addressed by itself
	toPrimary        *mycroft.RemoteClient // the primary peer, for the final checks
	stream           *mycroft.Stream
}

// faultPeriod spaces serve-live's faults: one virtual minute, enough for a
// fault to be detected, diagnosed, recovered and verified quiet before the
// next one.
const faultPeriod = 60 * time.Second

func buildLive(cfg runConfig) (*live, error) {
	const job = mycroft.JobID("live")
	names := []string{"p1", "p2"}
	primaryName := cluster.NewRing(names, 0).Primary(string(job))
	addrs := make(map[string]string, len(names))
	daemons := make(map[string]*daemon, len(names))
	listeners := make(map[string]net.Listener, len(names))
	l := &live{job: job}
	for _, name := range names {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		listeners[name], addrs[name] = ln, ln.Addr().String()
		daemons[name] = &daemon{svc: mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.seed})}
		if name == primaryName {
			l.primary = daemons[name]
		} else {
			l.replica = daemons[name]
		}
	}

	tc := experiments.JobConfig(cfg.size.serveTopo, experiments.ComputeHeavy)
	tc.Retention = 60 * time.Second
	var err error
	if l.h, err = l.primary.svc.AddJob(job, mycroft.JobOptions{Train: &tc, Backend: selfHealBackend}); err != nil {
		return nil, err
	}
	if err := l.primary.svc.AttachPolicy(job, mycroft.SelfHealPolicy()); err != nil {
		return nil, err
	}
	// Enough faults for the whole run at one virtual second per tick.
	virtual := time.Duration(float64(cfg.size.warmup+cfg.seconds)/float64(cfg.size.tick)+1) * time.Second
	// The same NIC flaps every virtual minute, on every seed: after the first
	// fault the timeline depends on which rank it is (the leftovers of one
	// incident — isolated stragglers, muted channels — meet the next at a
	// different angle), and runs on different seeds must do the same work.
	rank := faultRanks(cfg.size.serveTopo)[0]
	for at := cfg.size.faultAt; at < virtual+faultPeriod; at += faultPeriod {
		l.faults = append(l.faults, fault{rank: rank, at: at})
	}
	for _, name := range names {
		d := daemons[name]
		d.srv = mycroft.NewServer(d.svc)
		err := d.srv.EnableCluster(mycroft.ClusterConfig{
			ID: "bench", Self: name, SelfAddr: addrs[name], Peers: addrs, Replicas: 1,
		})
		if err != nil {
			return nil, err
		}
		d.svc.Start()
	}
	for _, f := range l.faults {
		l.h.Inject(f.spec())
	}
	// Every peer knows every address now, so the handlers can be built.
	for _, name := range names {
		daemons[name].serve(listeners[name], false)
	}
	if err := l.connect(); err != nil {
		l.close()
		return nil, err
	}
	// The replica peer cannot answer for the job before it has heard of it.
	if errs := l.primary.srv.ReplicateNow(); len(errs) > 0 {
		l.close()
		return nil, fmt.Errorf("first replication round: %v", errs)
	}
	return l, nil
}

// connect dials client 1 (cluster reads, the direct line to the replica
// peer, one event stream) and client 2 (ingest).
func (l *live) connect() error {
	var err error
	if l.reads, err = mycroft.DialCluster([]string{l.replica.addr, l.primary.addr}); err != nil {
		return err
	}
	if l.writes, err = mycroft.DialCluster([]string{l.primary.addr}); err != nil {
		return err
	}
	if l.direct, err = mycroft.Dial(l.replica.addr); err != nil {
		return err
	}
	if l.toPrimary, err = mycroft.Dial(l.primary.addr); err != nil {
		return err
	}
	l.stream = l.reads.Subscribe(mycroft.EventFilter{Jobs: []mycroft.JobID{l.job}})
	return l.stream.Err()
}

func (l *live) close() {
	if l.stream != nil {
		l.stream.Close()
	}
	if l.reads != nil {
		l.reads.Close()
	}
	if l.writes != nil {
		l.writes.Close()
	}
	if l.direct != nil {
		l.direct.Close()
	}
	if l.toPrimary != nil {
		l.toPrimary.Close()
	}
	l.primary.close()
	l.replica.close()
}

// liveMix is client 1's reads: four through the cluster client, which routes
// them to the job's primary, and one in five put to the replica peer itself,
// which answers from replicated state.
func (l *live) liveMix() []readOp {
	mix := readMix(l.job, l.h.WorldSize(), l.faults[0].rank, "")
	keep := map[string]bool{"health": true, "triggers": true, "reports": true, "trace_page": true}
	var out []readOp
	for _, op := range mix {
		if keep[op.name] {
			op.weight = 1
			out = append(out, op)
		}
	}
	jobs := []mycroft.JobID{l.job}
	return append(out, readOp{name: "replica_read", weight: 1, variants: 1,
		call: func(mycroft.Client, int) (any, error) {
			return l.direct.QueryReports(mycroft.ReportQuery{Jobs: jobs})
		}})
}

// driveStats is what the open-loop drive goroutine saw.
type driveStats struct {
	late, hold, replicate []time.Duration
	// done[i] is when the Advance that ended virtual second i+1 returned.
	done []time.Time
	tally
}

// drive advances the primary one virtual second per tick of wall time and
// replicates, on a fixed schedule: a slow tick makes the next one late, it
// does not make the schedule slower.
func (l *live) drive(stop <-chan struct{}, tick time.Duration, log *spanLog, ds *driveStats) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * tick)
		if !waitUntil(due, stop) {
			return
		}
		ds.late = append(ds.late, time.Since(due))
		tickLog := log.live()
		root := tickLog.begin("tick", 0, i)
		sp := tickLog.begin("serve.advance", root, i)
		s := time.Now()
		l.primary.srv.Advance(time.Second)
		now := time.Now()
		tickLog.end(sp)
		ds.hold = append(ds.hold, now.Sub(s))
		ds.done = append(ds.done, now)
		sp = tickLog.begin("cluster.replicate", root, i)
		s = time.Now()
		errs := l.primary.srv.ReplicateNow()
		ds.replicate = append(ds.replicate, time.Since(s))
		tickLog.end(sp)
		tickLog.end(root)
		ds.check(len(errs) == 0, "replication round %d: %v", i, errs)
	}
}

// ingestStats is what the ingest client saw.
type ingestStats struct {
	posts []sample // op 0 = logs, 1 = timings
	tally
}

// ingest posts a batch of log lines, then a batch of timings, one post
// every interval on a fixed schedule — log shippers flush on a timer, not
// when the daemon feels like it — timed like the open-loop reads.
func (l *live) ingest(stop <-chan struct{}, every time.Duration, gen *ingestGen, log *spanLog, is *ingestStats) {
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !waitUntil(due, stop) {
			return
		}
		begin := openLoopStart(due, prevDone, true)
		var res mycroft.IngestResult
		var err error
		name := "remote.ingest_logs"
		if i%2 == 1 {
			name = "remote.ingest_timings"
		}
		postLog := log.live()
		sp := postLog.begin(name, 0, i)
		if i%2 == 0 {
			res, err = l.writes.IngestLogs(l.job, gen.logBatch())
		} else {
			res, err = l.writes.IngestTimings(l.job, gen.timingBatch())
		}
		done := time.Now()
		postLog.end(sp)
		prevDone = done
		is.posts = append(is.posts, sample{op: i % 2, lat: done.Sub(begin), at: done})
		switch {
		case err != nil:
			is.fail("ingest post %d: %v", i, err)
		case res.Accepted != ingestBatch:
			is.fail("ingest post %d: %d of %d items accepted", i, res.Accepted, ingestBatch)
		default:
			is.ok()
		}
	}
}

// arrival is one event as it reached the client's stream.
type arrival struct {
	at   time.Duration // the event's virtual time
	wall time.Time
}

// consume drains the subscription until stop, stamping each arrival.
func consume(st *mycroft.Stream, stop <-chan struct{}) []arrival {
	var out []arrival
	for {
		select {
		case <-stop:
			return out
		default:
		}
		e, ok := st.NextWait(100 * time.Millisecond)
		switch {
		case ok:
			out = append(out, arrival{at: e.At, wall: time.Now()})
		case st.Err() != nil:
			return out // a failed stream answers at once; the final checks report it
		}
	}
}

func runServeLive(cfg runConfig, log *spanLog) (metrics, tally, error) {
	var t tally
	l, setupS, err := setUp(cfg, func() (*live, error) { return buildLive(cfg) }, (*live).close)
	if err != nil {
		return nil, t, err
	}
	defer l.close()

	world := l.h.WorldSize()
	rng := rand.New(rand.NewSource(cfg.seed))
	mix := l.liveMix()
	reader := &readClient{c: l.reads, mix: mix, wheel: wheel(mix, rng), start: rng.Intn(1 << 16), every: cfg.size.readEvery}
	gen := &ingestGen{rng: rng, world: world}
	var ds driveStats
	var is ingestStats
	var arrivals []arrival

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, fn := range []func(){
		func() { l.drive(stop, cfg.size.tick, log, &ds) },
		func() { reader.run(stop, log, 1) },
		func() { l.ingest(stop, cfg.size.postEvery, gen, log, &is) },
		func() { arrivals = consume(l.stream, stop) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	w := measure(cfg, log)
	from, to := w.from, w.to
	close(stop)
	wg.Wait()
	t.merge(ds.tally)
	t.merge(reader.tally)
	t.merge(is.tally)

	// With the engine parked the moving state can be checked like the frozen
	// one: every fault old enough must be healed, the replica must have
	// caught up, and remote answers must equal in-process ones.
	l.checkFinal(&t, mix)
	t.check(l.stream.Err() == nil, "event stream failed: %v", l.stream.Err())
	t.check(l.stream.Dropped() == 0, "event stream dropped %d events", l.stream.Dropped())

	reads := window(reader.samples, from, to)
	if len(reads) == 0 {
		return nil, t, fmt.Errorf("no read completed in the measured window")
	}
	m := metrics{}
	if !cfg.traced {
		m.set("setup_s", setupS, cfg.size.setups)
		m.set("lat_p50_ms", mixMedianMs(reads, mix), len(reads))
		m.set("allocs_per_work", float64(w.after.mallocs-w.before.mallocs)/float64(len(reads)), len(reads))
		m.set("live_heap_mb", liveHeapMB(), 1)
		return m, t, nil
	}

	for i, op := range mix {
		lat := latenciesMs(reads, i)
		if len(lat) == 0 {
			continue
		}
		switch op.name {
		case "health":
			m.setTail("serve.health_p99_us", lat, p99, 1e3)
		case "replica_read":
			m.set("cluster.replica_read_p50_us", median(lat)*1e3, len(lat))
		}
		if op.rows {
			m.set("remote."+op.name+"_p50_us", median(lat)*1e3, len(lat))
		}
	}
	readRows(m, reads, from, to)
	posts := window(is.posts, from, to)
	if logs := latenciesMs(posts, 0); len(logs) > 0 {
		m.set("remote.ingest_logs_p50_us", median(logs)*1e3, len(logs))
		m.setTail("remote.ingest_logs_p99_us", logs, p99, 1e3)
	}
	m.set("remote.ingest_lines_per_s", float64(len(posts)*ingestBatch)/to.Sub(from).Seconds(), len(posts))
	m.set("serve.advance_hold_p50_ms", median(durationsMs(ds.hold)), len(ds.hold))
	m.setTail("serve.advance_hold_p99_ms", durationsMs(ds.hold), p99, 1)
	m.set("cluster.replicate_p50_ms", median(durationsMs(ds.replicate)), len(ds.replicate))
	m.setTail("cluster.replicate_p99_ms", durationsMs(ds.replicate), p99, 1)
	m.setTail("serve.drive_late_p99_ms", durationsMs(ds.late), p99, 1)
	scrapeMs(m, l.primary.handler)

	// An event of virtual second s was dispatched by the Advance that ended
	// s; it is late by however long after that Advance returned it arrived.
	var deliver []float64
	for _, a := range arrivals {
		tickIdx := int(math.Ceil(a.at.Seconds())) - 1
		if tickIdx < 0 || tickIdx >= len(ds.done) || a.wall.Before(from) {
			continue
		}
		deliver = append(deliver, math.Max(0, ms(a.wall.Sub(ds.done[tickIdx]))))
	}
	if len(deliver) > 0 {
		m.set("events.deliver_p50_ms", median(deliver), len(deliver))
		m.setTail("events.deliver_p90_ms", deliver, p90, 1)
	}
	m.set("events.dropped", float64(l.stream.Dropped()), 1)

	m.set("cluster.replicate_allocs", l.replicateAllocs(), 10)
	probeRoute(m)
	if err := probeChannels(m, cfg, gen); err != nil {
		return nil, t, err
	}
	procMetrics(m, spanOverheadPct(reads))
	return m, t, nil
}

// checkFinal runs the output checks that need the engine parked.
func (l *live) checkFinal(t *tally, mix []readOp) {
	errs := l.primary.srv.ReplicateNow()
	t.check(len(errs) == 0, "final replication round: %v", errs)

	jobs := []mycroft.JobID{l.job}
	want, err := l.primary.svc.QueryReports(mycroft.ReportQuery{Jobs: jobs})
	got, gotErr := l.direct.QueryReports(mycroft.ReportQuery{Jobs: jobs})
	t.check(err == nil && gotErr == nil && got.Total == want.Total && want.Total > 0,
		"replica answers %d reports (%v), primary holds %d (%v)", got.Total, gotErr, want.Total, err)

	for _, op := range mix {
		if op.name == "replica_read" {
			continue
		}
		local, err := op.call(l.primary.svc, 0)
		remote, remoteErr := op.call(l.toPrimary, 0)
		t.check(err == nil && remoteErr == nil && sameAnswer(local, remote),
			"%s: remote answer differs from the in-process one (%v, %v)", op.name, err, remoteErr)
	}

	now := l.primary.svc.Now()
	trigs, reps, remlog := l.h.Triggers(), l.h.Reports(), l.h.RemediationLog()
	for _, f := range l.faults {
		if f.at+faultPeriod > now {
			break // still inside its window when the run ended
		}
		msg := diagnose(f, f.at+faultPeriod, trigs, reps, remlog).problem(f)
		t.check(msg == "", "%s", msg)
	}
}

// replicateAllocs prices one replication round in mallocs, with the clients
// stopped so nothing else allocates: advance a virtual second, then count
// across ReplicateNow alone.
func (l *live) replicateAllocs() float64 {
	var total uint64
	const rounds = 10
	for i := 0; i < rounds; i++ {
		l.primary.srv.Advance(time.Second)
		before := readMem()
		l.primary.srv.ReplicateNow()
		total += readMem().mallocs - before.mallocs
	}
	return float64(total) / rounds
}
