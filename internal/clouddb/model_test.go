package clouddb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// flatSeries is one rank of the reference model: the layout the store had
// before segments — whole records in one slice, every read a linear scan.
type flatSeries struct {
	ip    topo.IP
	recs  []trace.Record
	seen  map[uint64]bool       // every communicator the rank ever used; pruning forgets none
	flows map[trace.Record]bool // flowKey of every record since recs was last empty
}

// flowKey is r with every field that changes from record to record zeroed:
// two records share a flow when their keys are equal.
func flowKey(r trace.Record) trace.Record {
	r.Time, r.Start, r.End, r.OpSeq, r.StuckNs = 0, 0, 0, 0, 0
	r.GPUReady, r.RDMATransmitted, r.RDMADone = 0, 0, 0
	return r
}

// flatStore is the reference model TestStoreMatchesFlatModel holds the DB to.
// It restates the documented behaviour of every read with no index, no
// binary search and no rank table.
type flatStore struct {
	retention time.Duration
	series    map[topo.Rank]*flatSeries
	ingested  uint64
	pruned    uint64
}

func newFlatStore(retention time.Duration) *flatStore {
	return &flatStore{retention: retention, series: make(map[topo.Rank]*flatSeries)}
}

// ingest stores a batch and prunes, as DB.Ingest does; an empty batch does
// neither.
func (m *flatStore) ingest(now sim.Time, batch []trace.Record) {
	if len(batch) == 0 {
		return
	}
	for _, r := range batch {
		s := m.series[r.Rank]
		if s == nil {
			s = &flatSeries{ip: r.IP, seen: make(map[uint64]bool), flows: make(map[trace.Record]bool)}
			m.series[r.Rank] = s
		}
		s.recs = append(s.recs, r)
		s.seen[r.CommID] = true
		s.flows[flowKey(r)] = true
		m.ingested++
	}
	cut := now.Add(-m.retention)
	if m.retention == 0 || cut <= 0 {
		return
	}
	for _, s := range m.series {
		var keep []trace.Record
		for _, rec := range s.recs {
			if rec.Time >= cut {
				keep = append(keep, rec)
			}
		}
		m.pruned += uint64(len(s.recs) - len(keep))
		s.recs = keep
		if len(keep) == 0 {
			clear(s.flows)
		}
	}
}

func (m *flatStore) ranks() []topo.Rank {
	var out []topo.Rank
	for r := range m.series {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

func (m *flatStore) ranksOfComm(comm uint64) []topo.Rank {
	var out []topo.Rank
	for _, r := range m.ranks() {
		if m.series[r].seen[comm] {
			out = append(out, r)
		}
	}
	return out
}

// scan returns rank r's records with Time in (from, to] that pass keep, in
// order; nil when there are none.
func (m *flatStore) scan(r topo.Rank, from, to sim.Time, keep func(*trace.Record) bool) []trace.Record {
	s := m.series[r]
	if s == nil {
		return nil
	}
	var out []trace.Record
	for i := range s.recs {
		if rec := &s.recs[i]; rec.Time > from && rec.Time <= to && keep(rec) {
			out = append(out, *rec)
		}
	}
	return out
}

func anyRecord(*trace.Record) bool { return true }

func (m *flatStore) queryGroup(comm uint64, from, to sim.Time) map[topo.Rank][]trace.Record {
	out := make(map[topo.Rank][]trace.Record)
	for _, r := range m.ranksOfComm(comm) {
		out[r] = m.scan(r, from, to, func(rec *trace.Record) bool { return rec.CommID == comm })
	}
	return out
}

func (m *flatStore) lastStatePerChannel(r topo.Rank, comm uint64, t sim.Time, window time.Duration) map[int32]trace.Record {
	out := make(map[int32]trace.Record)
	for _, rec := range m.scan(r, t.Add(-window), t, anyRecord) {
		if rec.Kind == trace.KindState && rec.CommID == comm {
			out[rec.Channel] = rec
		}
	}
	return out
}

// matches returns every record q selects, ignoring Limit and Cursor, in
// (rank, time) order.
func (m *flatStore) matches(q Query) []trace.Record {
	ranks := m.ranks()
	switch {
	case len(q.Ranks) > 0:
		ranks = slices.Clone(q.Ranks)
		slices.Sort(ranks)
	case q.Comm != 0:
		ranks = m.ranksOfComm(q.Comm)
	}
	to := q.To
	if to == 0 {
		to = sim.Infinity
	}
	var out []trace.Record
	for _, r := range ranks {
		out = append(out, m.scan(r, q.From, to, func(rec *trace.Record) bool {
			return (q.Comm == 0 || rec.CommID == q.Comm) && (len(q.Kinds) == 0 || slices.Contains(q.Kinds, rec.Kind))
		})...)
	}
	return out
}

// page is the Result the documentation promises for the page of a walk that
// begins at all[pos], all being every match of the query.
func page(all []trace.Record, pos, limit int, resumed bool) Result {
	rest := all[pos:]
	if len(rest) == 0 {
		return Result{}
	}
	if limit == 0 || len(rest) <= limit {
		return Result{Records: rest, Total: len(rest)}
	}
	last := rest[limit-1]
	emitted := 0 // matches at last's (rank, time) returned so far, earlier pages included
	for i := pos + limit - 1; i >= 0 && all[i].Rank == last.Rank && all[i].Time == last.Time; i-- {
		emitted++
	}
	res := Result{Records: rest[:limit], Total: len(rest), Next: &Cursor{Rank: last.Rank, Time: last.Time, Emitted: emitted}}
	if resumed {
		res.Total = -1
	}
	return res
}

func (m *flatStore) stats() Stats {
	st := Stats{Ingested: m.ingested, BytesIngested: m.ingested * trace.WireSize, Pruned: m.pruned}
	for _, s := range m.series {
		st.Ranks++
		st.Records += len(s.recs)
	}
	return st
}

// storeProgram drives a DB and the model through the same seeded steps.
type storeProgram struct {
	t     *testing.T
	rng   *rand.Rand
	eng   *sim.Engine
	db    *DB
	model *flatStore
	ranks []topo.Rank
	clock map[topo.Rank]sim.Time // newest record time per rank
	moved bool                   // rank ranks[3] reports from its second host
	pools map[topo.Rank][]trace.Record
	runs  map[topo.Rank][]modelRun // each rank's pool of runs
	cur   map[trace.Record]int     // the run each flow is in, by flowKey
	cycle int                      // position of rank ranks[2] in its round of flows

	// Sealed segments seen by check whose rows fit a new open buffer, that
	// needed more and that are wide, and segments that need an offset's fifth
	// byte.
	packed, grown, wide, fifth int
}

const (
	modelRetention = time.Second
	modelComms     = 3
	// modelFlows is the size of each rank's pool of flows: one drawn whole
	// and one per flow field, which it alone changes from an earlier flow.
	modelFlows = 10
	// modelRuns is the size of each rank's pool of runs: one drawn whole and
	// one per row field, which it alone changes from an earlier one.
	modelRuns = 8
)

// randomFlow draws every flow field of a record of rank r.
func (p *storeProgram) randomFlow(r topo.Rank) trace.Record {
	rng := p.rng
	return trace.Record{
		Kind: trace.Kind(1 + rng.Intn(2)), IP: topo.IP(fmt.Sprintf("10.0.%d.%d", int(r)%7, rng.Intn(3))),
		CommID: uint64(1 + rng.Intn(modelComms)), Rank: r,
		GPUID: rng.Int31(), Channel: int32(rng.Intn(4)), QPID: -rng.Int31(),
		Op: trace.OpKind(rng.Intn(8)), MsgSize: rng.Int63(), TotalChunks: rng.Uint32(),
	}
}

// pool returns rank r's flows, drawing them on first use. Flow k > 0 copies
// an earlier one and changes field k-1 alone, so a flow lookup that skips any
// field merges two flows.
func (p *storeProgram) pool(r topo.Rank) []trace.Record {
	if fl, ok := p.pools[r]; ok {
		return fl
	}
	rng := p.rng
	fl := []trace.Record{p.randomFlow(r)}
	for k := 1; k < modelFlows; k++ {
		f := fl[rng.Intn(k)]
		switch k - 1 {
		case 0:
			f.Channel = (f.Channel + 1 + int32(rng.Intn(3))) % 4
		case 1:
			f.CommID = f.CommID%modelComms + 1
		case 2:
			f.QPID--
		case 3:
			f.GPUID++
		case 4:
			f.MsgSize++
		case 5:
			f.TotalChunks++
		case 6:
			f.Kind = 3 - f.Kind // state ↔ completion
		case 7:
			f.Op = (f.Op + 1) % 8
		case 8:
			f.IP = topo.IP(fmt.Sprintf("10.1.%d.%d", int(r)%7, k))
		}
		fl = append(fl, f)
	}
	p.pools[r] = fl
	return fl
}

// modelRun is what a run of one flow's records repeats beyond the flow: the
// operation, the chunk counters and the instant the channel last progressed,
// from which each record's StuckNs is counted.
type modelRun struct {
	opSeq                               uint64
	start, end, progress                sim.Time
	gpuReady, rdmaTransmitted, rdmaDone uint32
}

// randomRun draws every field of a run.
func (p *storeProgram) randomRun() modelRun {
	rng := p.rng
	return modelRun{
		opSeq: rng.Uint64(), start: sim.Time(rng.Int63()), end: sim.Time(-rng.Int63()), progress: sim.Time(rng.Uint64()),
		gpuReady: rng.Uint32(), rdmaTransmitted: rng.Uint32(), rdmaDone: rng.Uint32(),
	}
}

// run sets rc's row fields from a run. A flow stays in one run of its rank's
// pool for a stretch of records, as a rank's state logs name one op, hold
// their counters and count StuckNs from one instant while a channel waits, so
// the stretch shares a row, which the store must reuse only within a segment;
// and the flows of a rank draw from the same runs, as its channels of one
// collective name the same op. The pool is drawn on first use like the flows:
// run k > 0 copies an earlier one and changes row field k-1 alone, so a row
// compare that skips any field merges two runs. Now and then a record is in a
// run never seen.
func (p *storeProgram) run(rc *trace.Record) {
	rng := p.rng
	var o modelRun
	if rng.Intn(64) == 0 {
		o = p.randomRun()
	} else {
		runs, ok := p.runs[rc.Rank]
		if !ok {
			runs = []modelRun{p.randomRun()}
			for k := 1; k < modelRuns; k++ {
				o := runs[rng.Intn(k)]
				switch k - 1 {
				case 0:
					o.opSeq++
				case 1:
					o.start++
				case 2:
					o.end++
				case 3:
					o.progress++
				case 4:
					o.gpuReady++
				case 5:
					o.rdmaTransmitted++
				case 6:
					o.rdmaDone++
				}
				runs = append(runs, o)
			}
			p.runs[rc.Rank] = runs
		}
		key := flowKey(*rc)
		cur := p.cur[key]
		if rng.Intn(32) == 0 {
			cur = rng.Intn(len(runs))
			p.cur[key] = cur
		}
		o = runs[cur]
	}
	rc.OpSeq, rc.Start, rc.End = o.opSeq, o.start, o.end
	rc.GPUReady, rc.RDMATransmitted, rc.RDMADone = o.gpuReady, o.rdmaTransmitted, o.rdmaDone
	rc.StuckNs = int64(rc.Time - o.progress)
	// The stuck times at which Time − StuckNs wraps, and none at all.
	switch rng.Intn(128) {
	case 0:
		rc.StuckNs = math.MinInt64
	case 1:
		rc.StuckNs = math.MaxInt64
	case 2:
		rc.StuckNs = 0
	}
}

// record draws one record for rank r at time at; every stored field varies so
// a store that drops or swaps one cannot round-trip. Its flow is mostly one of
// the rank's first two (the two a rank alternates between), else any of its
// pool, else one never seen; rank ranks[2] instead cycles through three, so
// neither of the two flows it used last is ever its next.
func (p *storeProgram) record(r topo.Rank, at sim.Time) trace.Record {
	rng := p.rng
	pool := p.pool(r)
	var rc trace.Record
	switch k := rng.Intn(16); {
	case r == p.ranks[2]:
		p.cycle = (p.cycle + 1) % 3
		rc = pool[p.cycle]
	case k < 8:
		rc = pool[rng.Intn(2)]
	case k < 15:
		rc = pool[rng.Intn(len(pool))]
	default:
		rc = p.randomFlow(r)
	}
	if r == p.ranks[3] && p.moved {
		rc.IP = "10.9.9.9"
	}
	rc.Time = at
	p.run(&rc)
	return rc
}

// ingest sends one batch holding a run of n[i] records for each of a few
// ranks, the runs interleaved at random with each rank's order kept.
func (p *storeProgram) ingest(n ...int) {
	now := p.eng.Now()
	runs := make([][]trace.Record, len(n))
	total := 0
	for i, perm := 0, p.rng.Perm(len(p.ranks)); i < len(n); i++ {
		r := p.ranks[perm[i]]
		at := p.clock[r]
		if floor := now.Add(-time.Duration(p.rng.Intn(300)) * time.Millisecond); at < floor {
			at = floor
		}
		for j := 0; j < n[i]; j++ {
			// Whole milliseconds, zero included: equal timestamps are common
			// both within a rank and across ranks.
			at = at.Add(time.Duration(p.rng.Intn(3)) * time.Millisecond)
			runs[i] = append(runs[i], p.record(r, at))
		}
		p.clock[r] = at
		total += n[i]
	}
	batch := make([]trace.Record, 0, total)
	for len(batch) < total {
		if i := p.rng.Intn(len(runs)); len(runs[i]) > 0 {
			batch = append(batch, runs[i][0])
			runs[i] = runs[i][1:]
		}
	}
	p.db.Ingest(slices.Clone(batch))
	p.model.ingest(now, batch)
}

// burst draws a run length that leaves a rank's log short of, on, or past 0,
// 1 or many segment boundaries.
func (p *storeProgram) burst() int {
	switch p.rng.Intn(8) {
	case 0:
		return segLen - 1 + p.rng.Intn(3)
	case 1:
		return 3*segLen + p.rng.Intn(segLen)
	default:
		return p.rng.Intn(12)
	}
}

func (p *storeProgram) step() {
	switch k := p.rng.Intn(10); {
	case k < 6:
		n := make([]int, 1+p.rng.Intn(4))
		for i := range n {
			n[i] = p.burst()
		}
		p.ingest(n...)
	case k < 9:
		p.eng.RunFor(time.Duration(p.rng.Intn(400)) * time.Millisecond)
	default:
		// Far past the horizon: the next ingest empties every series but
		// the one it refills.
		p.eng.RunFor(3 * modelRetention)
		p.ingest(1)
	}
}

func (p *storeProgram) equal(what string, got, want any, context ...any) {
	p.t.Helper()
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("at %v: %s %+v:\n got %+v\nwant %+v", p.eng.Now(), what, context, got, want)
	}
}

// segments checks rank r's log against what sealing promises — its open
// buffer has room for its rows and a new buffer's, every sealed block is
// exactly the size of the rows its records use, and a segment is wide
// exactly when its times span wideFrom or more — and counts the sealed
// blocks whose rows fit a new open buffer, that needed more, that are wide,
// and the segments whose narrow offsets need their fifth byte.
func (p *storeProgram) segments(r topo.Rank) {
	p.t.Helper()
	l := &p.db.series(r).log
	if l.open != nil && l.open.room() < max(l.rows, segRows) {
		p.t.Fatalf("at %v: rank %d's open buffer has room for %d rows, want at least %d and %d", p.eng.Now(), r, l.open.room(), l.rows, segRows)
	}
	span := func(b block, n int) {
		if (b.width() == wide) != (uint64(b.time(n-1))-uint64(b.base()) >= wideFrom) {
			p.t.Fatalf("at %v: rank %d holds a segment %d B wide whose %d times span %v", p.eng.Now(), r, b.width(), n, b.time(n-1)-b.base())
		}
		if b.width() == narrow && b.time(n-1)-b.base() >= 1<<32 {
			p.fifth++
		}
	}
	for _, b := range l.sealed {
		span(b, segLen)
		rows := 0
		for j := range segLen {
			rows = max(rows, b.rowOf(j)+1)
		}
		if want := blockSize(b.width(), rows); len(b) != want {
			p.t.Fatalf("at %v: rank %d seals %d rows in %d B, want %d", p.eng.Now(), r, rows, len(b), want)
		}
		switch {
		case b.width() == wide:
			p.wide++
		case rows > segRows:
			p.grown++
		default:
			p.packed++
		}
	}
	if open := l.head + l.n - len(l.sealed)*segLen; open > 0 {
		span(l.open, open)
	}
}

// storeBytes walks what db holds, as StoreBytes counts it.
func storeBytes(db *DB) int {
	held := 0
	for _, s := range db.byRank {
		if s != nil {
			held += s.log.bytes() + cap(s.flows)*flowSize
		}
	}
	return held
}

// check compares every read the store offers against the model.
func (p *storeProgram) check() {
	p.t.Helper()
	db, m, rng := p.db, p.model, p.rng
	now := p.eng.Now()
	when := func() sim.Time { return now.Add(-time.Duration(rng.Intn(2000)) * time.Millisecond) }
	windows := [][2]sim.Time{{-1, sim.Infinity}, {when(), now}, {0, 0}}
	if a, b := when(), when(); a < b {
		windows[2] = [2]sim.Time{a, b}
	}

	p.equal("Ranks", db.Ranks(), m.ranks())
	p.equal("Stats", db.Stats(), m.stats())
	p.equal("Pruned", db.Pruned(), m.stats().Pruned)
	p.equal("LiveRecords", db.LiveRecords(), m.stats().Records)
	p.equal("Ingested", db.Ingested(), m.stats().Ingested)
	p.equal("BytesIngested", db.BytesIngested(), m.stats().BytesIngested)
	p.equal("StoreBytes", db.StoreBytes(), storeBytes(db))

	for _, r := range append([]topo.Rank{-7}, p.ranks...) {
		ip, ok := db.IPOf(r)
		if s := m.series[r]; s != nil {
			p.equal("IPOf", []any{ip, ok}, []any{s.ip, true})
			// The flow table holds each distinct flow once, and nothing from
			// before the log was last empty.
			p.equal("flows", len(db.series(r).flows), len(s.flows), r)
			p.segments(r)
		} else {
			p.equal("IPOf", []any{ip, ok}, []any{topo.IP(""), false})
		}
		comm := uint64(1 + rng.Intn(modelComms))
		for _, w := range windows {
			q := Query{Ranks: []topo.Rank{r}, From: w[0], To: w[1]}
			p.equal("Query of one rank", db.Query(q).Records, m.matches(q), q)
		}
		for _, t := range []sim.Time{now, when()} {
			win := time.Duration(rng.Intn(1000)) * time.Millisecond
			p.equal("LastStatePerChannel", db.LastStatePerChannel(r, comm, t, win), m.lastStatePerChannel(r, comm, t, win))
		}
	}

	for comm := uint64(1); comm <= modelComms+1; comm++ {
		w := windows[rng.Intn(len(windows))]
		p.equal("QueryGroup", db.QueryGroup(comm, w[0], w[1]), m.queryGroup(comm, w[0], w[1]))
	}

	some := []topo.Rank{p.ranks[rng.Intn(len(p.ranks))], p.ranks[3], p.ranks[rng.Intn(len(p.ranks))]}
	slices.Sort(some)
	queries := []Query{
		{},
		{Comm: uint64(1 + rng.Intn(modelComms))},
		{Kinds: []trace.Kind{trace.KindCompletion}, From: windows[1][0]},
		{Ranks: slices.Compact(some), Comm: uint64(rng.Intn(modelComms + 1)), From: windows[2][0], To: windows[2][1]},
	}
	for _, q := range queries {
		all := m.matches(q)
		for _, limit := range []int{0, 1, 7, 256} {
			q.Limit, q.Cursor = limit, nil
			for pos := 0; ; {
				got := db.Query(q)
				p.equal("Query page", got, page(all, pos, limit, q.Cursor != nil), q, pos)
				if got.Next == nil {
					break
				}
				pos += len(got.Records)
				q.Cursor = got.Next
			}
		}
	}
}

// TestStoreMatchesFlatModel: the segmented store answers every read exactly
// as the flat per-rank slice it replaced, under seeded random programs of
// interleaved ingest, retention pruning and engine advances.
func TestStoreMatchesFlatModel(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 25
	}
	for _, seed := range []int64{1, 8, 64} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			eng := sim.NewEngine(1)
			p := &storeProgram{
				t: t, rng: rand.New(rand.NewSource(seed)), eng: eng,
				db: New(eng, modelRetention), model: newFlatStore(modelRetention),
				ranks: []topo.Rank{0, 1, 2, 3, 8, 9, 64, 65, 129, 511},
				clock: make(map[topo.Rank]sim.Time), pools: make(map[topo.Rank][]trace.Record),
				runs: make(map[topo.Rank][]modelRun), cur: make(map[trace.Record]int),
			}
			// The store first sees ranks in descending, sparse order: its
			// rank table grows to 512 on its first record and is filled in
			// from the top, and rank 0 arrives last, further below.
			var down []trace.Record
			for i := len(p.ranks) - 1; i > 0; i-- {
				down = append(down, p.record(p.ranks[i], eng.Now()))
			}
			p.db.Ingest(slices.Clone(down))
			p.model.ingest(eng.Now(), down)
			p.check()

			// A cut that lands exactly on a segment boundary: one rank holds
			// one whole segment at a single instant and two records a second
			// later; the next prune falls between them.
			eng.RunFor(2 * modelRetention)
			first := make([]trace.Record, segLen)
			for i := range first {
				first[i] = p.record(0, eng.Now())
			}
			p.db.Ingest(slices.Clone(first))
			p.model.ingest(eng.Now(), first)
			p.check()
			eng.RunFor(modelRetention + time.Millisecond)
			second := []trace.Record{p.record(0, eng.Now()), p.record(0, eng.Now())}
			pruned := p.db.Pruned()
			p.db.Ingest(slices.Clone(second))
			p.model.ingest(eng.Now(), second)
			p.clock[0] = eng.Now()
			if got := p.db.Pruned() - pruned; got != segLen {
				t.Fatalf("boundary cut pruned %d records, want %d", got, segLen)
			}
			if l := &p.db.series(0).log; len(l.sealed) != 0 || l.head != 0 {
				t.Fatalf("boundary cut left %d sealed segments and %d dropped records", len(l.sealed), l.head)
			}
			p.check()

			// Segments whose times span 2^32 ns and 2^40 ns. In one batch, so
			// nothing is pruned before the reads, rank 1 fills a narrow
			// segment that jumps 2^39 ns, a wide one that jumps 2^40 and
			// seals so, and half an open one that widens.
			far := make([]trace.Record, 2*segLen+segLen/2)
			at := eng.Now()
			for i := range far {
				switch i {
				case 100:
					at = at.Add(1 << 39)
				case 300, 600:
					at = at.Add(1 << 40)
				}
				far[i] = p.record(1, at)
			}
			p.db.Ingest(slices.Clone(far))
			p.model.ingest(eng.Now(), far)
			p.clock[1] = at
			p.check()
			eng.RunUntil(at)

			for i := 0; i < steps; i++ {
				p.moved = i >= steps/3 && i < 2*steps/3 // there and back again
				p.step()
				p.check()
			}
			if p.db.Pruned() == 0 || p.db.LiveRecords() == 0 {
				t.Fatalf("program pruned %d and left %d live: it exercised nothing", p.db.Pruned(), p.db.LiveRecords())
			}
			t.Logf("checked %d packed, %d grown and %d wide sealed segments, %d segments needing a fifth offset byte",
				p.packed, p.grown, p.wide, p.fifth)
			if p.packed == 0 || p.grown == 0 || p.wide == 0 || p.fifth == 0 {
				t.Fatalf("checked %d packed, %d grown and %d wide sealed segments, %d needing a fifth offset byte: a path went unexercised",
					p.packed, p.grown, p.wide, p.fifth)
			}
		})
	}
}
