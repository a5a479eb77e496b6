// Package clouddb is the in-memory stand-in for Mycroft's cloud trace
// database (§6.1): the caching layer the always-on backend queries. Each rank
// has one series, found by indexing a table with the rank. The store supports
// the time-window lookups the backend issues, a unified predicate/pagination
// query layer (see query.go), a retention horizon that every ingest sweeps
// across all series (the production system keeps one day), and volume
// accounting so the data-volume experiment (E6) can extrapolate to cluster
// scale.
//
// # Layout
//
// At fleet size the store, not the simulator, is what fills the heap, so a
// rank's records are not kept as trace.Records. A rank's state logs repeat
// their metadata and operation rows every tick, and while a channel waits
// its chunk counters and the instant it last progressed (Time − StuckNs)
// hold still too; only the timestamp changes. So each series keeps a flow
// table — one entry per distinct (IP, communicator, GPU, channel, QP, op,
// message size, total chunks, kind) tuple — and a log of fixed-length
// segments (seglog.go). A segment holds 256 records, each a time and a
// 1-byte row index, and the rows they name, 48 bytes each, which keep what a
// run of one flow's records repeats: op seq, start, end, progress instant,
// the three chunk counters and the flow index. A segment is pointer-free
// bytes the collector never scans: a base time, 256 offsets from it, 256 row
// bytes and the rows. A rank writes its last segment into one open buffer,
// 3,417 B with room for 39 rows in the allocator's 3,456-byte size class.
// When the segment fills it is sealed: copied once into a block of exactly
// its size — the open buffer with its unused rows cut off — and the open
// buffer is reused for the next. Offsets take 5 bytes, or 8 in a segment
// whose times span 2^40 ns or more; a segment that needs wide offsets or
// more rows lays its open buffer out again, and the rank keeps the larger
// buffer. Ingest writes a time and a row byte, and a row when the record's
// flow has none holding its fields in the segment; it allocates only when a
// segment seals, its record starts a flow, or an open buffer first grows. A
// stored record is copied once, when its segment seals, and never cleared or
// regrown. Retention releases whole sealed blocks as the horizon passes
// them, and all of a rank's, open buffer and flow table included, once it
// has no live record: the table holds one flow per distinct tuple since the
// log was last empty. Readers binary-search the segments' base times and
// then one segment's offsets, walk the records in place, test their
// communicator, kind and channel predicates on the flow each record's row
// names, and rebuild a trace.Record only for what they return. StoreBytes
// counts what the store holds as it goes.
//
// Ingest probes no map per record. Ranks are dense in [0, world size), so
// the series table is a slice indexed by rank. A record is matched against the
// two flows its rank used last, then the rest of the table newest first; a
// communicator is indexed only when a flow is added. The flow caches the row
// its last record used, so a record that repeats it compares seven fields
// and writes no row.
package clouddb

import (
	"fmt"
	"slices"
	"time"

	"mycroft/internal/otrace"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// rankSeries holds one rank's records in emission order: its log of times
// and rows and the flow table the rows index, which together rebuild exactly
// the record that was ingested. ip is the first-seen IP — what IPOf answers with; a
// record that arrives with a different one (a rank re-homed to another host
// mid-run) starts a flow of its own.
type rankSeries struct {
	rank topo.Rank
	ip   topo.IP
	log  recLog
	// flows holds one entry per distinct tuple since the log was last empty,
	// in order seen; recent indexes the two used last, newest first.
	flows  []flow
	recent [2]uint32
	// comms lists the communicators the rank is indexed under, in order seen.
	comms []uint64
}

// commsPerRank sizes a series' communicator list up front: a rank sits in a
// TP, a DP and one or two pipeline communicators.
const commsPerRank = 4

// DB stores trace records ordered by emission time per rank.
type DB struct {
	eng       *sim.Engine
	retention time.Duration
	byRank    []*rankSeries          // indexed by rank; nil for a rank with no record yet
	commRanks map[uint64][]topo.Rank // every communicator's member ranks, ascending

	ingested      uint64 // records
	bytesIngested uint64
	pruned        uint64 // records dropped by retention
	held          int    // bytes of every series' log and flow table; see StoreBytes

	observers []func([]trace.Record)
	metrics   *Metrics
	spans     *otrace.Recorder
}

// SetTracer attaches the job's span recorder: every subsequent Ingest batch
// records one StageIngest span covering store, prune and observers (the
// dependency-graph update rides the observer list, so its cost lands inside
// the span's wall window). Nil detaches. Like SetMetrics, the hot path pays
// one pointer check when no recorder is attached.
func (db *DB) SetTracer(r *otrace.Recorder) { db.spans = r }

// New creates a DB with the given retention horizon (0 = keep forever).
func New(eng *sim.Engine, retention time.Duration) *DB {
	if retention < 0 {
		panic(fmt.Sprintf("clouddb: negative retention %v", retention))
	}
	return &DB{eng: eng, retention: retention, commRanks: make(map[uint64][]topo.Rank)}
}

// newSeries creates rank r's series, growing the table to hold it.
func (db *DB) newSeries(r topo.Rank, ip topo.IP) *rankSeries {
	if r < 0 {
		panic(fmt.Sprintf("clouddb: negative rank %d", r))
	}
	if int(r) >= len(db.byRank) {
		db.byRank = append(db.byRank, make([]*rankSeries, int(r)+1-len(db.byRank))...)
	}
	s := &rankSeries{rank: r, ip: ip, comms: make([]uint64, 0, commsPerRank)}
	db.byRank[r] = s
	return s
}

// noteComm indexes the rank under comm on first sight, keeping the
// communicator's member list sorted.
func (s *rankSeries) noteComm(db *DB, comm uint64) {
	if slices.Contains(s.comms, comm) {
		return
	}
	s.comms = append(s.comms, comm)
	members := db.commRanks[comm]
	at, _ := slices.BinarySearch(members, s.rank)
	db.commRanks[comm] = slices.Insert(members, at, s.rank)
}

// Ingest appends a batch. Records for one rank must arrive in emission
// order, which the per-host agent guarantees (it drains an ordered ring), and
// ranks must be non-negative: the series table is as long as the highest
// rank ingested. Every ingest prunes the whole store, so a silent rank keeps
// its over-horizon records only until the next batch from any rank
// (retention is a horizon, not an instant). An empty batch neither stores nor
// prunes.
func (db *DB) Ingest(batch []trace.Record) {
	if len(batch) == 0 {
		return
	}
	span := db.spans.Batch(otrace.StageIngest)
	var series *rankSeries
	for i := range batch {
		r := &batch[i]
		if series == nil || r.Rank != series.rank {
			if series = db.series(r.Rank); series == nil {
				series = db.newSeries(r.Rank, r.IP)
			}
		}
		if l := &series.log; l.n > 0 && l.newest > r.Time {
			panic(fmt.Sprintf("clouddb: out-of-order ingest for rank %d: %v after %v", r.Rank, r.Time, l.newest))
		}
		fi := series.flowOf(db, r)
		db.held += series.log.push(r, &series.flows[fi], fi)
	}
	db.ingested += uint64(len(batch))
	db.bytesIngested += uint64(len(batch)) * trace.WireSize
	if m := db.metrics; m != nil {
		m.Records.Add(uint64(len(batch)))
		m.Bytes.Add(uint64(len(batch)) * trace.WireSize)
		m.Batches.Inc()
	}
	db.prune()
	for _, fn := range db.observers {
		fn(batch)
	}
	db.spans.End(span)
}

// AddIngestObserver registers fn to run on every batch, after it is stored
// and pruning has run. The dependency graph subscribes here so it is
// maintained as records arrive instead of re-scanning the store per trigger.
// Observers must not retain the batch slice. The returned func unregisters
// the observer; an observer never removed lives (and costs O(batch) per
// ingest) as long as the DB does.
func (db *DB) AddIngestObserver(fn func([]trace.Record)) (remove func()) {
	db.observers = append(db.observers, fn)
	idx := len(db.observers) - 1
	return func() {
		if idx >= 0 {
			db.observers[idx] = func([]trace.Record) {}
			idx = -1
		}
	}
}

// prune drops records older than the retention horizon from every series. A
// series gives back every segment the cut has passed, and all of them and its
// flow table once it has no live record left.
func (db *DB) prune() {
	if db.retention == 0 {
		return
	}
	cut := db.eng.Now().Add(-db.retention)
	if cut <= 0 {
		return
	}
	var dropped uint64
	for _, s := range db.byRank {
		if s == nil {
			continue
		}
		if i := s.log.firstFrom(cut); i > 0 {
			dropped += uint64(i)
			if db.held -= s.log.dropFront(i); s.log.n == 0 {
				db.held -= cap(s.flows) * flowSize
				s.flows, s.recent = nil, [2]uint32{}
			}
		}
	}
	db.pruned += dropped
	if m := db.metrics; m != nil && dropped > 0 {
		m.Pruned.Add(dropped)
	}
}

// series returns the series for a rank, or nil.
func (db *DB) series(r topo.Rank) *rankSeries {
	if r < 0 || int(r) >= len(db.byRank) {
		return nil
	}
	return db.byRank[r]
}

// Ingested returns how many records have been stored.
func (db *DB) Ingested() uint64 { return db.ingested }

// BytesIngested returns the ingested volume counted at the 112-byte wire
// slot (trace.WireSize) a record, which E6 extrapolates from; what the store
// holds is StoreBytes.
func (db *DB) BytesIngested() uint64 { return db.bytesIngested }

// Pruned returns how many records retention dropped.
func (db *DB) Pruned() uint64 { return db.pruned }

// Stats aggregates the store's live state.
type Stats struct {
	Ranks         int    `json:"ranks"`
	Records       int    `json:"records"` // live (unpruned) records
	Ingested      uint64 `json:"ingested"`
	BytesIngested uint64 `json:"bytes_ingested"`
	Pruned        uint64 `json:"pruned"`
}

// Stats reports the store's counters. The query layer and the CLIs use it;
// it never walks record payloads, only per-series metadata.
func (db *DB) Stats() Stats {
	st := Stats{Ingested: db.ingested, BytesIngested: db.bytesIngested, Pruned: db.pruned}
	for _, s := range db.byRank {
		if s != nil {
			st.Ranks++
			st.Records += s.log.n
		}
	}
	return st
}

// Ranks returns every rank that has ever produced a record, ascending.
func (db *DB) Ranks() []topo.Rank {
	var out []topo.Rank
	for r, s := range db.byRank {
		if s != nil {
			out = append(out, topo.Rank(r))
		}
	}
	return out
}

// IPOf returns the IP a rank reports from.
func (db *DB) IPOf(r topo.Rank) (topo.IP, bool) {
	if s := db.series(r); s != nil {
		return s.ip, true
	}
	return "", false
}

// CommsOfRank returns the communicators rank r has produced records for.
func (db *DB) CommsOfRank(r topo.Rank) []uint64 {
	s := db.series(r)
	if s == nil {
		return nil
	}
	out := slices.Clone(s.comms)
	slices.Sort(out)
	return out
}

// QueryGroup returns, per member rank of the communicator, the records in
// (from, to] that belong to that communicator.
func (db *DB) QueryGroup(commID uint64, from, to sim.Time) map[topo.Rank][]trace.Record {
	out := make(map[topo.Rank][]trace.Record)
	for _, r := range db.commRanks[commID] {
		s := db.series(r)
		var members []trace.Record // stays nil for a member silent in the window
		lo, hi := s.log.window(from, to)
		for i := lo; i < hi; i++ {
			if t, rw := s.log.at(i); s.flows[rw.flow()].commID == commID {
				members = s.appendTo(members, t, rw)
			}
		}
		out[r] = members
	}
	return out
}

// LastStatePerChannel returns rank r's most recent state log per channel for
// a communicator, looking back at most window from t.
func (db *DB) LastStatePerChannel(r topo.Rank, commID uint64, t sim.Time, window time.Duration) map[int32]trace.Record {
	out := make(map[int32]trace.Record)
	s := db.series(r)
	if s == nil {
		return out
	}
	lo, hi := s.log.window(t.Add(-window), t)
	for i := hi - 1; i >= lo; i-- { // newest first: a channel's first hit is its last state
		at, rw := s.log.at(i)
		f := &s.flows[rw.flow()]
		if f.kind != trace.KindState || f.commID != commID {
			continue
		}
		if _, seen := out[f.channel]; !seen {
			out[f.channel] = s.record(at, rw)
		}
	}
	return out
}
