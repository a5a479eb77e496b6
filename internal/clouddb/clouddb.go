// Package clouddb is the in-memory stand-in for Mycroft's cloud trace
// database (§6.1): the caching layer the always-on backend queries. Records
// are sharded by rank-hash into independently pruned shards, each with its
// own per-rank series and communicator index, so fleet-scale ingest and the
// Algorithms 1/2 window queries never walk one global map.
// The store supports the time-window lookups the backend issues, a unified
// predicate/pagination query layer (see query.go), a retention horizon (the
// production system keeps one day), and volume accounting so the data-volume
// experiment (E6) can extrapolate to cluster scale.
//
// # Layout
//
// At fleet size the store, not the simulator, is what fills the heap, so a
// rank's records are not kept as trace.Records. Each rank has a log of
// fixed-length segments of 88-byte slots (seglog.go): a slot is a record
// without its Rank and IP — the same on every record of a rank, and IP the
// record's only pointer — so a segment is pointer-free memory the collector
// never scans, sized to fill one of the allocator's size classes. Ingest
// writes one slot and allocates only when a rank's last segment is full;
// nothing stored is ever copied, cleared or regrown. Retention releases whole
// segments as the horizon passes them, and all of a rank's once it has no
// live record. Readers binary-search and walk the slots in place, test their
// time, communicator and kind predicates there, and rebuild a trace.Record
// only for what they return.
package clouddb

import (
	"fmt"
	"sort"
	"time"

	"mycroft/internal/otrace"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// DefaultShards is the shard count New uses. Sharding is by rank modulo
// shard count: one host's ranks are consecutive, so a host's traffic spreads
// across shards instead of hammering one.
const DefaultShards = 8

// maxShards bounds the shard count so a batch's touched-shard set fits in a
// word (Ingest tracks which shards to prune with a bitmask).
const maxShards = 64

// rankSeries holds one rank's records in emission order plus the per-rank
// facts Ingest would otherwise re-derive per record (the set of communicators
// already indexed) and the two record fields that are the same on every
// record of a rank, which the stored slots therefore leave out: the rank and
// the IP it reports from. ip is the first-seen IP — what IPOf answers with; a
// record that arrives with a different one (a rank re-homed to another host
// mid-run) gets an entry in ips and its slot an index into it, so every read
// returns exactly the record that was ingested.
type rankSeries struct {
	rank  topo.Rank
	ip    topo.IP
	ips   []topo.IP // IPs other than ip this rank has reported from, in order seen
	log   recLog
	comms map[uint64]bool
}

// shard is one independently pruned partition of the store.
type shard struct {
	byRank    map[topo.Rank]*rankSeries
	commRanks map[uint64]map[topo.Rank]bool

	ingested uint64
	pruned   uint64
	maxTime  sim.Time
}

func newShard() *shard {
	return &shard{
		byRank:    make(map[topo.Rank]*rankSeries),
		commRanks: make(map[uint64]map[topo.Rank]bool),
	}
}

// DB stores trace records ordered by emission time per rank.
type DB struct {
	eng       *sim.Engine
	retention time.Duration
	shards    []*shard

	ingested      uint64 // records
	bytesIngested uint64

	observers []func([]trace.Record)
	metrics   *Metrics
	spans     *otrace.Tracer
}

// SetTracer attaches a pipeline span tracer: every subsequent Ingest batch
// records one StageIngest span covering store, prune and observers (the
// dependency-graph update rides the observer list, so its cost lands inside
// the span's wall window). Nil detaches. Like SetMetrics, the hot path pays
// one pointer check when no tracer is attached.
func (db *DB) SetTracer(t *otrace.Tracer) { db.spans = t }

// New creates a DB with the given retention horizon (0 = keep forever) and
// the default shard count.
func New(eng *sim.Engine, retention time.Duration) *DB {
	return NewSharded(eng, retention, DefaultShards)
}

// NewSharded is New with an explicit shard count in [1, 64].
func NewSharded(eng *sim.Engine, retention time.Duration, shards int) *DB {
	if retention < 0 {
		panic(fmt.Sprintf("clouddb: negative retention %v", retention))
	}
	if shards < 1 || shards > maxShards {
		panic(fmt.Sprintf("clouddb: shard count %d outside [1, %d]", shards, maxShards))
	}
	db := &DB{eng: eng, retention: retention, shards: make([]*shard, shards)}
	for i := range db.shards {
		db.shards[i] = newShard()
	}
	return db
}

// shardIdx maps a rank to its shard.
func (db *DB) shardIdx(r topo.Rank) int {
	if r < 0 {
		r = -r
	}
	return int(r) % len(db.shards)
}

// seriesFor returns (creating on first sight) the series for a rank.
func (db *DB) seriesFor(r topo.Rank, ip topo.IP) (int, *shard, *rankSeries) {
	idx := db.shardIdx(r)
	sh := db.shards[idx]
	s := sh.byRank[r]
	if s == nil {
		s = &rankSeries{rank: r, ip: ip, comms: make(map[uint64]bool)}
		sh.byRank[r] = s
	}
	return idx, sh, s
}

// Ingest appends a batch. Records for one rank must arrive in emission
// order, which the per-host agent guarantees (it drains an ordered ring).
// Only the shards the batch touches are pruned; untouched shards keep their
// over-horizon records until their next ingest (retention is a horizon, not
// an instant).
func (db *DB) Ingest(batch []trace.Record) {
	if len(batch) == 0 {
		return
	}
	span := db.spans.Batch(otrace.StageIngest)
	var (
		series  *rankSeries
		sh      *shard
		last    topo.Rank
		touched uint64
	)
	for i := range batch {
		r := &batch[i]
		if series == nil || r.Rank != last {
			var idx int
			idx, sh, series = db.seriesFor(r.Rank, r.IP)
			last = r.Rank
			touched |= 1 << uint(idx)
		}
		if newest := series.log.newest; newest != nil && newest.time > r.Time {
			panic(fmt.Sprintf("clouddb: out-of-order ingest for rank %d: %v after %v", r.Rank, r.Time, newest.time))
		}
		series.store(series.log.push(), r)
		if !series.comms[r.CommID] {
			series.comms[r.CommID] = true
			cr := sh.commRanks[r.CommID]
			if cr == nil {
				cr = make(map[topo.Rank]bool)
				sh.commRanks[r.CommID] = cr
			}
			cr[r.Rank] = true
		}
		if r.Time > sh.maxTime {
			sh.maxTime = r.Time
		}
		sh.ingested++
	}
	db.ingested += uint64(len(batch))
	db.bytesIngested += uint64(len(batch)) * trace.WireSize
	if m := db.metrics; m != nil {
		m.Records.Add(uint64(len(batch)))
		m.Bytes.Add(uint64(len(batch)) * trace.WireSize)
		m.Batches.Inc()
	}
	db.prune(touched)
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

// Replay feeds every live record to fn, ranks in ascending order and each
// rank's records in ingestion (= emission) order. Observers attached after
// ingest began bootstrap from this; per-rank order is the only ordering
// invariant the store guarantees, and Replay preserves it.
func (db *DB) Replay(fn func(trace.Record)) {
	for _, r := range db.Ranks() {
		s := db.series(r)
		for i := 0; i < s.log.n; i++ {
			fn(s.record(s.log.at(i)))
		}
	}
}

// Export feeds every live record with Time in (from, to] to fn in one global
// deterministic order — ascending (Time, Rank) — and returns how many were
// visited. fn returning false stops the walk early. Within one rank records
// keep their ingestion order, so re-Ingesting an exported stream can never
// trip the per-rank monotonicity check: this is the incident recorder's
// preamble iterator, and a merged stream is also what an operator expects a
// downloaded artifact to contain. A simple k-way merge over the per-rank
// series; memory stays O(ranks), not O(records).
func (db *DB) Export(from, to sim.Time, fn func(trace.Record) bool) uint64 {
	ranks := db.Ranks()
	type cursor struct {
		s     *rankSeries
		i, hi int
		next  *slot // slot i, nil once the cursor is spent
	}
	cursors := make([]cursor, 0, len(ranks))
	for _, r := range ranks {
		s := db.series(r)
		lo, hi := s.log.window(from, to)
		if lo < hi {
			cursors = append(cursors, cursor{s: s, i: lo, hi: hi, next: s.log.at(lo)})
		}
	}
	var visited uint64
	for {
		best := -1
		for i := range cursors {
			c := &cursors[i]
			if c.next == nil {
				continue
			}
			// Cursors are rank-ascending, so strict time comparison alone
			// gives the (Time, Rank) order: ties keep the earlier cursor.
			if best < 0 || c.next.time < cursors[best].next.time {
				best = i
			}
		}
		if best < 0 {
			return visited
		}
		c := &cursors[best]
		rec := c.s.record(c.next)
		if c.i++; c.i < c.hi {
			c.next = c.s.log.at(c.i)
		} else {
			c.next = nil
		}
		visited++
		if !fn(rec) {
			return visited
		}
	}
}

// prune drops records older than the retention horizon from the touched
// shards. A series gives back every segment the cut has passed, and all of
// them once it has no live record left.
func (db *DB) prune(touched uint64) {
	if db.retention == 0 {
		return
	}
	cut := db.eng.Now().Add(-db.retention)
	if cut <= 0 {
		return
	}
	var dropped uint64
	for idx, sh := range db.shards {
		if touched&(1<<uint(idx)) == 0 {
			continue
		}
		for _, s := range sh.byRank {
			if i := s.log.firstFrom(cut); i > 0 {
				sh.pruned += uint64(i)
				dropped += uint64(i)
				s.log.dropFront(i)
			}
		}
	}
	if m := db.metrics; m != nil && dropped > 0 {
		m.Pruned.Add(dropped)
	}
}

// series returns the series for a rank, or nil.
func (db *DB) series(r topo.Rank) *rankSeries {
	return db.shards[db.shardIdx(r)].byRank[r]
}

// Ingested returns how many records have been stored.
func (db *DB) Ingested() uint64 { return db.ingested }

// BytesIngested returns the stored volume in encoded bytes.
func (db *DB) BytesIngested() uint64 { return db.bytesIngested }

// Pruned returns how many records retention dropped, across all shards.
func (db *DB) Pruned() uint64 {
	var n uint64
	for _, sh := range db.shards {
		n += sh.pruned
	}
	return n
}

// Shards returns the shard count.
func (db *DB) Shards() int { return len(db.shards) }

// ShardStats describes one shard's live state.
type ShardStats struct {
	Ranks    int    `json:"ranks"`    // ranks with a series in this shard
	Records  int    `json:"records"`  // live (unpruned) records
	Ingested uint64 `json:"ingested"` // lifetime records ingested
	Pruned   uint64 `json:"pruned"`   // lifetime records dropped by retention
}

// Stats aggregates the store's live state.
type Stats struct {
	Ranks         int          `json:"ranks"`
	Records       int          `json:"records"` // live records across all shards
	Ingested      uint64       `json:"ingested"`
	BytesIngested uint64       `json:"bytes_ingested"`
	Pruned        uint64       `json:"pruned"`
	Shards        []ShardStats `json:"shards"`
}

// Stats reports per-shard and aggregate counters. The query layer and the
// CLIs use it; it never walks record payloads, only per-shard metadata.
func (db *DB) Stats() Stats {
	st := Stats{Ingested: db.ingested, BytesIngested: db.bytesIngested, Shards: make([]ShardStats, len(db.shards))}
	for i, sh := range db.shards {
		ss := ShardStats{Ranks: len(sh.byRank), Ingested: sh.ingested, Pruned: sh.pruned}
		for _, s := range sh.byRank {
			ss.Records += s.log.n
		}
		st.Shards[i] = ss
		st.Ranks += ss.Ranks
		st.Records += ss.Records
		st.Pruned += ss.Pruned
	}
	return st
}

// Ranks returns every rank that has ever produced a record.
func (db *DB) Ranks() []topo.Rank {
	var out []topo.Rank
	for _, sh := range db.shards {
		for r := range sh.byRank {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IPOf returns the IP a rank reports from.
func (db *DB) IPOf(r topo.Rank) (topo.IP, bool) {
	if s := db.series(r); s != nil {
		return s.ip, true
	}
	return "", false
}

// RanksOfComm returns the member ranks observed for a communicator.
func (db *DB) RanksOfComm(commID uint64) []topo.Rank {
	var out []topo.Rank
	for _, sh := range db.shards {
		for r := range sh.commRanks[commID] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CommsOfRank returns the communicators rank r has produced records for.
func (db *DB) CommsOfRank(r topo.Rank) []uint64 {
	s := db.series(r)
	if s == nil {
		return nil
	}
	out := make([]uint64, 0, len(s.comms))
	for comm := range s.comms {
		out = append(out, comm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// QueryRank returns rank r's records with Time in (from, to], in order.
func (db *DB) QueryRank(r topo.Rank, from, to sim.Time) []trace.Record {
	s := db.series(r)
	if s == nil {
		return nil
	}
	return s.records(s.log.window(from, to))
}

// QueryGroup returns, per member rank of the communicator, the records in
// (from, to] that belong to that communicator.
func (db *DB) QueryGroup(commID uint64, from, to sim.Time) map[topo.Rank][]trace.Record {
	out := make(map[topo.Rank][]trace.Record)
	for _, r := range db.RanksOfComm(commID) {
		s := db.series(r)
		var members []trace.Record // stays nil for a member silent in the window
		lo, hi := s.log.window(from, to)
		for i := lo; i < hi; i++ {
			if sl := s.log.at(i); sl.commID == commID {
				members = s.appendTo(members, sl)
			}
		}
		out[r] = members
	}
	return out
}

// LastRecord returns rank r's most recent record at or before t for the
// given communicator (commID 0 matches any), and whether one exists.
func (db *DB) LastRecord(r topo.Rank, commID uint64, t sim.Time) (trace.Record, bool) {
	s := db.series(r)
	if s == nil {
		return trace.Record{}, false
	}
	for i := s.log.firstAfter(t) - 1; i >= 0; i-- {
		if sl := s.log.at(i); commID == 0 || sl.commID == commID {
			return s.record(sl), true
		}
	}
	return trace.Record{}, false
}

// LastCompletion returns rank r's most recent completion log at or before t
// (any communicator), and whether one exists.
func (db *DB) LastCompletion(r topo.Rank, t sim.Time) (trace.Record, bool) {
	s := db.series(r)
	if s == nil {
		return trace.Record{}, false
	}
	for i := s.log.firstAfter(t) - 1; i >= 0; i-- {
		if sl := s.log.at(i); sl.kind == trace.KindCompletion {
			return s.record(sl), true
		}
	}
	return trace.Record{}, false
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
		sl := s.log.at(i)
		if sl.kind != trace.KindState || sl.commID != commID {
			continue
		}
		if _, seen := out[sl.channel]; !seen {
			out[sl.channel] = s.record(sl)
		}
	}
	return out
}
