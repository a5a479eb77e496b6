package clouddb

import (
	"runtime"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// liveHeap returns the heap in use after a forced collection, and the
// lifetime malloc count.
func liveHeap() (heap, mallocs uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

// perRankBatches builds batches of one record per rank per tick, n ticks,
// spaced step apart from start.
func perRankBatches(ranks, n int, start sim.Time, step time.Duration) [][]trace.Record {
	batches := make([][]trace.Record, n)
	for i := range batches {
		at := start.Add(time.Duration(i) * step)
		batches[i] = make([]trace.Record, ranks)
		for r := range batches[i] {
			batches[i][r] = rec(topo.Rank(r), uint64(r%4+1), at, trace.KindState)
		}
	}
	return batches
}

// TestIngestFootprint pins what the segmented layout is for: a stored record
// costs its 88-byte slot plus a few bytes of segment tail and index, not the
// 128-byte record plus append's doubling slack (159 B at the flat layout),
// and ingest allocates once per segment, not once per regrow of every rank.
func TestIngestFootprint(t *testing.T) {
	const ranks, perRank = 64, 3125 // 200 k records
	batches := perRankBatches(ranks, perRank, 1, time.Millisecond)
	heap0, mallocs0 := liveHeap()
	db := New(sim.NewEngine(1), 0)
	for _, b := range batches {
		db.Ingest(b)
	}
	heap1, mallocs1 := liveHeap()
	runtime.KeepAlive(batches) // on both sides of the difference
	if got := db.LiveRecords(); got != ranks*perRank {
		t.Fatalf("stored %d records, want %d", got, ranks*perRank)
	}
	records := float64(ranks * perRank)
	if perRecord := (float64(heap1) - float64(heap0)) / records; perRecord > 112 {
		t.Errorf("%.1f heap bytes per stored record, want ≤ 112", perRecord)
	}
	// One malloc per segment; per rank, the series, its communicator list,
	// its communicator-index entry, and the doublings of a segment-pointer
	// slice that ends a few dozen long.
	if got, max := mallocs1-mallocs0, uint64(ranks*perRank/segLen+32*ranks); got > max {
		t.Errorf("%d mallocs ingesting %d records over %d ranks, want ≤ %d", got, ranks*perRank, ranks, max)
	}
	runtime.KeepAlive(db)
}

// TestPruneReleasesMemory: under a retention horizon the store's heap is the
// horizon's worth of records however long it has run, and a rank that stops
// reporting keeps nothing past the next prune of its shard.
func TestPruneReleasesMemory(t *testing.T) {
	const (
		ranks      = 16
		horizon    = time.Second
		tick       = 500 * time.Microsecond // 2 k records per rank per horizon
		perHorizon = int(horizon / tick)
	)
	heap0, _ := liveHeap()
	eng := sim.NewEngine(1)
	db := New(eng, horizon)
	run := func(horizons int) {
		for _, b := range perRankBatches(ranks, horizons*perHorizon, eng.Now()+1, tick) {
			eng.RunUntil(b[0].Time)
			db.Ingest(b)
		}
	}
	held := func() float64 {
		h, _ := liveHeap()
		return float64(h) - float64(heap0)
	}
	run(2) // the first horizon prunes nothing; measure a full one
	after1 := held()
	run(9)
	after10 := held()
	if live := db.LiveRecords(); live < ranks*perHorizon || live > ranks*(perHorizon+1) {
		t.Fatalf("%d live records, want one horizon's (%d)", live, ranks*perHorizon)
	}
	if after10 > 1.25*after1 {
		t.Errorf("live heap %.0f B after 10 horizons, %.0f B after one: pruned records are still held", after10, after1)
	}

	// Rank 16 shares shard 0 with rank 0 (8 shards). It bursts and falls
	// silent; once the burst is over the horizon, rank 0's next ingest prunes
	// the shard and the burst's segments must go.
	const burst = 50_000
	batch := make([]trace.Record, burst)
	for i := range batch {
		batch[i] = rec(ranks, 1, eng.Now(), trace.KindState)
	}
	db.Ingest(batch)
	batch = nil
	before := held()
	eng.RunFor(2 * horizon)
	db.Ingest([]trace.Record{rec(0, 1, eng.Now(), trace.KindState)})
	if got := len(db.QueryRank(ranks, 0, sim.Infinity)); got != 0 {
		t.Fatalf("silent rank still has %d live records", got)
	}
	if freed, want := before-held(), 0.9*burst*88; freed < want {
		t.Errorf("pruning a silent rank's %d records freed %.0f B, want ≥ %.0f", burst, freed, want)
	}
	runtime.KeepAlive(db)
}
