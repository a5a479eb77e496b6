package clouddb

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

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
// spaced step apart from start, shaped as ccl emits state logs: a rank names
// one op for 32 ticks, and its channel progresses every 8, moving the chunk
// counters and the instant its StuckNs counts from.
func perRankBatches(ranks, n int, start sim.Time, step time.Duration) [][]trace.Record {
	batches := make([][]trace.Record, n)
	for i := range batches {
		at := start.Add(time.Duration(i) * step)
		moved := i - i%8
		batches[i] = make([]trace.Record, ranks)
		for r := range batches[i] {
			rc := rec(topo.Rank(r), uint64(r%4+1), at, trace.KindState)
			rc.OpSeq = uint64(i / 32)
			rc.GPUReady, rc.RDMATransmitted, rc.RDMADone = uint32(moved), uint32(moved), uint32(moved/2)
			rc.StuckNs = int64(time.Duration(i-moved) * step)
			batches[i][r] = rc
		}
	}
	return batches
}

// ingestFootprint stores batches in a new DB and returns the live heap it
// added per record and the mallocs it took.
func ingestFootprint(t *testing.T, batches [][]trace.Record) (perRecord float64, mallocs uint64) {
	t.Helper()
	heap0, mallocs0 := liveHeap()
	db := New(sim.NewEngine(1), 0)
	records := 0
	for _, b := range batches {
		db.Ingest(b)
		records += len(b)
	}
	heap1, mallocs1 := liveHeap()
	runtime.KeepAlive(batches) // on both sides of the difference
	if got := db.LiveRecords(); got != records {
		t.Fatalf("stored %d records, want %d", got, records)
	}
	runtime.KeepAlive(db)
	return (float64(heap1) - float64(heap0)) / float64(records), mallocs1 - mallocs0
}

// TestIngestFootprint pins what the segmented layout is for: a stored record
// costs its 8-byte time and row byte plus its share of its segment's row
// table, segment tail and index, not the 128-byte record plus append's
// doubling slack (159 B at the flat layout), an 88-byte slot that repeats its
// flow's fields (~89 B), a 56-byte one that repeats its operation's (~57 B)
// or a 32-byte one that repeats its counters and stuck time (~39 B); and
// ingest allocates once per segment, not once per regrow of every rank. When
// every record needs its own row, spilling, it still costs less than with
// 32-byte slots (~71 B), and a segment's spill is sized once, not grown by
// doubling (~68 B and ~9 mallocs a spilled segment when it was).
func TestIngestFootprint(t *testing.T) {
	// A segment fills Go's 4,864-byte size class: one row more would move it
	// to the next, 5,376.
	if size := unsafe.Sizeof(segment{}); size > 4864 || 4864-size >= unsafe.Sizeof(row{}) {
		t.Fatalf("a segment is %d B, want the most rows that fit in 4,864", size)
	}
	const ranks, perRank = 64, 3125 // 200 k records
	batches := perRankBatches(ranks, perRank, 1, time.Millisecond)
	perRecord, mallocs := ingestFootprint(t, batches)
	if perRecord > 24 {
		t.Errorf("%.1f heap bytes per stored record, want ≤ 24", perRecord)
	}
	// One malloc per segment; per rank, the series, its flow table, its
	// communicator list, its communicator's member list, and the doublings
	// of a segment-pointer slice that ends a few dozen long.
	if max := uint64(ranks*perRank/segLen + 32*ranks); mallocs > max {
		t.Errorf("%d mallocs ingesting %d records over %d ranks, want ≤ %d", mallocs, ranks*perRank, ranks, max)
	}

	for i, b := range batches {
		for r := range b {
			b[r].OpSeq, b[r].RDMADone = uint64(i), uint32(i)
		}
	}
	worst, worstMallocs := ingestFootprint(t, batches)
	if worst > 62 {
		t.Errorf("%.1f heap bytes per stored record when each has its own row, want ≤ 62", worst)
	}
	// Every full segment spills; a rank's last holds 53 records, which fit.
	spilled := ranks * (perRank / segLen)
	if perSpill := float64(worstMallocs-mallocs) / float64(spilled); perSpill > 2 {
		t.Errorf("%.2f mallocs per spilled segment, want ≤ 2", perSpill)
	}
	t.Logf("%.1f heap bytes per record, %.1f when each needs its own row, %.2f mallocs per spilled segment",
		perRecord, worst, float64(worstMallocs-mallocs)/float64(spilled))
}

// TestPruneReleasesMemory: under a retention horizon the store's heap is the
// horizon's worth of records however long it has run, and a rank that stops
// reporting keeps nothing past the next prune.
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

	// Rank 16 bursts and falls silent; once the burst is over the horizon,
	// rank 0's next ingest prunes it and the burst's segments must go.
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
	if freed, want := before-held(), 0.9*burst*float64(unsafe.Sizeof(segment{}.times[0])+unsafe.Sizeof(segment{}.rowOf[0])); freed < want {
		t.Errorf("pruning a silent rank's %d records freed %.0f B, want ≥ %.0f", burst, freed, want)
	}
	runtime.KeepAlive(db)
}

// TestFlowTableResetsWhenEmpty: a series' flow table holds one flow per
// distinct tuple since its log was last empty. A rank pruned empty forgets
// its flows, and refilled with new ones keeps only those; its communicator
// index, like the flat store's, forgets nothing.
func TestFlowTableResetsWhenEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, time.Second)
	states := func(r topo.Rank, channels ...int32) []trace.Record {
		var b []trace.Record
		for _, ch := range channels {
			rc := rec(r, uint64(ch/2+1), eng.Now(), trace.KindState)
			rc.Channel = ch
			b = append(b, rc)
		}
		return b
	}
	db.Ingest(states(0, 0, 1, 2, 3, 0, 1, 2, 3))
	if got := len(db.series(0).flows); got != 4 {
		t.Fatalf("%d flows after 4 channels, want 4", got)
	}
	// Rank 8's ingest, past the horizon, prunes rank 0 empty.
	eng.RunFor(2 * time.Second)
	db.Ingest(states(8, 0))
	if s := db.series(0); s.log.n != 0 || s.flows != nil {
		t.Fatalf("rank 0 pruned empty holds %d records and %d flows", s.log.n, len(s.flows))
	}
	db.Ingest(states(0, 4, 5, 4))
	if got := len(db.series(0).flows); got != 2 {
		t.Fatalf("%d flows after refilling with 2 new ones, want 2", got)
	}
	var channels []int32
	for _, r := range db.QueryRank(0, 0, sim.Infinity) {
		channels = append(channels, r.Channel)
	}
	if want := []int32{4, 5, 4}; !slices.Equal(channels, want) {
		t.Fatalf("refilled rank reads channels %v, want %v", channels, want)
	}
	if got, want := db.CommsOfRank(0), []uint64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("CommsOfRank(0) = %v, want %v", got, want)
	}
}
