package clouddb

import (
	"runtime"
	"slices"
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
// costs its 5-byte time offset and row byte plus its share of its sealed
// segment's rows and of its rank's open buffer, not the 128-byte record plus
// append's doubling slack (159 B at the flat layout), an 88-byte slot that
// repeats its flow's fields (~89 B), a 56-byte one that repeats its
// operation's (~57 B), a 32-byte one that repeats its counters and stuck
// time (~39 B), or an 8-byte time in a fixed 4,864-byte segment (~20.4 B);
// and ingest allocates once per segment, not once per regrow of every rank.
// When every record needs its own row it still costs less than with 32-byte
// slots (~71 B), and a rank grows its open buffer once and keeps it, not a
// side table per segment by doubling (~68 B and ~9 mallocs a segment when
// it did).
func TestIngestFootprint(t *testing.T) {
	// A new open buffer fills Go's 3,456-byte size class, under 4,096: one
	// row more would move it to the next, 4,096.
	if size := blockSize(narrow, segRows); size > 3456 || 3456-size >= rowSize {
		t.Fatalf("an open buffer is %d B, want the most rows that fit in 3,456", size)
	}
	const ranks, perRank = 64, 3125 // 200 k records
	batches := perRankBatches(ranks, perRank, 1, time.Millisecond)
	perRecord, mallocs := ingestFootprint(t, batches)
	if perRecord > 14.9 {
		t.Errorf("%.1f heap bytes per stored record, want ≤ 14.9", perRecord)
	}
	// One malloc per segment; per rank, the series, its flow table, its
	// communicator list, its communicator's member list, and the doublings
	// of a sealed-block slice that ends a few dozen long.
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
	// Every full segment outgrows a new open buffer; a rank's last holds 53
	// records, which need 53 rows. The buffer a rank's first segment grew
	// serves the rest.
	grown := ranks * (perRank / segLen)
	if perGrown := float64(worstMallocs-mallocs) / float64(grown); perGrown > 2 {
		t.Errorf("%.2f mallocs per segment that outgrows a new open buffer, want ≤ 2", perGrown)
	}
	t.Logf("%.1f heap bytes per record, %.1f when each needs its own row, %.2f mallocs per segment that outgrows a new open buffer",
		perRecord, worst, float64(worstMallocs-mallocs)/float64(grown))
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
	if got := len(db.Query(Query{Ranks: []topo.Rank{ranks}}).Records); got != 0 {
		t.Fatalf("silent rank still has %d live records", got)
	}
	if freed, want := before-held(), 0.9*burst*float64(narrow+1); freed < want {
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
	for _, r := range db.Query(Query{Ranks: []topo.Rank{0}}).Records {
		channels = append(channels, r.Channel)
	}
	if want := []int32{4, 5, 4}; !slices.Equal(channels, want) {
		t.Fatalf("refilled rank reads channels %v, want %v", channels, want)
	}
	if got, want := db.CommsOfRank(0), []uint64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("CommsOfRank(0) = %v, want %v", got, want)
	}
}

// TestStoreBytesMatchesWalk: the running count StoreBytes keeps equals a walk
// of every series' sealed blocks, open buffer and flow table after
// ingest, after a retention cut releases sealed blocks, and after a silent
// rank is pruned empty.
func TestStoreBytesMatchesWalk(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, time.Second)
	check := func(when string) int {
		t.Helper()
		if got, want := db.StoreBytes(), storeBytes(db); got != want {
			t.Fatalf("%s: StoreBytes = %d, a walk of the store finds %d", when, got, want)
		}
		return db.StoreBytes()
	}
	ingest := func(ranks, ticks int) {
		for _, b := range perRankBatches(ranks, ticks, eng.Now()+1, time.Millisecond) {
			for r := range b {
				if r == 3 { // rank 3 needs a row a record, and outgrows its open buffer
					b[r].OpSeq = uint64(b[r].Time)
				}
			}
			eng.RunUntil(b[0].Time)
			db.Ingest(b)
		}
	}
	ingest(4, 900)
	filled := check("after ingest")
	ingest(3, 900) // rank 3 falls silent
	if cut := check("after a retention cut"); cut >= filled {
		t.Fatalf("a retention cut left %d B held of %d", cut, filled)
	}
	eng.RunFor(time.Second)
	ingest(1, 1)
	check("after a silent rank is pruned empty")
	if s := db.series(3); s.log.bytes() != 0 || s.flows != nil {
		t.Fatalf("rank 3 pruned empty holds %d B and %d flows", s.log.bytes(), len(s.flows))
	}
}
