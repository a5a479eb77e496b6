package collector

import (
	"testing"
	"time"

	"mycroft/internal/clouddb"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

func setup() (*sim.Engine, *trace.Ring, *clouddb.DB) {
	eng := sim.NewEngine(1)
	return eng, trace.NewRing(1024), clouddb.New(eng, 0)
}

func emit(eng *sim.Engine, ring *trace.Ring, rank topo.Rank) {
	ring.Emit(trace.Record{Kind: trace.KindState, Time: eng.Now(), Rank: rank, CommID: 1, IP: "10.0.0.1"})
}

func TestUploadLatency(t *testing.T) {
	eng, ring, db := setup()
	NewAgent(eng, ring, db, Config{DrainPeriod: 50 * time.Millisecond, UploadLatency: time.Second})
	emit(eng, ring, 0)
	// After the first drain (50 ms) the batch is in flight but not queryable.
	eng.RunFor(500 * time.Millisecond)
	if db.Ingested() != 0 {
		t.Fatal("record queryable before upload latency elapsed")
	}
	eng.RunFor(700 * time.Millisecond) // 1.2s total > 50ms + 1s
	if db.Ingested() != 1 {
		t.Fatalf("Ingested = %d after latency", db.Ingested())
	}
}

func TestContinuousDrain(t *testing.T) {
	eng, ring, db := setup()
	a := NewAgent(eng, ring, db, Config{DrainPeriod: 10 * time.Millisecond, UploadLatency: time.Millisecond})
	tick := eng.NewTicker(5*time.Millisecond, func(sim.Time) { emit(eng, ring, 0) })
	eng.RunFor(time.Second)
	tick.Stop()
	eng.RunFor(100 * time.Millisecond)
	batches, records, lost := a.Stats()
	if records != 200 { // one emission per 5ms over 1s, ticks at 5ms..1000ms inclusive
		t.Fatalf("records = %d, want 200", records)
	}
	if db.Ingested() != records {
		t.Fatalf("db has %d, agent sent %d", db.Ingested(), records)
	}
	if lost != 0 {
		t.Fatalf("lost = %d", lost)
	}
	if batches == 0 || batches > records {
		t.Fatalf("batches = %d", batches)
	}
}

func TestOverrunCountsLostNotBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := trace.NewRing(8)
	db := clouddb.New(eng, 0)
	a := NewAgent(eng, ring, db, Config{DrainPeriod: time.Second, UploadLatency: time.Millisecond})
	for i := 0; i < 100; i++ {
		emit(eng, ring, 0)
	}
	eng.RunFor(2 * time.Second)
	_, records, lost := a.Stats()
	if lost != 92 {
		t.Fatalf("lost = %d, want 92", lost)
	}
	if records != 8 {
		t.Fatalf("records = %d, want 8", records)
	}
}

func TestStopHaltsDraining(t *testing.T) {
	eng, ring, db := setup()
	a := NewAgent(eng, ring, db, Config{DrainPeriod: 10 * time.Millisecond, UploadLatency: time.Millisecond})
	a.Stop()
	emit(eng, ring, 0)
	eng.RunFor(time.Second)
	if db.Ingested() != 0 {
		t.Fatal("stopped agent uploaded")
	}
	// Flush still works explicitly.
	a.Flush()
	eng.RunFor(time.Second)
	if db.Ingested() != 1 {
		t.Fatal("flush did not upload")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.DrainPeriod != 50*time.Millisecond || cfg.UploadLatency != time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative latency did not panic")
		}
	}()
	Config{UploadLatency: -time.Second}.withDefaults()
}

func TestNegativeDrainPeriodPanics(t *testing.T) {
	// A negative DrainPeriod used to be silently replaced with the default
	// while a negative UploadLatency panicked; both are config errors and
	// both must panic.
	defer func() {
		if recover() == nil {
			t.Error("negative drain period did not panic")
		}
	}()
	Config{DrainPeriod: -time.Millisecond}.withDefaults()
}

// countingStore is an Ingester that looks at a batch only while Ingest runs,
// as the contract requires.
type countingStore struct {
	records int
	lastSeq uint64
	ordered bool
}

func (s *countingStore) Ingest(batch []trace.Record) {
	for _, r := range batch {
		if s.records > 0 && r.OpSeq != s.lastSeq+1 {
			s.ordered = false
		}
		s.lastSeq = r.OpSeq
		s.records++
	}
}

// TestBatchBuffersRecycled: with twenty uploads in flight per drain period
// the agent still allocates nothing per batch once its buffers exist — each
// delivered batch's buffer serves a later drain — and every record arrives
// once, in order.
func TestBatchBuffersRecycled(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := trace.NewRing(1024)
	store := &countingStore{ordered: true}
	NewAgent(eng, ring, store, Config{DrainPeriod: 50 * time.Millisecond, UploadLatency: time.Second})
	var seq uint64
	second := func() {
		for i := 0; i < 20; i++ {
			for k := 0; k < 7; k++ {
				seq++
				ring.Emit(trace.Record{Kind: trace.KindState, Time: eng.Now(), OpSeq: seq})
			}
			eng.RunFor(50 * time.Millisecond)
		}
	}
	second()
	second() // the pipeline is full: 20 batches in flight
	if got := testing.AllocsPerRun(5, second); got != 0 {
		t.Errorf("a second of draining and uploading costs %v mallocs, want 0", got)
	}
	eng.RunFor(2 * time.Second)
	if store.records != int(seq) || !store.ordered {
		t.Errorf("store saw %d of %d records, in order: %v", store.records, seq, store.ordered)
	}
}
