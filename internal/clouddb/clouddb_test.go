package clouddb

import (
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

func rec(rank topo.Rank, comm uint64, t sim.Time, kind trace.Kind) trace.Record {
	return trace.Record{
		Kind: kind, Time: t, Rank: rank, CommID: comm,
		IP: topo.IP("10.0.0.1"), Op: trace.OpAllReduce,
	}
}

func TestIngestAndQueryRank(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	for i := 0; i < 10; i++ {
		db.Ingest([]trace.Record{rec(3, 1, sim.Time(i*100), trace.KindState)})
	}
	if db.Ingested() != 10 {
		t.Fatalf("Ingested = %d", db.Ingested())
	}
	if db.BytesIngested() != 10*trace.WireSize {
		t.Fatalf("BytesIngested = %d", db.BytesIngested())
	}
	got := db.QueryRank(3, 100, 500)
	if len(got) != 4 { // times 200,300,400,500: (100, 500]
		t.Fatalf("QueryRank returned %d records: %+v", len(got), got)
	}
	if got[0].Time != 200 || got[3].Time != 500 {
		t.Fatalf("window bounds wrong: %v..%v", got[0].Time, got[3].Time)
	}
	if db.QueryRank(99, 0, 1000) != nil {
		t.Fatal("unknown rank returned records")
	}
}

func TestOutOfOrderIngestPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	db.Ingest([]trace.Record{rec(1, 1, 100, trace.KindState)})
	defer func() {
		if recover() == nil {
			t.Error("out-of-order ingest did not panic")
		}
	}()
	db.Ingest([]trace.Record{rec(1, 1, 50, trace.KindState)})
}

func TestGroupIndexes(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	db.Ingest([]trace.Record{
		rec(0, 7, 10, trace.KindState),
		rec(1, 7, 11, trace.KindState),
		rec(2, 8, 12, trace.KindState),
	})
	if got := db.CommsOfRank(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("CommsOfRank(1) = %v", got)
	}
	if got := db.Ranks(); len(got) != 3 {
		t.Fatalf("Ranks = %v", got)
	}
	grp := db.QueryGroup(7, 0, 100)
	if len(grp) != 2 || len(grp[0]) != 1 || len(grp[1]) != 1 {
		t.Fatalf("QueryGroup = %v", grp)
	}
}

func TestQueryGroupFiltersOtherComms(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	db.Ingest([]trace.Record{
		rec(0, 7, 10, trace.KindState),
		rec(0, 8, 20, trace.KindState),
	})
	grp := db.QueryGroup(7, 0, 100)
	if len(grp[0]) != 1 || grp[0][0].CommID != 7 {
		t.Fatalf("cross-comm leakage: %v", grp[0])
	}
}

func TestIPIndex(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	a := rec(0, 1, 10, trace.KindState)
	b := rec(1, 1, 11, trace.KindState)
	b.IP = "10.0.0.2"
	db.Ingest([]trace.Record{a, b})
	if ip, ok := db.IPOf(0); !ok || ip != "10.0.0.1" {
		t.Fatalf("IPOf(0) = %v %v", ip, ok)
	}
	if ip, ok := db.IPOf(1); !ok || ip != "10.0.0.2" {
		t.Fatalf("IPOf(1) = %v %v", ip, ok)
	}
	if _, ok := db.IPOf(9); ok {
		t.Fatal("IPOf unknown rank reported ok")
	}
}

func TestLastStatePerChannel(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	mk := func(ch int32, ts sim.Time, done uint32) trace.Record {
		r := rec(0, 7, ts, trace.KindState)
		r.Channel = ch
		r.RDMADone = done
		return r
	}
	db.Ingest([]trace.Record{mk(0, 10, 1), mk(1, 11, 2), mk(0, 20, 5), mk(1, 21, 6)})
	got := db.LastStatePerChannel(0, 7, 100, time.Hour)
	if len(got) != 2 {
		t.Fatalf("channels = %d", len(got))
	}
	if got[0].RDMADone != 5 || got[1].RDMADone != 6 {
		t.Fatalf("stale channel states: %+v", got)
	}
}

func TestRetentionPrunes(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, time.Second)
	db.Ingest([]trace.Record{rec(0, 1, sim.Time(0), trace.KindState)})
	eng.RunFor(5 * time.Second)
	db.Ingest([]trace.Record{rec(0, 1, sim.Time(5*time.Second), trace.KindState)})
	if db.Pruned() != 1 {
		t.Fatalf("Pruned = %d, want 1", db.Pruned())
	}
	if got := db.QueryRank(0, 0, sim.Time(10*time.Second)); len(got) != 1 {
		t.Fatalf("retention left %d records", len(got))
	}
}

func TestNegativeRetentionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative retention did not panic")
		}
	}()
	New(sim.NewEngine(1), -time.Second)
}

// TestRetentionSweepsWholeStore: an ingest from any rank prunes every rank's
// expired records, not only its own.
func TestRetentionSweepsWholeStore(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, time.Second)
	db.Ingest([]trace.Record{rec(0, 1, 1, trace.KindState)})
	db.Ingest([]trace.Record{rec(1, 1, 1, trace.KindState)})
	eng.RunFor(5 * time.Second)

	// Only rank 0 ingests again; rank 1's expired record goes too.
	db.Ingest([]trace.Record{rec(0, 1, sim.Time(5*time.Second), trace.KindState)})
	if got := db.QueryRank(1, 0, sim.Time(10*time.Second)); got != nil {
		t.Fatalf("silent rank 1 kept %d expired records", len(got))
	}
	if db.Pruned() != 2 {
		t.Fatalf("Pruned = %d, want 2", db.Pruned())
	}
	if st := db.Stats(); st.Ranks != 2 || st.Records != 1 || st.Ingested != 3 || st.Pruned != 2 {
		t.Fatalf("Stats = %+v, want 2 ranks, 1 live, 3 ingested, 2 pruned", st)
	}
}

func TestOutOfOrderIngestPanicMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	db.Ingest([]trace.Record{rec(1, 1, 100, trace.KindState)})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order ingest did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		want := "clouddb: out-of-order ingest for rank 1: 50ns after 100ns"
		if msg != want {
			t.Fatalf("panic message %q, want %q", msg, want)
		}
	}()
	db.Ingest([]trace.Record{rec(1, 1, 50, trace.KindState)})
}

// TestIngestObserver covers the dependency-graph hook point: observers see
// every batch after it is stored.
func TestIngestObserver(t *testing.T) {
	eng := sim.NewEngine(1)
	db := New(eng, 0)
	var seen []trace.Record
	db.AddIngestObserver(func(batch []trace.Record) {
		seen = append(seen, batch...)
	})
	db.Ingest([]trace.Record{
		rec(3, 1, 100, trace.KindState),
		rec(5, 1, 100, trace.KindState),
	})
	db.Ingest([]trace.Record{rec(3, 1, 200, trace.KindCompletion)})
	if len(seen) != 3 {
		t.Fatalf("observer saw %d records, want 3", len(seen))
	}

	// A second observer attaches independently and can be removed; removal
	// must not disturb the first observer.
	n := 0
	remove := db.AddIngestObserver(func(batch []trace.Record) { n += len(batch) })
	db.Ingest([]trace.Record{rec(5, 1, 300, trace.KindState)})
	if n != 1 || len(seen) != 4 {
		t.Fatalf("multi-observer dispatch: n=%d seen=%d", n, len(seen))
	}
	remove()
	remove() // idempotent
	db.Ingest([]trace.Record{rec(5, 1, 400, trace.KindState)})
	if n != 1 || len(seen) != 5 {
		t.Fatalf("after remove: n=%d seen=%d", n, len(seen))
	}
}
