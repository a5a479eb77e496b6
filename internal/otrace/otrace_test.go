package otrace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mycroft/internal/sim"
)

func testRecorder(capacity int) (*Recorder, *sim.Time) {
	now := new(sim.Time)
	r := NewRecorder(capacity, func() sim.Time { return *now })
	r.Job = "job"
	return r, now
}

func TestSpanLifecycle(t *testing.T) {
	r, now := testRecorder(16)
	*now = sim.Time(time.Second)
	id := r.Begin("job", StageIngest, "", 0)
	if id != 1 {
		t.Fatalf("first span id = %d, want 1", id)
	}
	*now = sim.Time(2 * time.Second)
	r.Annotate(id, "", "records=64")
	r.End(id)

	res := r.Spans(Query{})
	if res.Total != 1 || len(res.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", res.Total)
	}
	s := res.Spans[0]
	if s.Stage != StageIngest || s.Detail != "records=64" || s.Open() {
		t.Fatalf("bad span: %+v", s)
	}
	if s.Dur() != time.Second {
		t.Fatalf("virtual duration = %v, want 1s", s.Dur())
	}
	if s.WallDur() < 0 || s.WallStart == 0 || s.WallEnd == 0 {
		t.Fatalf("wall timestamps not set: %+v", s)
	}
}

func TestIncidentTree(t *testing.T) {
	r, now := testRecorder(64)

	*now = sim.Time(10 * time.Second)
	ing := r.StageAt(StageIngest, *now) // pre-incident: parentless, no cause
	r.End(ing)

	*now = sim.Time(15 * time.Second)
	root := r.OpenIncident("trigger-1", *now)
	r.AdoptLatest(StageIngest)
	rca := r.StageAt(StageRCA, *now)
	*now = sim.Time(16 * time.Second)
	r.EndAt(rca, *now)
	*now = sim.Time(30 * time.Second)
	r.CloseIncident(*now)

	res := r.Spans(Query{Cause: "trigger-1"})
	if res.Total != 3 {
		t.Fatalf("incident tree has %d spans, want 3 (root, adopted ingest, rca): %+v", res.Total, res.Spans)
	}
	for _, s := range res.Spans {
		if s.Stage != StageIncident && s.Parent != root {
			t.Errorf("span %s not parented to root: %+v", s.Stage, s)
		}
	}
	if id, _ := r.Incident(); id != 0 {
		t.Errorf("incident still active after close: %d", id)
	}
	// Post-incident stages are parentless again.
	if id := r.StageAt(StageDeliver, *now); id != 0 {
		got := r.Spans(Query{Stage: StageDeliver}).Spans[0]
		if got.Parent != 0 || got.Cause != "" {
			t.Errorf("post-incident stage inherited stale incident: %+v", got)
		}
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	r, _ := testRecorder(8)
	for i := 0; i < 20; i++ {
		r.End(r.Begin("job", StageIngest, "", 0))
	}
	res := r.Spans(Query{})
	if res.Total != 8 {
		t.Fatalf("live spans = %d, want 8", res.Total)
	}
	if res.Dropped != 12 {
		t.Fatalf("dropped = %d, want 12", res.Dropped)
	}
	// The oldest live ID is 13; ending an overwritten span is a no-op.
	if res.Spans[0].ID != 13 {
		t.Fatalf("oldest live span = %d, want 13", res.Spans[0].ID)
	}
	r.EndAt(1, 99) // must not corrupt slot 1's current occupant
	if got := r.Spans(Query{}).Spans[0]; got.End == 99 {
		t.Fatal("EndAt on an overwritten ID mutated the new occupant")
	}
}

func TestQueryFilters(t *testing.T) {
	r, now := testRecorder(64)
	root := r.OpenIncident("trigger-1", *now)
	_ = root
	a := r.StageAt(StageRCA, *now)
	r.End(a)
	b := r.StageAt(StageDeliver, *now)
	r.End(b)
	*now = sim.Time(time.Second)
	r.CloseIncident(*now)

	if got := r.Spans(Query{Stage: StageRCA}).Total; got != 1 {
		t.Errorf("stage filter: got %d, want 1", got)
	}
	if got := r.Spans(Query{Cause: "trigger-1"}).Total; got != 3 {
		t.Errorf("cause filter: got %d, want 3 (root, rca, deliver)", got)
	}
	if got := r.Spans(Query{AfterID: a}).Total; got != 1 {
		t.Errorf("AfterID filter: got %d, want 1", got)
	}
	if got := r.Spans(Query{Limit: 2}); got.Total != 3 || len(got.Spans) != 2 {
		t.Errorf("limit: got %d/%d, want 2 of 3", len(got.Spans), got.Total)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if id := r.Begin("j", "s", "", 0); id != 0 {
		t.Fatal("nil recorder returned a span id")
	}
	r.End(1)
	r.Annotate(1, "p", "d")
	if res := r.Spans(Query{}); res.Total != 0 {
		t.Fatal("nil recorder returned spans")
	}
	if id := r.OpenIncident("c", 0); id != 0 {
		t.Fatal("nil recorder opened an incident")
	}
	r.CloseIncident(0)
	r.End(r.StageAt("s", 0))
	r.End(r.Batch("s"))
	r.AdoptLatest("s")
	if id, cause := r.Incident(); id != 0 || cause != "" {
		t.Fatal("nil recorder has an incident")
	}
}

// TestConcurrentRecordAndQuery is the race-detector check: many producers
// spinning Begin/End/Annotate against one deliberately slow consumer
// querying mid-write. Run with -race.
func TestConcurrentRecordAndQuery(t *testing.T) {
	r, _ := testRecorder(128)
	const producers = 4
	const perProducer = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				var id SpanID
				if i%10 == 0 {
					id = r.OpenIncident(fmt.Sprintf("trigger-%d-%d", p, i), sim.Time(i))
				} else {
					id = r.StageAt(StageIngest, 0)
				}
				r.Annotate(id, "", "concurrent")
				if i%10 == 9 {
					r.CloseIncident(sim.Time(i))
				} else {
					r.End(id)
				}
			}
		}(p)
	}

	consumerDone := make(chan struct{})
	go func() { // slow consumer: query, then dawdle while producers wrap the ring
		defer close(consumerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := r.Spans(Query{Stage: StageIngest})
			for _, s := range res.Spans {
				if s.ID == 0 || s.Job != "job" {
					t.Errorf("torn span read: %+v", s)
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	<-consumerDone

	res := r.Spans(Query{})
	if res.Total != 128 {
		t.Fatalf("live spans = %d, want full ring 128", res.Total)
	}
	if res.Dropped != producers*perProducer-128 {
		t.Fatalf("dropped = %d, want %d", res.Dropped, producers*perProducer-128)
	}
}

// TestSpanRecordAllocs pins the 0-alloc budget for the record path — the
// same budget BenchmarkSpanRecord reports.
func TestSpanRecordAllocs(t *testing.T) {
	r, _ := testRecorder(1024)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.End(r.Begin("job", StageIngest, "", 0))
	}); allocs != 0 {
		t.Fatalf("Begin/End allocates %.1f/op, want 0", allocs)
	}
}

// TestIncidentRecordAllocs pins the same 0-alloc budget for one incident's
// whole life on a wrapping ring: the batches it adopts, its stage spans and
// its root.
func TestIncidentRecordAllocs(t *testing.T) {
	r, now := testRecorder(64)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.End(r.Batch(StageIngest))
		r.OpenIncident("trigger-1", *now)
		r.AdoptLatest(StageIngest)
		rca := r.StageAt(StageRCA, *now)
		r.EndAt(rca, *now)
		r.CloseIncident(*now)
	}); allocs != 0 {
		t.Fatalf("one incident allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSpanRecord prices one Begin/End pair — the per-batch cost the
// ingest path pays with spans enabled. Budget: 0 allocs/op.
func BenchmarkSpanRecord(b *testing.B) {
	r, _ := testRecorder(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.End(r.Begin("job", StageIngest, "", 0))
	}
}
