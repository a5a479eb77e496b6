package trace

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

func sample() Record {
	return Record{
		Kind: KindState, Time: sim.Time(12345),
		IP: "10.0.0.3", CommID: 7, Rank: 13, GPUID: 13, Channel: 1, QPID: 42,
		Op: OpAllReduce, OpSeq: 99, MsgSize: 1 << 30,
		Start: sim.Time(time.Second), End: 0,
		TotalChunks: 256, GPUReady: 100, RDMATransmitted: 90, RDMADone: 80,
		StuckNs: int64(2 * time.Second),
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := sample()
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != WireSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), WireSize)
	}
	var got Record
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(commID, opSeq uint64, rank int32, ch, qp int32, msg int64, total, ready, tx, done uint32, stuck int64) bool {
		r := Record{
			Kind: KindCompletion, IP: "10.1.2.3", CommID: commID,
			Rank: topo.Rank(rank), Channel: ch, QPID: qp,
			Op: OpBroadcast, OpSeq: opSeq, MsgSize: msg,
			TotalChunks: total, GPUReady: ready, RDMATransmitted: tx, RDMADone: done,
			StuckNs: stuck,
		}
		b, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		var got Record
		if err := got.UnmarshalBinary(b); err != nil {
			return false
		}
		return reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRejectsLongIP(t *testing.T) {
	r := sample()
	r.IP = "123.456.789.12345" // 17 bytes
	if _, err := r.MarshalBinary(); err == nil {
		t.Fatal("long IP accepted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var r Record
	if err := r.UnmarshalBinary(make([]byte, WireSize-1)); err == nil {
		t.Fatal("short buffer accepted")
	}
	b := make([]byte, WireSize)
	b[2] = 200 // corrupt IP length
	if err := r.UnmarshalBinary(b); err == nil {
		t.Fatal("corrupt IP length accepted")
	}
}

func TestStalledAndDone(t *testing.T) {
	r := sample()
	if !r.Stalled(time.Second) {
		t.Fatal("2s stuck not detected at 1s threshold")
	}
	if r.Stalled(3 * time.Second) {
		t.Fatal("2s stuck flagged at 3s threshold")
	}
	if r.Done() {
		t.Fatal("incomplete record reported Done")
	}
	r.RDMADone = r.TotalChunks
	if !r.Done() {
		t.Fatal("complete record not Done")
	}
	c := Record{Kind: KindCompletion, StuckNs: int64(time.Hour)}
	if c.Stalled(time.Second) {
		t.Fatal("completion log reported Stalled")
	}
}

func TestKindOpStrings(t *testing.T) {
	if KindCompletion.String() != "completion" || KindState.String() != "state" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
	if OpAllReduce.String() != "AllReduce" || OpBarrier.String() != "Barrier" {
		t.Fatal("op strings wrong")
	}
	if OpKind(200).String() == "" {
		t.Fatal("unknown op empty")
	}
	s := sample()
	if s.String() == "" || (&Record{Kind: KindCompletion}).String() == "" {
		t.Fatal("record String empty")
	}
}

func TestSinks(t *testing.T) {
	var got []Record
	s := SinkFunc(func(r Record) { got = append(got, r) })
	Tee(s, Null, s).Emit(sample())
	if len(got) != 2 {
		t.Fatalf("tee delivered %d copies, want 2", len(got))
	}
}

func TestRingBasics(t *testing.T) {
	rb := NewRing(4)
	if rb.Capacity() != 4 {
		t.Fatalf("capacity = %d", rb.Capacity())
	}
	rd := rb.NewReader()
	if recs := rd.Drain(); recs != nil {
		t.Fatalf("fresh reader drained %d records", len(recs))
	}
	for i := 0; i < 3; i++ {
		r := sample()
		r.OpSeq = uint64(i)
		rb.Emit(r)
	}
	recs := rd.Drain()
	if len(recs) != 3 {
		t.Fatalf("drained %d, want 3", len(recs))
	}
	for i, r := range recs {
		if r.OpSeq != uint64(i) {
			t.Fatalf("order broken: %v", recs)
		}
	}
	if rd.Lost() != 0 {
		t.Fatalf("lost = %d, want 0", rd.Lost())
	}
	if rb.Written() != 3 {
		t.Fatalf("written = %d", rb.Written())
	}
}

func TestRingOverwriteCountsLost(t *testing.T) {
	rb := NewRing(4)
	rd := rb.NewReader()
	for i := 0; i < 10; i++ {
		r := sample()
		r.OpSeq = uint64(i)
		rb.Emit(r)
	}
	recs := rd.Drain()
	if len(recs) != 4 {
		t.Fatalf("drained %d, want 4 (capacity)", len(recs))
	}
	if recs[0].OpSeq != 6 || recs[3].OpSeq != 9 {
		t.Fatalf("kept wrong window: %v..%v", recs[0].OpSeq, recs[3].OpSeq)
	}
	if rd.Lost() != 6 {
		t.Fatalf("lost = %d, want 6", rd.Lost())
	}
}

func TestRingReaderStartsAtHead(t *testing.T) {
	rb := NewRing(8)
	rb.Emit(sample())
	rd := rb.NewReader()
	if recs := rd.Drain(); len(recs) != 0 {
		t.Fatalf("reader saw %d pre-existing records", len(recs))
	}
	rb.Emit(sample())
	if recs := rd.Drain(); len(recs) != 1 {
		t.Fatalf("reader saw %d new records, want 1", len(recs))
	}
}

func TestRingIncrementalDrains(t *testing.T) {
	rb := NewRing(16)
	rd := rb.NewReader()
	total := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			rb.Emit(sample())
		}
		total += len(rd.Drain())
	}
	if total != 15 {
		t.Fatalf("drained %d total, want 15", total)
	}
}

func TestRingInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewRing(0)
}

// TestRingHoldsOccupancyNotBudget: the backing store follows what a
// registered reader has left undrained, never the budget, and growing it
// changes nothing a reader sees or loses.
func TestRingHoldsOccupancyNotBudget(t *testing.T) {
	const capacity = 1000 // not a power of two: growth must land on it exactly
	rb := NewRing(capacity)
	initial := len(rb.slots)
	if initial >= capacity {
		t.Fatalf("ring of %d starts with %d slots", capacity, initial)
	}

	// A reader that keeps up: 10⁶ emits, drained every 50, never grow it.
	rd := rb.NewReader()
	var buf []Record
	for i := 0; i < 1_000_000; i++ {
		rb.Emit(Record{OpSeq: uint64(i)})
		if i%50 == 49 {
			buf = rd.DrainInto(buf[:0])
			if len(buf) != 50 || buf[0].OpSeq != uint64(i-49) || buf[49].OpSeq != uint64(i) {
				t.Fatalf("drain at %d returned %d records from %d", i, len(buf), buf[0].OpSeq)
			}
		}
	}
	if len(rb.slots) != initial || rd.Lost() != 0 {
		t.Fatalf("kept-up ring has %d slots (started with %d), lost %d", len(rb.slots), initial, rd.Lost())
	}

	// A stalled reader grows it to exactly Capacity; from there the writer
	// laps it and Lost counts as with a preallocated ring.
	base := rb.Written()
	for i := 0; i < capacity; i++ {
		rb.Emit(Record{OpSeq: base + uint64(i)})
	}
	if len(rb.slots) != capacity {
		t.Fatalf("stalled reader grew the ring to %d slots, want %d", len(rb.slots), capacity)
	}
	for i := capacity; i < capacity+6; i++ {
		rb.Emit(Record{OpSeq: base + uint64(i)})
	}
	recs := rd.Drain()
	if len(recs) != capacity || len(rb.slots) != capacity {
		t.Fatalf("drained %d records from %d slots, want %d", len(recs), len(rb.slots), capacity)
	}
	if rd.Lost() != 6 {
		t.Fatalf("lost = %d, want 6", rd.Lost())
	}
	for i, r := range recs {
		if r.OpSeq != base+6+uint64(i) {
			t.Fatalf("record %d is %d, want %d", i, r.OpSeq, base+6+uint64(i))
		}
	}

	// With no reader registered nothing is owed to anyone: the ring stays
	// small and a late reader sees only what follows it.
	quiet := NewRing(capacity)
	for i := 0; i < 3*capacity; i++ {
		quiet.Emit(Record{OpSeq: uint64(i)})
	}
	if len(quiet.slots) != initial {
		t.Fatalf("readerless ring grew to %d slots", len(quiet.slots))
	}
	late := quiet.NewReader()
	quiet.Emit(Record{OpSeq: 7})
	if recs := late.Drain(); len(recs) != 1 || recs[0].OpSeq != 7 {
		t.Fatalf("late reader drained %v", recs)
	}
}

// Property: drains never lose, duplicate or reorder records while no reader
// falls a whole ring behind — for two readers at different cursors, across
// growth of the backing store.
func TestRingNoDuplicationProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		rb := NewRing(2 * ringInitialSlots)
		eager, lazy := rb.NewReader(), rb.NewReader()
		var next, eagerNext, lazyNext uint64
		check := func(rd *Reader, expect *uint64) bool {
			for _, rec := range rd.Drain() {
				if rec.OpSeq != *expect {
					return false // lost, duplicate or reorder
				}
				*expect++
			}
			return true
		}
		for i, n := range batches {
			for k := 0; k < int(n); k++ {
				rb.Emit(Record{OpSeq: next})
				next++
			}
			if !check(eager, &eagerNext) {
				return false
			}
			// Two batches of at most 255 stay inside the 512-slot budget
			// but outgrow the initial store.
			if i%2 == 1 && !check(lazy, &lazyNext) {
				return false
			}
		}
		return check(eager, &eagerNext) && check(lazy, &lazyNext) &&
			eagerNext == next && lazyNext == next && eager.Lost() == 0 && lazy.Lost() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
