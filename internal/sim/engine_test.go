package sim

import (
	"sort"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v after run, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.At(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
		e.At(e.Now(), func() { trace = append(trace, e.Now()) }) // same-time requeue
	})
	e.Run()
	if len(trace) != 3 || trace[0] != 10 || trace[1] != 10 || trace[2] != 15 {
		t.Fatalf("trace = %v, want [10 10 15]", trace)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(50)
	if fired {
		t.Fatal("event at 100 fired during RunUntil(50)")
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
	e.RunUntil(100)
	if !fired {
		t.Fatal("event at 100 did not fire during RunUntil(100)")
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(50, func() { fired = true })
	e.RunUntil(50)
	if !fired {
		t.Fatal("event scheduled exactly at boundary did not fire")
	}
}

func TestRunForAccumulates(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(time.Second)
	e.RunFor(time.Second)
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := e.NewTicker(100*time.Millisecond, func(now Time) {
		ticks = append(ticks, now)
	})
	e.RunUntil(Time(350 * time.Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	tk.Stop()
	if !tk.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	e.RunUntil(Time(time.Second))
	if len(ticks) != 3 {
		t.Fatalf("ticker fired after Stop: %v", ticks)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.NewTicker(time.Millisecond, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	e.NewTicker(0, func(Time) {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		for i := 0; i < 100; i++ {
			d := Duration(e.Rand().Intn(1000)) * time.Microsecond
			e.After(d, func() { out = append(out, int64(e.Now())) })
		}
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDispatchedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Dispatched() != 7 {
		t.Fatalf("Dispatched() = %d, want 7", e.Dispatched())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

// recorder is a closure-free receiver: it appends the argument it fires with.
type recorder struct{ fired []int32 }

func (r *recorder) Fire(arg int32) { r.fired = append(r.fired, arg) }

// Property: the queue dispatches exactly what a stable sort by time of the
// scheduling order would — 10⁵ events over 10³ instants, so ties are the
// common case — and stays exact when pops and pushes interleave.
func TestEventOrderProperty(t *testing.T) {
	const n = 100_000
	e := NewEngine(7)
	rng := e.Rand()
	var rec recorder
	at := make([]Time, n)
	want := make([]int32, n)
	for i := range at {
		at[i] = Time(rng.Intn(1000))
		want[i] = int32(i)
		e.Schedule(at[i], &rec, int32(i))
	}
	sort.SliceStable(want, func(a, b int) bool { return at[want[a]] < at[want[b]] })
	e.Run()
	if len(rec.fired) != n {
		t.Fatalf("fired %d of %d events", len(rec.fired), n)
	}
	for i := range want {
		if rec.fired[i] != want[i] {
			t.Fatalf("dispatch %d was event %d (t=%v), reference says %d (t=%v)",
				i, rec.fired[i], at[rec.fired[i]], want[i], at[want[i]])
		}
	}

	// Interleaved: every event schedules a successor while the queue drains.
	// The reference keeps the pending set in a slice and scans for the
	// minimum (time, scheduling order).
	type pending struct {
		at  Time
		seq int
	}
	const m = 3000
	delays := make([]Duration, m)
	for i := range delays {
		delays[i] = Duration(rng.Intn(20))
	}
	var ref []pending
	var wantSeq []int
	next := 0
	push := func(now Time) {
		if next < m {
			ref = append(ref, pending{now.Add(delays[next]), next})
			next++
		}
	}
	for i := 0; i < 50; i++ {
		push(0)
	}
	for len(ref) > 0 {
		best := 0
		for i, p := range ref {
			if p.at < ref[best].at || (p.at == ref[best].at && p.seq < ref[best].seq) {
				best = i
			}
		}
		p := ref[best]
		ref = append(ref[:best], ref[best+1:]...)
		wantSeq = append(wantSeq, p.seq)
		push(p.at)
	}

	e = NewEngine(7)
	var gotSeq []int
	next = 0
	var spawn func()
	spawn = func() {
		if next < m {
			id := next
			next++
			e.After(delays[id], func() {
				gotSeq = append(gotSeq, id)
				spawn()
			})
		}
	}
	for i := 0; i < 50; i++ {
		spawn()
	}
	e.Run()
	if len(gotSeq) != len(wantSeq) {
		t.Fatalf("interleaved run fired %d events, reference %d", len(gotSeq), len(wantSeq))
	}
	for i := range wantSeq {
		if gotSeq[i] != wantSeq[i] {
			t.Fatalf("interleaved dispatch %d was event %d, reference says %d", i, gotSeq[i], wantSeq[i])
		}
	}
}

// TestTickerSeqAfterCallback: a tick takes its place in the queue after its
// callback returns, so an event the callback schedules for the next tick's
// instant runs before that tick.
func TestTickerSeqAfterCallback(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.NewTicker(10, func(now Time) {
		order = append(order, "tick")
		if now == 10 {
			e.At(20, func() { order = append(order, "scheduled-by-tick") })
		}
	})
	e.RunUntil(20)
	want := []string{"tick", "scheduled-by-tick", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSteadyStateAllocatesNothing is the substrate's allocation gate: a
// ticker tick and a closure-free schedule+dispatch cost no mallocs.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.NewTicker(time.Millisecond, func(Time) { ticks++ })
	e.Step() // the queue's backing array exists from here on
	if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
		t.Errorf("ticker tick: %v allocs, want 0", got)
	}
	if ticks < 1000 {
		t.Fatalf("ticker ticked %d times", ticks)
	}

	e = NewEngine(1)
	rec := &recorder{fired: make([]int32, 0, 2048)}
	e.Schedule(0, rec, 0)
	e.Step()
	if got := testing.AllocsPerRun(1000, func() {
		e.ScheduleAfter(time.Microsecond, rec, 1)
		e.Step()
	}); got != 0 {
		t.Errorf("closure-free schedule+dispatch: %v allocs, want 0", got)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatalf("Sub = %v, want 500ms", tm.Sub(Time(time.Second)))
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String() = %q, want 1.5s", tm.String())
	}
}

// BenchmarkEngineTickers: 512 tickers at 50 ms — the per-host drain loops of
// a 512-rank job — one op per tick.
func BenchmarkEngineTickers(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	ticks := 0
	for i := 0; i < 512; i++ {
		e.NewTicker(50*time.Millisecond, func(Time) { ticks++ })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if ticks != b.N {
		b.Fatalf("%d ticks in %d steps", ticks, b.N)
	}
}

// churner reschedules itself at a pseudo-random delay each time it fires.
type churner struct {
	eng   *Engine
	fired int
}

func (c *churner) Fire(arg int32) {
	c.fired++
	c.eng.ScheduleAfter(Duration(1+(uint32(arg)*2654435761)>>20), c, arg+1)
}

// BenchmarkEngineChurn: ~3 k pending self-rescheduling events, the queue
// depth of a 512-rank job — one op per pop+push.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := &churner{eng: e}
	for i := 0; i < 3000; i++ {
		e.Schedule(Time(i), c, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if c.fired != b.N {
		b.Fatalf("%d events in %d steps", c.fired, b.N)
	}
}
