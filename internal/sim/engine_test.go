package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
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
// common case — and stays exact, dispatch by dispatch, when handlers schedule
// into the instant that is draining or ahead of every pending one.
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

	// Interleaved: events schedule children while the queue drains, checked
	// at every dispatch against a linear reference. One drive steps; the
	// other advances by RunUntil with many ties exactly at each bound.
	exercised := func(m *orderModel) {
		t.Helper()
		t.Logf("%d dispatches: %d children at Now(), %d at a new instant before every other, %d of them the earliest of all",
			m.fired, m.nowTies, m.earliest, m.top)
		if m.nowTies < 1000 || m.earliest < 1000 || m.top < 100 {
			t.Fatal("the drive did not exercise every case")
		}
	}
	m := newOrderModel(t)
	for i := 0; i < 200; i++ {
		m.schedule(Time(m.rng.Intn(1000)))
	}
	for m.e.Step() {
		if got := m.e.Pending(); got != len(m.ref) {
			t.Fatalf("after dispatch %d: Pending() = %d, reference %d", m.fired, got, len(m.ref))
		}
	}
	exercised(m)

	m = newOrderModel(t)
	for bound := Time(0); bound < 2000 || m.e.Pending() > 0; bound += 50 {
		for i := 0; bound < 2000 && i < 100; i++ {
			m.schedule(bound)
			m.schedule(bound + 1 + Time(m.rng.Intn(100)))
		}
		m.e.RunUntil(bound)
		if m.e.Now() != bound {
			t.Fatalf("RunUntil(%v) left Now() = %v", bound, m.e.Now())
		}
		for _, r := range m.ref {
			if r.at <= bound {
				t.Fatalf("RunUntil(%v) left event %d at %v pending", bound, r.id, r.at)
			}
		}
		if got := m.e.Pending(); got != len(m.ref) {
			t.Fatalf("after RunUntil(%v): Pending() = %d, reference %d", bound, got, len(m.ref))
		}
	}
	exercised(m)
}

// orderModel schedules each event on an Engine and on a linear reference.
// When an event fires it checks that it is the reference's earliest, first
// scheduled, event and that Pending() agrees, then schedules children the
// way the simulated job does: at Now() while its own instant drains, at
// instants other events share, and at a new instant earlier than every other
// pending one.
type orderModel struct {
	t        *testing.T
	e        *Engine
	rng      *rand.Rand
	ref      []refEvent // pending, in scheduling order
	next     int32      // id of the next event scheduled
	budget   int        // children left to schedule
	fired    int
	nowTies  int // children scheduled at Now()
	earliest int // children at a new instant before every other pending one
	top      int // of those, children scheduled once Now()'s instant had drained
}

type refEvent struct {
	at Time
	id int32
}

func newOrderModel(t *testing.T) *orderModel {
	return &orderModel{t: t, e: NewEngine(1), rng: rand.New(rand.NewSource(11)), budget: 30_000}
}

func (m *orderModel) schedule(at Time) {
	m.ref = append(m.ref, refEvent{at, m.next})
	m.e.Schedule(at, m, m.next)
	m.next++
}

func (m *orderModel) Fire(id int32) {
	best := 0
	for i, r := range m.ref {
		if r.at < m.ref[best].at {
			best = i
		}
	}
	if want := m.ref[best]; id != want.id || m.e.Now() != want.at {
		m.t.Fatalf("dispatch %d was event %d at %v, reference says %d at %v",
			m.fired, id, m.e.Now(), want.id, want.at)
	}
	m.ref = append(m.ref[:best], m.ref[best+1:]...)
	m.fired++
	if got := m.e.Pending(); got != len(m.ref) {
		m.t.Fatalf("dispatch %d: Pending() = %d, reference %d", m.fired, got, len(m.ref))
	}
	children := m.rng.Intn(2) // the population hovers near 100 pending
	if len(m.ref) < 100 {
		children++
	}
	for ; children > 0 && m.budget > 0; children-- {
		m.budget--
		now := m.e.Now()
		first, draining := now+1000, false
		for _, r := range m.ref {
			if r.at == now {
				draining = true
			} else if r.at < first {
				first = r.at
			}
		}
		switch k := m.rng.Intn(4); {
		case k == 0 && first-now >= 2:
			m.earliest++
			if !draining {
				m.top++
			}
			m.schedule(now + 1 + Time(m.rng.Int63n(int64(first-now-1))))
		case k == 1:
			m.schedule((now/64 + 1 + Time(m.rng.Intn(4))) * 64)
		case k == 2:
			m.schedule(now + 1 + Time(m.rng.Intn(1000)))
		default:
			m.nowTies++
			m.schedule(now)
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
// ticker tick and a closure-free schedule+dispatch cost no mallocs, and
// neither does a dispatch once the queue has warmed up, whether its events
// crowd onto a few instants or never share one.
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

	// Tie-heavy: 512 ranks re-arming onto 4 shared instants.
	e = NewEngine(1)
	symmetricRanks(e, 512, 4)
	for i := 0; i < 4096; i++ {
		e.Step()
	}
	if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
		t.Errorf("tie-heavy dispatch: %v allocs, want 0", got)
	}

	// All-distinct: 1,000 events, each re-arming 1,000 ns on, so no two
	// pending events ever share an instant.
	e = NewEngine(1)
	distinct := &rearm{eng: e, period: 1000}
	for i := 0; i < 1000; i++ {
		e.Schedule(Time(i), distinct, 0)
	}
	for i := 0; i < 4096; i++ {
		e.Step()
	}
	if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
		t.Errorf("all-distinct dispatch: %v allocs, want 0", got)
	}
}

// TestQueueFootprint: the queue's storage follows the peak number of pending
// events, not the number of instants a run passes through. Fifty bursts of
// 2,048 events, each over 64 fresh instants with half the burst on a
// different one each time, leave the queue exactly as large as the first
// burst did, and no larger than 40 B per peak-pending event.
func TestQueueFootprint(t *testing.T) {
	const n, instants, bursts = 2048, 64, 50
	e := NewEngine(1)
	nop := Func(func() {})
	footprint := func() int {
		return cap(e.nodes)*int(unsafe.Sizeof(node{})) +
			cap(e.slots)*int(unsafe.Sizeof(slot{})) +
			cap(e.times)*int(unsafe.Sizeof(Time(0)))
	}
	first := 0
	for b := 0; b < bursts; b++ {
		base := e.Now() + 1
		for i := 0; i < n; i++ {
			k := i % instants
			if i < n/2 {
				k = b % instants
			}
			e.Schedule(base+Time(k), nop, 0)
		}
		if e.Pending() != n {
			t.Fatalf("burst %d: Pending() = %d, want %d", b, e.Pending(), n)
		}
		e.Run()
		if b == 0 {
			first = footprint()
		}
	}
	if got := footprint(); got != first {
		t.Errorf("queue grew from %d B after one burst to %d B after %d over %d instants",
			first, got, bursts, bursts*instants)
	}
	per := float64(first) / n
	t.Logf("%d B for %d peak-pending events: %.1f B each", first, n, per)
	if per > 40 {
		t.Errorf("queue holds %.1f B per peak-pending event, want ≤ 40", per)
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

// rearm re-schedules itself period after each firing.
type rearm struct {
	eng    *Engine
	period Duration
}

func (r *rearm) Fire(arg int32) { r.eng.ScheduleAfter(r.period, r, arg) }

// symmetricRanks schedules one re-arming receiver per rank, the ranks spread
// over stages instants 1 ns apart: each stage's ranks fire together and
// re-arm onto the same instant, as symmetric ranks of a job do.
func symmetricRanks(e *Engine, ranks, stages int) {
	rs := make([]rearm, ranks)
	for i := range rs {
		rs[i] = rearm{eng: e, period: Duration(stages)}
		e.Schedule(Time(i%stages), &rs[i], int32(i))
	}
}

// BenchmarkEngineTies: 512 symmetric ranks in 4 stages — ~5 instants pending
// with ~128 events each, the tie-heavy shape of a 512-rank job — one op per
// pop+push.
func BenchmarkEngineTies(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	symmetricRanks(e, 512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if e.Dispatched() != uint64(b.N) {
		b.Fatalf("%d events in %d steps", e.Dispatched(), b.N)
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
