// Package sim provides a deterministic discrete-event simulation engine.
//
// Every substrate in this repository (RDMA NICs, GPUs, the collective
// communication library, the trace pipeline and the Mycroft backend itself)
// is an entity on a single Engine. An event is a receiver (Handler) plus a
// small integer argument, held by value in one min-heap ordered by virtual
// time with FIFO tie-breaking, so a run is fully deterministic for a given
// seed and scheduling or dispatching an event allocates nothing. At and After
// schedule a plain func as the receiver; hot paths implement Handler on a
// long-lived object and pass a chunk index or stage as the argument instead
// of building a closure per event. Virtual time is measured in nanoseconds
// from the start of the run.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration re-exports time.Duration for call-site readability.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string {
	return Duration(t).String()
}

// Infinity is a time later than any event a run will schedule.
const Infinity = Time(1<<63 - 1)

// Handler receives a scheduled event. arg is the small integer the scheduler
// passed to Schedule — a chunk index, a stage, a slot — so one long-lived
// receiver serves many events without a closure per event.
type Handler interface {
	Fire(arg int32)
}

// Func adapts a plain func to Handler; it ignores the argument. A func value
// is pointer-shaped, so the conversion to Handler allocates nothing.
type Func func()

// Fire implements Handler.
func (f Func) Fire(int32) { f() }

// event is one queue entry, held by value: scheduling boxes nothing.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for equal times
	h   Handler
	arg int32
}

// before is the queue order: time, then scheduling order. seq is unique, so
// the order is total and the dispatch sequence does not depend on heap shape.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// FreeList recycles the per-event objects of one device (work requests, copy
// requests): Get hands out a recycled object or a new one, Put takes one back
// once its last scheduled event has fired. The engine is single-threaded, so
// a plain slice will do.
type FreeList[T any] []*T

// Get returns a recycled object, or a new zero one. A recycled object still
// holds its previous contents; the caller overwrites it.
func (f *FreeList[T]) Get() *T {
	if k := len(*f); k > 0 {
		x := (*f)[k-1]
		*f = (*f)[:k-1]
		return x
	}
	return new(T)
}

// Put recycles x. Nothing scheduled may still refer to it.
func (f *FreeList[T]) Put(x *T) { *f = append(*f, x) }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated concurrency is expressed as events.
type Engine struct {
	now        Time
	seq        uint64
	events     []event // binary min-heap by (at, seq)
	rng        *rand.Rand
	dispatched uint64
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic RNG. Components must draw all
// randomness from it (or from RNGs seeded by it) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Dispatched reports how many events have run so far (useful for cost
// accounting in experiments and tests).
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending reports how many events are scheduled but not yet dispatched.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule arranges for h.Fire(arg) to run at time t. Scheduling in the past
// panics: it is always a logic error in a discrete-event model.
func (e *Engine) Schedule(t Time, h Handler, arg int32) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, h: h, arg: arg}
	q := append(e.events, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.events = q
}

// ScheduleAfter is Schedule at d after the current time. Negative d panics.
func (e *Engine) ScheduleAfter(d Duration, h Handler, arg int32) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now.Add(d), h, arg)
}

// At schedules fn to run at time t; see Schedule.
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, Func(fn), 0) }

// After schedules fn to run d after the current time; see ScheduleAfter.
func (e *Engine) After(d Duration, fn func()) { e.ScheduleAfter(d, Func(fn), 0) }

// pop removes and returns the earliest event. The queue must not be empty.
func (e *Engine) pop() event {
	q := e.events
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler reference the vacated slot holds
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.events = q
	return top
}

// Step dispatches the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.dispatched++
	ev.h.Fire(ev.arg)
	return true
}

// Run dispatches events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time ≤ t, then advances the clock to t.
// Events scheduled exactly at t do run.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d. See RunUntil.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Ticker invokes a callback periodically until cancelled. It is its own
// event: each tick re-schedules the same receiver, so ticking allocates
// nothing.
type Ticker struct {
	eng     *Engine
	period  Duration
	fn      func(Time)
	stopped bool
}

// NewTicker starts a ticker whose first tick fires one period from now.
// The callback receives the tick's virtual time. Stop cancels future ticks.
func (e *Engine) NewTicker(period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	e.ScheduleAfter(period, t, 0)
	return t
}

// Fire implements Handler: one tick. The next tick is scheduled after the
// callback returns, so an event the callback schedules for that same instant
// runs before it.
func (t *Ticker) Fire(int32) {
	if t.stopped {
		return
	}
	t.fn(t.eng.now)
	if !t.stopped {
		t.eng.ScheduleAfter(t.period, t, 0)
	}
}

// Stop cancels the ticker. It is safe to call from within the tick callback
// and more than once.
func (t *Ticker) Stop() { t.stopped = true }

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stopped }
