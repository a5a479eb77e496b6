// Package sim provides a deterministic discrete-event simulation engine.
//
// Every substrate in this repository (RDMA NICs, GPUs, the collective
// communication library, the trace pipeline and the Mycroft backend itself)
// is an entity on a single Engine. An event is a receiver (Handler) plus a
// small integer argument. Events run in virtual-time order, events of one
// instant in the order they were scheduled, so a run is fully deterministic
// for a given seed. The queue keeps one FIFO per pending instant and a heap
// of instants (see Engine), and once it has reached a run's peak, scheduling
// or dispatching an event allocates nothing. At and After schedule a plain
// func as the receiver; hot paths implement Handler on a long-lived object and
// pass a chunk index or stage as the argument instead of building a closure
// per event. A device whose receiver is one object per transfer (a work
// request, a copy request) recycles it itself, on a free list linked through
// the objects, once its last event has fired. Virtual time is measured in
// nanoseconds from the start of the run.
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

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated concurrency is expressed as events.
//
// The queue has two levels because events tie. Symmetric ranks do identical
// work at identical nanoseconds: in a 512-rank job 95% of dispatches fire at
// the same instant as the one before, and while ~1,200 events are pending on
// average (~2,100 at peak), no more than ~100 distinct instants are. So each
// pending instant holds a FIFO of its events, and a binary min-heap orders
// only the instants. Scheduling into a pending instant, and dispatching any
// but its last event, leaves the heap alone. Within an instant, scheduling
// order is FIFO order, so dispatch follows (time, scheduling order) exactly.
//
// Storage follows peak pending events, not the instants a run passes through.
// Events are nodes of one slab, recycled through a free list as they fire. An
// instant is a slot of an open-addressed table keyed by its time, emptied by
// backward shift when its last event fires, so the table never fills with
// tombstones. Once the slab, the table and the heap reach the run's peak,
// nothing allocates.
type Engine struct {
	now        Time
	nodes      []node // event slab; nodes[0] is unused, so index 0 means none
	free       int32  // first recycled node, linked through next
	slots      []slot // pending instants by time, at most half full
	shift      uint8  // 64 − log2(len(slots)), for home
	times      []Time // binary min-heap of the pending instants
	pending    int
	rng        *rand.Rand
	dispatched uint64
}

// node is one pending event. An instant's FIFO is a circular list through
// next — its tail's next is its head — so the slot keeps only the tail.
type node struct {
	h    Handler
	arg  int32
	next int32
}

// slot is one pending instant: its time and the last node of its FIFO. An
// empty slot has tail 0.
type slot struct {
	at   Time
	tail int32
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make([]node, 1),
		slots: make([]slot, 16),
		shift: 64 - 4,
	}
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
func (e *Engine) Pending() int { return e.pending }

// Schedule arranges for h.Fire(arg) to run at time t, after every event
// already scheduled for t. Scheduling in the past panics: it is always a
// logic error in a discrete-event model.
func (e *Engine) Schedule(t Time, h Handler, arg int32) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	n := e.free
	if n != 0 {
		e.free = e.nodes[n].next
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	e.pending++
	i := e.find(t)
	next := n // a new instant's FIFO is n alone
	if tail := e.slots[i].tail; tail != 0 {
		next, e.nodes[tail].next = e.nodes[tail].next, n
	} else {
		if 2*(len(e.times)+1) > len(e.slots) {
			e.grow()
			i = e.find(t)
		}
		e.slots[i].at = t
		e.pushTime(t)
	}
	e.nodes[n] = node{h: h, arg: arg, next: next}
	e.slots[i].tail = n
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

// Step dispatches the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if len(e.times) == 0 {
		return false
	}
	t := e.times[0]
	i := e.find(t)
	tail := e.slots[i].tail
	n := e.nodes[tail].next
	ev := e.nodes[n]
	if n == tail {
		// The instant's last event: what its handler schedules for now
		// opens a new instant.
		e.remove(i)
		e.popTime()
	} else {
		e.nodes[tail].next = ev.next
	}
	e.nodes[n] = node{next: e.free} // drops the handler reference
	e.free = n
	e.pending--
	e.now = t
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
	for len(e.times) > 0 && e.times[0] <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d. See RunUntil.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// home is instant t's first slot: a Fibonacci hash, which scatters the
// arithmetic progressions that event times form.
func (e *Engine) home(t Time) int { return int(uint64(t) * 0x9E3779B97F4A7C15 >> e.shift) }

// find returns the slot holding instant t, or the empty slot where it belongs.
func (e *Engine) find(t Time) int {
	mask := len(e.slots) - 1
	for i := e.home(t); ; i = (i + 1) & mask {
		if s := &e.slots[i]; s.tail == 0 || s.at == t {
			return i
		}
	}
}

// remove empties slot i. Each later slot of its probe run moves back into the
// hole when the hole lies between that slot's home and the slot, so every
// pending instant stays reachable from its home without tombstones.
func (e *Engine) remove(i int) {
	mask := len(e.slots) - 1
	for j := (i + 1) & mask; e.slots[j].tail != 0; j = (j + 1) & mask {
		if (j-e.home(e.slots[j].at))&mask >= (j-i)&mask {
			e.slots[i] = e.slots[j]
			i = j
		}
	}
	e.slots[i] = slot{}
}

// grow doubles the table and re-inserts every pending instant.
func (e *Engine) grow() {
	old := e.slots
	e.slots = make([]slot, 2*len(old))
	e.shift--
	for _, s := range old {
		if s.tail != 0 {
			e.slots[e.find(s.at)] = s
		}
	}
}

// pushTime adds a newly pending instant to the heap.
func (e *Engine) pushTime(t Time) {
	q := append(e.times, t)
	i := len(q) - 1
	for ; i > 0 && t < q[(i-1)/2]; i = (i - 1) / 2 {
		q[i] = q[(i-1)/2]
	}
	q[i] = t
	e.times = q
}

// popTime removes the earliest instant from the heap.
func (e *Engine) popTime() {
	n := len(e.times) - 1
	q, last := e.times[:n], e.times[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if last < q[c] {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	e.times = q
}

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
