package trace

import (
	"fmt"
	"sync"
)

// ringInitialSlots is the backing store a ring starts with: the most
// undrained records one host's ring held at seed 1, fault included, both on
// the 512-rank sim-512 job and on the 256-rank serve job (64 at each, so no
// ring grew; a 512-rank job writes ~140 records/s per host against a 50 ms
// drain, in bursts of a few dozen). A busier host grows its ring.
const ringInitialSlots = 64

// Ring is the circular buffer tracepoints write into. The production system
// preallocates 512 MB of shared memory per host (§6.1) and writes fixed-size
// slots with no locking against the reader; here the writer/reader pair is
// the per-host agent, and a mutex stands in for the
// single-producer/single-consumer memory protocol (the write path is still
// O(1) and allocation-free in steady state).
//
// Capacity is that §6.1 budget: how far a reader may fall behind before the
// writer laps it. When it does, the oldest records are overwritten and
// counted as lost — back-pressure never propagates to the critical path,
// matching the paper's design. The backing store is occupancy, not budget:
// it starts small and doubles, up to Capacity, only while a registered
// reader has undrained records the next write would land on. A simulated
// host whose agent keeps up therefore holds a few hundred slots, not the
// whole budget, and what a reader sees and loses is exactly what it would
// with all of Capacity preallocated.
type Ring struct {
	mu       sync.Mutex
	capacity int
	slots    []Record // record number s lives at slots[s%len(slots)]
	head     uint64   // total records ever written
	readers  []*Reader
	low      uint64 // the oldest record a registered reader has yet to drain
}

// NewRing creates a ring with the given slot capacity.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: non-positive ring capacity %d", capacity))
	}
	return &Ring{capacity: capacity, slots: make([]Record, min(capacity, ringInitialSlots))}
}

// Capacity returns the slot count: the most undrained records the ring keeps.
func (rb *Ring) Capacity() int { return rb.capacity }

// Written returns the total number of records ever written.
func (rb *Ring) Written() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.head
}

// Emit implements Sink: write one record, overwriting the oldest if full.
func (rb *Ring) Emit(r Record) {
	rb.mu.Lock()
	n := uint64(len(rb.slots))
	if n < uint64(rb.capacity) && len(rb.readers) > 0 && rb.head-rb.low >= n {
		n = rb.grow()
	}
	rb.slots[rb.head%n] = r
	rb.head++
	rb.mu.Unlock()
}

// grow doubles the full backing store (up to capacity), keeping every record
// it holds, and returns the new slot count.
func (rb *Ring) grow() uint64 {
	old := rb.slots
	n := uint64(len(old))
	m := min(2*n, uint64(rb.capacity))
	rb.slots = make([]Record, m)
	for s := rb.head - n; s < rb.head; s++ {
		rb.slots[s%m] = old[s%n]
	}
	return m
}

// Reader drains a Ring from a cursor, detecting overwritten (lost) records.
type Reader struct {
	ring   *Ring
	cursor uint64
	lost   uint64
}

// NewReader returns a reader positioned at the current head (it will only
// see records emitted after its creation). From here on the ring keeps what
// this reader has not drained, up to Capacity.
func (rb *Ring) NewReader() *Reader {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	r := &Reader{ring: rb, cursor: rb.head}
	if len(rb.readers) == 0 {
		rb.low = rb.head
	}
	rb.readers = append(rb.readers, r)
	return r
}

// Lost returns how many records were overwritten before being read.
func (r *Reader) Lost() uint64 { return r.lost }

// Drain returns all records emitted since the last drain, in a fresh slice.
// See DrainInto.
func (r *Reader) Drain() []Record { return r.DrainInto(nil) }

// DrainInto appends all records emitted since the last drain to buf and
// returns it. If the writer lapped the reader, the overwritten records are
// skipped and counted in Lost.
func (r *Reader) DrainInto(buf []Record) []Record {
	rb := r.ring
	rb.mu.Lock()
	defer rb.mu.Unlock()
	head := rb.head
	if head == r.cursor {
		return buf
	}
	if cap64 := uint64(rb.capacity); head-r.cursor > cap64 {
		r.lost += head - r.cursor - cap64
		r.cursor = head - cap64
	}
	if need := len(buf) + int(head-r.cursor); need > cap(buf) {
		buf = append(make([]Record, 0, need), buf...)
	}
	n := uint64(len(rb.slots))
	for r.cursor < head {
		from := r.cursor % n
		run := min(n-from, head-r.cursor)
		buf = append(buf, rb.slots[from:from+run]...)
		r.cursor += run
	}
	rb.low = head
	for _, other := range rb.readers {
		rb.low = min(rb.low, other.cursor)
	}
	return buf
}
