package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one benchmark-side measurement around a call into a layer's public
// functions. Times are nanoseconds since the log was created. Parent is the
// id of the span that caused this one (0 = none); Rep groups the spans of one
// repetition or request.
//
// A span with Calls > 0 is a fold: it stands for that many calls of one kind
// between Start and End, which together took Busy. A 512-rank replay makes
// 300,000 calls into the layers per repetition; folding them per virtual
// second keeps the file readable and the run in memory.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Rep    int    `json:"rep"`
	Calls  int    `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// took is the time the span accounts for: the sum of its calls for a fold,
// its whole extent otherwise.
func (s span) took() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so an untraced run pays one nil check per call site.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	paused atomic.Bool
}

// live returns the log to record into right now: nil while it is paused (or
// was nil all along). The serve workloads pause it slice by slice so traced
// and bare requests interleave.
func (l *spanLog) live() *spanLog {
	if l == nil || l.paused.Load() {
		return nil
	}
	return l
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent, rep int) int {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: name, Start: now, Parent: parent, Rep: rep})
	l.mu.Unlock()
	return id
}

// end closes the span and returns how long it was open.
func (l *spanLog) end(id int) time.Duration {
	if l == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	s := &l.spans[id-1]
	s.End = now
	d := time.Duration(now - s.Start)
	l.mu.Unlock()
	return d
}

// open returns the fold *slot holds, starting it at the given instant (under
// parent) when *slot is 0. The caller zeroes the slot to start the next fold.
func (l *spanLog) open(slot *int, name string, parent, rep int, at time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	if *slot == 0 {
		*slot = len(l.spans) + 1
		l.spans = append(l.spans, span{ID: *slot, Name: name, Start: int64(at.Sub(l.t0)), Parent: parent, Rep: rep})
	}
	l.mu.Unlock()
	return *slot
}

// add counts one call that took d and has just returned into a fold.
func (l *spanLog) add(id int, d time.Duration) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	s := &l.spans[id-1]
	s.End = now
	s.Calls++
	s.Busy += int64(d)
	l.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover. Children are assumed to nest inside their
// parent without overlapping each other, which is how begin/end pairs on one
// goroutine behave.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.took()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.took() - covered[s.ID])
	}
	return out
}

// count returns how many calls the spans with the given name stand for.
func (l *spanLog) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.spans {
		if s.Name == name {
			n += max(s.Calls, 1)
		}
	}
	return n
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
