package mycroft

import (
	"slices"
	"sync"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/core"
)

// EventKind discriminates service events.
type EventKind = core.EventKind

const (
	// EventTrigger carries an Algorithm 1 firing.
	EventTrigger = core.EventTrigger
	// EventReport carries an Algorithm 2 root-cause verdict.
	EventReport = core.EventReport
	// EventLifecycle marks a job or backend state change (Phase names it).
	EventLifecycle = core.EventLifecycle
	// EventAction carries a remediation-loop transition: an attempt was
	// applied, succeeded, failed or escalated (Event.Action snapshots the
	// audit-log entry at that moment).
	EventAction = core.EventAction
	// EventHealth carries a job health transition from the heartbeat monitor
	// (Event.Health names the states and why the job moved).
	EventHealth = core.EventHealth
	// EventLogAnomaly carries a non-tracepoint channel finding — a log-template
	// divergence or a timing-envelope breach — as it is detected, before (and
	// whether or not) it escalates into a report (Event.LogAnomaly).
	EventLogAnomaly = core.EventLogAnomaly
)

// Lifecycle phases a Service publishes. Backend phases re-export the core
// package's constants.
const (
	PhaseJobStarted     = "job-started"
	PhaseJobStopped     = "job-stopped"
	PhaseBackendStarted = core.PhaseBackendStarted
	PhaseBackendStopped = core.PhaseBackendStopped
	// PhaseServerShutdown is the terminal lifecycle event a draining daemon
	// appends to every hosted job's event log (Server.AnnounceShutdown), so
	// remote subscribers, whatever their filter, can tell a clean shutdown
	// from a crash.
	PhaseServerShutdown = "server-shutdown"
)

// Event is one observation delivered to a subscription: which hosted job it
// came from, when (virtual time), and exactly one of Trigger, Report, Phase,
// Action, Health or LogAnomaly matching Kind.
type Event = api.Event

// EventFilter selects which events a subscription receives. Zero-value
// fields match everything; set fields are ANDed together.
type EventFilter struct {
	// Jobs restricts to these hosted jobs.
	Jobs []JobID `json:"jobs,omitempty"`
	// Kinds restricts event kinds.
	Kinds []EventKind `json:"kinds,omitempty"`
	// Ranks restricts to events about these ranks: a trigger's sampled rank
	// or a report's suspect. Lifecycle events carry no rank and are
	// filtered out when Ranks is set.
	Ranks []Rank `json:"ranks,omitempty"`
	// Categories restricts to reports with one of these verdicts; setting
	// it implies reports-only.
	Categories []Category `json:"categories,omitempty"`
	// Victims restricts to reports whose blast radius — the suspect plus
	// Report.Victims — includes one of these ranks; setting it implies
	// reports-only. Use it to watch "anything that takes rank N down with
	// it", which Ranks (suspect-only) cannot express.
	Victims []Rank `json:"victims,omitempty"`
	// MinChain restricts to reports whose causal chain has at least this
	// many hops; setting it > 0 implies reports-only. MinChain 2 selects
	// exactly the cross-communicator cascades.
	MinChain int `json:"min_chain,omitempty"`
	// Outcomes restricts to remediation events whose attempt carries one of
	// these outcomes; setting it implies actions-only. Watch
	// {RemedyEscalated} to page exactly when the loop gives up.
	Outcomes []RemedyOutcome `json:"outcomes,omitempty"`
	// From and To bound the event's virtual time, inclusive. To 0 means
	// unbounded.
	From time.Duration `json:"from_ns,omitempty"`
	To   time.Duration `json:"to_ns,omitempty"`
	// Buffer caps how many undelivered events the stream may hold in poll
	// mode (0 = unbounded). When full, the oldest buffered event is dropped
	// to admit the new one and Stream.Dropped counts it — a slow subscriber
	// degrades to "most recent Buffer events" instead of growing memory
	// without bound. It bounds the subscriber's own memory, in-process or
	// remote. A daemon holds nothing per remote subscriber: what bounds a
	// remote stream that falls behind is the job's event log, whose newest
	// cluster.DefaultLogCap (4096) entries are all a tail can still read;
	// older ones count into Dropped as a seq gap.
	Buffer int `json:"buffer,omitempty"`
}

func (f EventFilter) matches(e Event) bool {
	if len(f.Jobs) > 0 && !slices.Contains(f.Jobs, e.Job) {
		return false
	}
	if len(f.Kinds) > 0 && !slices.Contains(f.Kinds, e.Kind) {
		return false
	}
	if len(f.Ranks) > 0 {
		var r Rank
		switch {
		case e.Trigger != nil:
			r = e.Trigger.Rank
		case e.Report != nil:
			r = e.Report.Suspect
		case e.Action != nil:
			r = e.Action.Action.Rank
		case e.LogAnomaly != nil:
			r = e.LogAnomaly.Rank
		default:
			return false
		}
		if !slices.Contains(f.Ranks, r) {
			return false
		}
	}
	if len(f.Categories) > 0 {
		if e.Report == nil || !slices.Contains(f.Categories, e.Report.Category) {
			return false
		}
	}
	if len(f.Victims) > 0 {
		if e.Report == nil {
			return false
		}
		hit := slices.Contains(f.Victims, e.Report.Suspect)
		for _, v := range f.Victims {
			hit = hit || slices.Contains(e.Report.Victims, v)
		}
		if !hit {
			return false
		}
	}
	if f.MinChain > 0 {
		if e.Report == nil || len(e.Report.Chain) < f.MinChain {
			return false
		}
	}
	if len(f.Outcomes) > 0 {
		if e.Action == nil || !slices.Contains(f.Outcomes, e.Action.Outcome) {
			return false
		}
	}
	if e.At < f.From {
		return false
	}
	if f.To > 0 && e.At > f.To {
		return false
	}
	return true
}

// Stream is one live subscription: the streaming cursor both halves of the
// Client interface hand out. Events matching the filter are buffered as they
// are produced; consume them by polling (Next, NextWait, Drain) or
// push-style by installing a handler with Each.
//
// For an in-process Service the engine is single-threaded, so delivery is
// synchronous and deterministic. A Stream is nonetheless safe to consume
// from another goroutine: a consumer may block in NextWait while a daemon's
// drive loop delivers, and a remote client's stream is fed by its tail
// loops, one goroutine per job, each reading that job's event log past its
// own cursor.
type Stream struct {
	svc    *Service
	filter EventFilter

	mu      sync.Mutex
	fn      func(Event)
	buf     []Event
	dropped uint64 // aged out of a full buffer, or a remote log's seq gaps
	closed  bool
	err     error
	waiters int           // NextWait calls currently parked
	wake    chan struct{} // closed to broadcast a delivery or Close
}

func newStream(svc *Service, f EventFilter) *Stream {
	return &Stream{svc: svc, filter: f, wake: make(chan struct{})}
}

// Subscribe attaches a typed subscription to the service. Close the stream
// to detach it.
func (s *Service) Subscribe(f EventFilter) *Stream {
	st := newStream(s, f)
	s.streamsMu.Lock()
	s.streams = append(s.streams, st)
	s.streamsMu.Unlock()
	return st
}

func (st *Stream) deliver(e Event) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	// st.svc is stable while the stream is open and st.mu is held (Close
	// flips closed under this mutex before detaching); remote streams have
	// no service, so no service-wide counter moves for them.
	svc := st.svc
	if fn := st.fn; fn != nil {
		if svc != nil {
			svc.subDelivered.Inc()
		}
		st.mu.Unlock()
		fn(e)
		return
	}
	if b := st.filter.Buffer; b > 0 && len(st.buf) >= b {
		// Keep the newest events: age out the front of the buffer.
		over := len(st.buf) - b + 1
		st.buf = st.buf[over:]
		st.dropped += uint64(over)
		if svc != nil {
			svc.subDropped.Add(uint64(over))
		}
	}
	st.buf = append(st.buf, e)
	if svc != nil {
		svc.subDelivered.Inc()
	}
	st.broadcastLocked()
	st.mu.Unlock()
}

// broadcastLocked wakes every parked NextWait by closing the current wake
// channel and arming a fresh one. With no waiters it is a no-op, so the
// common single-threaded consumer pays no per-event channel churn. Callers
// hold st.mu.
func (st *Stream) broadcastLocked() {
	if st.waiters == 0 {
		return
	}
	close(st.wake)
	st.wake = make(chan struct{})
}

// Each installs a push handler: already-buffered events are flushed through
// it immediately, then every future match is delivered as it happens. It
// returns the stream for chaining. On a remote stream the handler runs on a
// tail loop's goroutine. Events delivered while the backlog flushes keep
// their order: they land in the buffer and flush behind it, and the handler
// is only installed once the buffer is empty.
func (st *Stream) Each(fn func(Event)) *Stream {
	for {
		st.mu.Lock()
		if len(st.buf) == 0 {
			st.fn = fn
			st.mu.Unlock()
			return st
		}
		buffered := st.buf
		st.buf = nil
		st.mu.Unlock()
		for _, e := range buffered {
			fn(e)
		}
	}
}

// Next pops the oldest buffered event without waiting.
func (st *Stream) Next() (Event, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pop()
}

// pop removes the head of the buffer. Callers hold st.mu.
func (st *Stream) pop() (Event, bool) {
	if len(st.buf) == 0 {
		return Event{}, false
	}
	e := st.buf[0]
	st.buf = st.buf[1:]
	return e, true
}

// NextWait pops the oldest buffered event, waiting up to d (wall time) for
// one to be delivered when the buffer is empty. It returns false when the
// wait expires or the stream is closed with nothing buffered — the
// bounded-wait primitive a long-poll handler parks on instead of busy-
// spinning Next. Waiting only helps when another goroutine is driving the
// service (a daemon's drive loop, a remote tail loop); in single-threaded use
// an empty stream stays empty for the full wait.
func (st *Stream) NextWait(d time.Duration) (Event, bool) {
	deadline := time.Now().Add(d)
	for {
		st.mu.Lock()
		if e, ok := st.pop(); ok {
			st.mu.Unlock()
			return e, true
		}
		if st.closed {
			st.mu.Unlock()
			return Event{}, false
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			st.mu.Unlock()
			return Event{}, false
		}
		st.waiters++
		wake := st.wake
		st.mu.Unlock()
		timer := time.NewTimer(remain)
		select {
		case <-wake:
		case <-timer.C:
		}
		timer.Stop()
		st.mu.Lock()
		st.waiters--
		st.mu.Unlock()
	}
}

// Drain returns and clears every buffered event.
func (st *Stream) Drain() []Event {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.buf
	st.buf = nil
	return out
}

// Len reports how many events are buffered.
func (st *Stream) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.buf)
}

// Dropped reports how many events were lost: aged out of a full buffer
// (EventFilter.Buffer) plus, on a remote stream, every seq the job's event
// log skipped past the stream's cursor — entries trimmed before they were
// read, or never replicated to the peer a tail failed over to. Log entries
// are counted before the filter, so a gap counts events the filter might
// have dropped anyway.
func (st *Stream) Dropped() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// addDropped counts events known lost before delivery — a remote tail calls
// it with the exact seq gaps it observes.
func (st *Stream) addDropped(n uint64) {
	if n == 0 {
		return
	}
	st.mu.Lock()
	st.dropped += n
	st.mu.Unlock()
}

// Err reports why the stream stopped, when it stopped abnormally: a remote
// transport failure, a daemon that refused or restarted under the
// subscription (ErrSubscriptionLost), or a wire payload that would not
// parse. A cleanly closed or still-live stream returns nil.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// fail records a transport error and closes the stream.
func (st *Stream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
	st.Close()
}

// isClosed reports whether Close has run.
func (st *Stream) isClosed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// Close detaches the subscription; buffered events remain consumable and
// waiting NextWait calls return. Close is idempotent and always returns nil.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.broadcastLocked()
	st.mu.Unlock()
	if st.svc != nil {
		st.svc.streamsMu.Lock()
		st.svc.streams = slices.DeleteFunc(st.svc.streams, func(x *Stream) bool { return x == st })
		st.svc.streamsMu.Unlock()
		st.svc = nil
	}
	return nil
}
