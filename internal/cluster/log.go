package cluster

import (
	"slices"
	"sort"
	"sync"
	"time"

	"mycroft/internal/api"
)

// DefaultLogCap bounds every per-job event log. The log is the failover
// window: a subscriber that resumes on another peer can only replay what the
// log still holds, and anything trimmed past its cursor is counted (exactly,
// via the seq gap) as dropped.
const DefaultLogCap = 4096

// EventLog is one job's sequence-numbered event history. A primary appends
// domain events as they dispatch (Append assigns gap-free ascending seqs);
// a replica applies replicated entries preserving the primary's seqs
// (AppendEntries). TailAfter reads past a cursor, and waiters park on a
// broadcast channel so a tail long-poll costs nothing while the log is
// quiet.
type EventLog struct {
	mu      sync.Mutex
	entries []api.SeqEvent
	lastSeq uint64        // highest seq held (or assigned)
	trimmed uint64        // entries aged out of the front, lifetime
	wake    chan struct{} // closed to broadcast growth; re-armed each time
}

// NewEventLog builds a log holding at most DefaultLogCap entries.
func NewEventLog() *EventLog {
	return &EventLog{wake: make(chan struct{})}
}

// Append assigns the next sequence number to e and stores it, trimming the
// front when the log is full. It returns the assigned seq.
func (l *EventLog) Append(e api.Event) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastSeq++
	l.push(api.SeqEvent{Seq: l.lastSeq, Event: e})
	return l.lastSeq
}

// AppendEntries applies replicated entries, preserving their primary-
// assigned seqs. Entries at or below the current head are duplicates of an
// already-applied batch and are skipped. It returns how many sequence
// numbers were skipped over (a gap means a batch was lost in transit —
// the sender's cursor protocol should keep this 0). On the first entry ever
// the gap counts seqs 1..Seq-1, which happened before this replica started
// following: that is lag, not loss in transit, counted so the caller can
// decide.
func (l *EventLog) AppendEntries(entries []api.SeqEvent) (gap uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, se := range entries {
		if se.Seq <= l.lastSeq {
			continue
		}
		gap += se.Seq - l.lastSeq - 1
		l.lastSeq = se.Seq
		l.push(se)
	}
	return gap
}

// push stores one entry and trims the front by reslicing, so a full log
// moves no held entry; append copies the held window only when it outgrows
// the backing array. Callers hold l.mu.
func (l *EventLog) push(se api.SeqEvent) {
	l.entries = append(l.entries, se)
	if over := len(l.entries) - DefaultLogCap; over > 0 {
		clear(l.entries[:over]) // release the aged-out events' payloads
		l.entries = l.entries[over:]
		l.trimmed += uint64(over)
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// Watermark is the highest sequence number the log has seen.
func (l *EventLog) Watermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Len reports how many entries the log currently holds.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Trimmed reports how many entries have aged out of the front, lifetime.
func (l *EventLog) Trimmed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trimmed
}

// TailAfter returns up to max entries with Seq > after, plus the current
// watermark. The caller detects trimming (and replication gaps) from the
// sequence jump between its cursor and the first returned entry — the log
// never hides a discontinuity.
func (l *EventLog) TailAfter(after uint64, max int) (out []api.SeqEvent, watermark uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailLocked(after, max), l.lastSeq
}

// tailLocked copies out up to max entries past after (<=0 = 256). Entries
// ascend by seq, so the first one past the cursor is found by binary search.
// Callers hold l.mu.
func (l *EventLog) tailLocked(after uint64, max int) []api.SeqEvent {
	if max <= 0 {
		max = 256
	}
	from := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Seq > after })
	if from == len(l.entries) {
		return nil
	}
	return slices.Clone(l.entries[from:min(len(l.entries), from+max)])
}

// TailWait is TailAfter with a bounded wait: when nothing is past the
// cursor it parks until the log grows, the timeout lapses or stop is closed,
// so a tail long-poll does not busy-spin and a daemon shutting down releases
// every parked reader at once. The wait is wall-clock.
func (l *EventLog) TailWait(after uint64, max int, timeout time.Duration, stop <-chan struct{}) ([]api.SeqEvent, uint64) {
	deadline := time.Now().Add(timeout)
	for {
		// The read and the wake channel are taken together, so an append
		// between them cannot slip past the wait.
		l.mu.Lock()
		out, wm, wake := l.tailLocked(after, max), l.lastSeq, l.wake
		l.mu.Unlock()
		remain := time.Until(deadline)
		if len(out) > 0 || remain <= 0 {
			return out, wm
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
		case <-timer.C:
		case <-stop:
			timer.Stop()
			return out, wm
		}
		timer.Stop()
	}
}
