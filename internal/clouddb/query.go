package clouddb

import (
	"slices"
	"sort"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// Query is the unified predicate query the service API exposes: a record
// matches when it falls in the (From, To] window and passes every non-zero
// predicate. Results are ordered by (rank, time), a deterministic order for a
// given store.
type Query struct {
	// Ranks restricts to these ranks (nil = every rank; when Comm is set,
	// every member rank of that communicator).
	Ranks []topo.Rank
	// Comm restricts to records of one communicator (0 = any).
	Comm uint64
	// Kinds restricts record kinds (nil = any).
	Kinds []trace.Kind
	// From, To bound emission time: (From, To]. To 0 means unbounded.
	From, To sim.Time
	// Limit caps the returned records (0 = no cap). When more matches
	// remain, Result.Next resumes after the last returned record.
	Limit int
	// Cursor resumes a paginated query. Pass Result.Next verbatim with the
	// rest of the query unchanged.
	Cursor *Cursor
}

// Cursor marks the position after the last returned record of a page.
// Emitted disambiguates several matching records at the same (rank, time).
type Cursor struct {
	Rank    topo.Rank `json:"rank"`
	Time    sim.Time  `json:"time_ns"`
	Emitted int       `json:"emitted"`
}

// Result is one page of query matches.
type Result struct {
	Records []trace.Record
	// Total counts every match of the query — this page plus everything
	// Limit cut off — so a caller can tell a short page from the last page
	// without fetching it. It is computed on a walk's first page (Cursor
	// nil); a cursor-resumed page that fills to Limit reports -1 instead of
	// re-scanning the remainder (which would make a full paged walk
	// quadratic) — callers track progress from the first page's Total. A
	// resumed final page (shorter than Limit) again reports its exact
	// remaining count.
	Total int
	// Next is non-nil when Limit cut the page short; resubmitting the query
	// with it continues where this page ended.
	Next *Cursor
}

// matches applies the non-window predicates to the flow a stored record's row
// names, so a record the query does not return is never rebuilt.
func (q *Query) matches(f *flow) bool {
	if q.Comm != 0 && f.commID != q.Comm {
		return false
	}
	return len(q.Kinds) == 0 || slices.Contains(q.Kinds, f.kind)
}

// queryRanks resolves the rank list a query walks, ascending. A
// communicator's list is the store's own, which the walk only reads.
func (db *DB) queryRanks(q Query) []topo.Rank {
	if len(q.Ranks) > 0 {
		out := append([]topo.Rank(nil), q.Ranks...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	if q.Comm != 0 {
		return db.commRanks[q.Comm]
	}
	return db.Ranks()
}

// Query runs one page of a unified query. A series whose newest record
// predates the window is skipped wholesale; otherwise only the
// binary-searched window of the series is touched, so the cost scales with
// the window, not the retained history.
func (db *DB) Query(q Query) Result {
	if m := db.metrics; m != nil {
		m.Queries.Inc()
		start := time.Now()
		defer func() { m.QueryLatency.Observe(time.Since(start).Seconds()) }()
	}
	to := q.To
	if to == 0 {
		to = sim.Infinity
	}
	if q.Limit < 0 {
		q.Limit = 0 // negative cap from a user query means "no cap", not a mis-slice
	}
	var res Result
	for _, r := range db.queryRanks(q) {
		resuming := false
		if q.Cursor != nil {
			if r < q.Cursor.Rank {
				continue
			}
			resuming = r == q.Cursor.Rank
		}
		s := db.series(r)
		if s == nil || s.log.n == 0 || s.log.newest <= q.From {
			continue // no such rank, or its whole series predates the window
		}
		lo, hi := s.log.window(q.From, to)
		if resuming {
			// Restart at the cursor time, then skip the matches already
			// emitted at exactly that time.
			lo = s.log.firstFrom(q.Cursor.Time)
		}
		skip := 0
		for i := lo; i < hi; i++ {
			at, rw := s.log.at(i)
			if !q.matches(&s.flows[rw.flow()]) {
				continue
			}
			if resuming && at == q.Cursor.Time && skip < q.Cursor.Emitted {
				skip++
				continue
			}
			res.Total++
			if q.Limit > 0 && len(res.Records) == q.Limit {
				// The page is full: stamp the resume cursor the first time we
				// overflow. A first page keeps walking to count Total; a
				// resumed page stops here and reports Total -1 (the caller
				// learned the count on page one).
				if res.Next == nil {
					last := res.Records[len(res.Records)-1]
					emitted := 1
					if q.Cursor != nil && last.Rank == q.Cursor.Rank && last.Time == q.Cursor.Time {
						emitted += q.Cursor.Emitted
					}
					for j := len(res.Records) - 2; j >= 0; j-- {
						if res.Records[j].Rank != last.Rank || res.Records[j].Time != last.Time {
							break
						}
						emitted++
					}
					res.Next = &Cursor{Rank: last.Rank, Time: last.Time, Emitted: emitted}
					if q.Cursor != nil {
						res.Total = -1
						return res
					}
				}
				continue
			}
			if res.Records == nil && q.Limit > 0 {
				// Size the page once instead of doubling up to it.
				res.Records = make([]trace.Record, 0, min(q.Limit, hi-i))
			}
			res.Records = s.appendTo(res.Records, at, rw)
		}
	}
	return res
}
