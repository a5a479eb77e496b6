package clouddb

import (
	"testing"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// fill ingests n records per rank at 100ns spacing starting at t=100
// (queries are (from, to], so t=0 records would fall outside a from=0
// window), alternating kinds, comm = rank%2 + 1.
func fill(db *DB, ranks, n int) {
	for i := 0; i < n; i++ {
		var batch []trace.Record
		for r := 0; r < ranks; r++ {
			kind := trace.KindState
			if i%4 == 3 {
				kind = trace.KindCompletion
			}
			batch = append(batch, trace.Record{
				Kind: kind, Time: sim.Time((i + 1) * 100), Rank: topo.Rank(r),
				CommID: uint64(r%2 + 1), IP: topo.IP("10.0.0.1"),
			})
		}
		db.Ingest(batch)
	}
}

func TestQueryPredicates(t *testing.T) {
	db := New(sim.NewEngine(1), 0)
	fill(db, 4, 20)

	// All records, no predicates, unbounded To.
	if got := db.Query(Query{}); len(got.Records) != 80 || got.Next != nil {
		t.Fatalf("unfiltered query: %d records, next=%v", len(got.Records), got.Next)
	}
	// Rank predicate, ordered by (rank, time).
	got := db.Query(Query{Ranks: []topo.Rank{2, 1}})
	if len(got.Records) != 40 {
		t.Fatalf("rank query: %d records", len(got.Records))
	}
	if got.Records[0].Rank != 1 || got.Records[39].Rank != 2 {
		t.Fatalf("rank order wrong: first %d last %d", got.Records[0].Rank, got.Records[39].Rank)
	}
	// Comm predicate implies the member ranks (1 and 3 produce comm 2).
	got = db.Query(Query{Comm: 2})
	if len(got.Records) != 40 {
		t.Fatalf("comm query: %d records", len(got.Records))
	}
	for _, r := range got.Records {
		if r.CommID != 2 {
			t.Fatalf("comm leak: %+v", r)
		}
	}
	// Kind + window: completions land at times 400, 800, 1200, ...; the
	// (300, 1100] window keeps 400 and 800.
	got = db.Query(Query{Kinds: []trace.Kind{trace.KindCompletion}, From: 300, To: 1100})
	if len(got.Records) != 8 { // 2 times × 4 ranks
		t.Fatalf("kind+window query: %d records", len(got.Records))
	}
}

func TestQueryPagination(t *testing.T) {
	db := New(sim.NewEngine(1), 0)
	fill(db, 4, 20)

	var pages int
	var all []trace.Record
	q := Query{Limit: 7}
	for {
		res := db.Query(q)
		pages++
		all = append(all, res.Records...)
		if res.Next == nil {
			break
		}
		if len(res.Records) != 7 {
			t.Fatalf("page %d has %d records with a next cursor", pages, len(res.Records))
		}
		q.Cursor = res.Next
	}
	if len(all) != 80 {
		t.Fatalf("pagination returned %d records, want 80", len(all))
	}
	if pages != 12 { // ceil(80/7) = 12
		t.Fatalf("pagination took %d pages, want 12", pages)
	}
	// Paged result must equal the unpaged result exactly.
	whole := db.Query(Query{})
	for i := range whole.Records {
		if all[i] != whole.Records[i] {
			t.Fatalf("page stitching diverges at %d: %+v vs %+v", i, all[i], whole.Records[i])
		}
	}
}

// TestQueryPaginationEqualTimes: several records at one (rank, time) — the
// cursor's Emitted field must disambiguate them.
func TestQueryPaginationEqualTimes(t *testing.T) {
	db := New(sim.NewEngine(1), 0)
	var batch []trace.Record
	for ch := int32(0); ch < 5; ch++ {
		batch = append(batch, trace.Record{
			Kind: trace.KindState, Time: 100, Rank: 3, CommID: 1, Channel: ch, IP: "10.0.0.1",
		})
	}
	db.Ingest(batch)
	var all []trace.Record
	q := Query{Limit: 2}
	for {
		res := db.Query(q)
		all = append(all, res.Records...)
		if res.Next == nil {
			break
		}
		q.Cursor = res.Next
	}
	if len(all) != 5 {
		t.Fatalf("equal-time pagination returned %d records, want 5", len(all))
	}
	for i := range all {
		if all[i].Channel != int32(i) {
			t.Fatalf("record %d is channel %d (duplicate or skip)", i, all[i].Channel)
		}
	}
}

// TestQueryTotal: the first page of a paginated query reports the full
// match count (so a caller can always tell a short page from the last
// page), resumed full pages skip the re-count (-1), and the resumed final
// page reports its exact remainder.
func TestQueryTotal(t *testing.T) {
	db := New(sim.NewEngine(1), 0)
	fill(db, 4, 20) // 80 records

	if got := db.Query(Query{}); got.Total != 80 {
		t.Fatalf("unpaginated Total = %d, want 80", got.Total)
	}
	q := Query{Limit: 7}
	remaining := 80
	for {
		res := db.Query(q)
		switch {
		case q.Cursor == nil && res.Total != 80:
			t.Fatalf("first page Total = %d, want 80", res.Total)
		case q.Cursor != nil && res.Next != nil && res.Total != -1:
			t.Fatalf("resumed full page Total = %d, want -1 (no re-scan)", res.Total)
		case q.Cursor != nil && res.Next == nil && res.Total != remaining:
			t.Fatalf("final page Total = %d, want %d", res.Total, remaining)
		}
		remaining -= len(res.Records)
		if res.Next == nil {
			break
		}
		q.Cursor = res.Next
	}
	if remaining != 0 {
		t.Fatalf("pages summed to %d short of Total", remaining)
	}
	// A page whose Limit lands exactly on the final match is the last page:
	// no Next, and Total equals the page length.
	res := db.Query(Query{Ranks: []topo.Rank{3}, Limit: 20})
	if len(res.Records) != 20 || res.Total != 20 || res.Next != nil {
		t.Fatalf("exact-limit final page: %d records, Total %d, Next %v", len(res.Records), res.Total, res.Next)
	}
}

// TestQueryPaginationRankBoundary: a page that fills exactly at the end of
// one rank's series must resume cleanly into the next rank, and Total must
// stay consistent across the boundary.
func TestQueryPaginationRankBoundary(t *testing.T) {
	db := New(sim.NewEngine(1), 0)
	fill(db, 8, 5) // ranks 0..7, 5 records each

	// Limit 5 = exactly rank 0's series; the cursor crosses into rank 1.
	res := db.Query(Query{Limit: 5})
	if len(res.Records) != 5 || res.Total != 40 {
		t.Fatalf("first page: %d records, Total %d; want 5, 40", len(res.Records), res.Total)
	}
	if res.Next == nil {
		t.Fatal("first page of 40 matches reported no Next")
	}
	res2 := db.Query(Query{Limit: 5, Cursor: res.Next})
	if len(res2.Records) != 5 || res2.Total != -1 {
		t.Fatalf("second page: %d records, Total %d; want 5, -1", len(res2.Records), res2.Total)
	}
	for _, r := range res2.Records {
		if r.Rank != 1 {
			t.Fatalf("second page leaked rank %d across the rank boundary", r.Rank)
		}
	}
	// Walk the rest; the stitched stream must match the unpaged one.
	all := append(append([]trace.Record(nil), res.Records...), res2.Records...)
	q := Query{Limit: 5, Cursor: res2.Next}
	for q.Cursor != nil {
		r := db.Query(q)
		all = append(all, r.Records...)
		q.Cursor = r.Next
	}
	whole := db.Query(Query{})
	if len(all) != len(whole.Records) {
		t.Fatalf("stitched %d records, want %d", len(all), len(whole.Records))
	}
	for i := range whole.Records {
		if all[i] != whole.Records[i] {
			t.Fatalf("stitched stream diverges at %d", i)
		}
	}
}

// TestQueryOneRankWindow: a query of one rank over (From, To] returns that
// rank's part of the whole store's answer, those times only.
func TestQueryOneRankWindow(t *testing.T) {
	db := New(sim.NewEngine(1), 0)
	fill(db, 4, 20)
	var want []trace.Record
	for _, rec := range db.Query(Query{}).Records {
		if rec.Rank == 2 && rec.Time > 300 && rec.Time <= 1500 {
			want = append(want, rec)
		}
	}
	got := db.Query(Query{Ranks: []topo.Rank{2}, From: 300, To: 1500})
	if len(got.Records) != len(want) || len(want) == 0 {
		t.Fatalf("Query %d vs whole-store slice %d", len(got.Records), len(want))
	}
	for i := range want {
		if got.Records[i] != want[i] {
			t.Fatalf("diverges at %d", i)
		}
	}
}
