package flightrec

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"mycroft/internal/ccl"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

func meta(comm, seq uint64, bytes int64) ccl.OpMeta {
	return ccl.OpMeta{CommID: comm, Seq: seq, Kind: trace.OpAllReduce, Bytes: bytes}
}

// TestRingBounded: before, at and after each wrap of the ring, Dump is the
// last n launches, oldest first.
func TestRingBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 3)
	if d := rec.Dump(0); d != nil {
		t.Fatalf("dump of a rank that never launched = %+v", d)
	}
	for i := 0; i < 10; i++ {
		rec.Record(0, meta(1, uint64(i), 100))
		d := rec.Dump(0)
		if len(d) != min(i+1, 3) {
			t.Fatalf("after %d launches: dump = %+v", i+1, d)
		}
		for k, e := range d {
			if e.Meta.Seq != uint64(i+1-len(d)+k) {
				t.Fatalf("after %d launches: dump = %+v", i+1, d)
			}
		}
	}
}

// TestRecordAllocatesNothing: a rank's ring is allocated once, on its first
// launch; every launch after that fills or overwrites it in place.
func TestRecordAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 8)
	rec.Record(3, meta(1, 0, 100))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := uint64(1); seq < 1000; seq++ {
		rec.Record(3, meta(1, seq, 100))
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d mallocs over 999 launches after the first, want 0", n)
	}
	if d := rec.Dump(3); len(d) != 8 || d[7].Meta.Seq != 999 {
		t.Fatalf("dump = %+v", d)
	}
}

// TestSkippedLaunchDetailsDeterministic: with two ranks skipping ops, the
// finding names both and describes the lowest skipper's lowest hole, the
// same on every call.
func TestSkippedLaunchDetailsDeterministic(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 16)
	holes := map[topo.Rank][]uint64{2: {2, 3}, 3: {2, 4}}
	for r := topo.Rank(0); r < 4; r++ {
		for seq := uint64(0); seq <= 5; seq++ {
			if !slices.Contains(holes[r], seq) {
				rec.Record(r, meta(1, seq, 100))
			}
		}
	}
	const want = "rank 2 launched seq 5 but never seq 2"
	for i := 0; i < 200; i++ {
		var skipped []Finding
		for _, f := range rec.Analyze(eng.Now(), 5*time.Second) {
			if f.Kind == "skipped-launch" {
				skipped = append(skipped, f)
			}
		}
		if len(skipped) != 1 || !slices.Equal(skipped[0].Ranks, []topo.Rank{2, 3}) || skipped[0].Details != want {
			t.Fatalf("call %d: skipped-launch findings = %+v, want ranks [2 3] and %q", i, skipped, want)
		}
	}
}

func TestRanksSorted(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 4)
	rec.Record(3, meta(1, 0, 1))
	rec.Record(1, meta(1, 0, 1))
	got := rec.Ranks()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ranks = %v", got)
	}
}

func TestAnalyzeHealthySkewTolerated(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 8)
	// Rank 1 is one op ahead — normal in-flight skew — and the comm is
	// actively launching (fresh entries).
	rec.Record(0, meta(1, 5, 100))
	rec.Record(1, meta(1, 6, 100))
	if fs := rec.Analyze(eng.Now(), 5*time.Second); len(fs) != 0 {
		t.Fatalf("fresh comm produced findings: %+v", fs)
	}
}

// TestAnalyzeStalenessBoundary pins the quiescence threshold exactly: a
// comm whose newest launch is age == stale IS analyzed (>= comparison), one
// tick younger is still "making progress" and skipped.
func TestAnalyzeStalenessBoundary(t *testing.T) {
	const stale = 5 * time.Second
	setup := func() (*sim.Engine, *Recorder) {
		eng := sim.NewEngine(1)
		rec := New(eng, 8)
		// Rank 1 stopped launching: a launch-behind finding once quiesced.
		rec.Record(0, meta(1, 4, 100))
		rec.Record(1, meta(1, 4, 100))
		rec.Record(2, meta(1, 4, 100))
		eng.RunFor(time.Second)
		rec.Record(0, meta(1, 5, 100))
		rec.Record(2, meta(1, 5, 100))
		return eng, rec
	}

	eng, rec := setup()
	// Newest entry is exactly `stale` old: the boundary counts as quiesced.
	fs := rec.Analyze(eng.Now().Add(stale), stale)
	if len(fs) != 1 || fs[0].Kind != "launch-behind" || len(fs[0].Ranks) != 1 || fs[0].Ranks[0] != 1 {
		t.Fatalf("at-threshold comm not analyzed: %+v", fs)
	}
	// One nanosecond younger than the threshold: still in flight, skipped.
	eng, rec = setup()
	if fs := rec.Analyze(eng.Now().Add(stale-time.Nanosecond), stale); len(fs) != 0 {
		t.Fatalf("sub-threshold comm analyzed: %+v", fs)
	}
}

func TestAnalyzeLaunchAhead(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 8)
	for r := topo.Rank(0); r < 4; r++ {
		seq := uint64(5)
		if r == 2 {
			seq = 6 // skipped op 5, ran ahead
		}
		rec.Record(r, meta(1, seq, 100))
	}
	eng.RunFor(time.Minute) // comm quiesces
	fs := rec.Analyze(eng.Now(), 5*time.Second)
	if len(fs) != 1 || fs[0].Kind != "launch-ahead" {
		t.Fatalf("findings = %+v", fs)
	}
	if len(fs[0].Ranks) != 1 || fs[0].Ranks[0] != 2 {
		t.Fatalf("ahead ranks = %v", fs[0].Ranks)
	}
}

func TestAnalyzeLaunchBehind(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 8)
	for r := topo.Rank(0); r < 4; r++ {
		seq := uint64(5)
		if r == 3 {
			seq = 3 // stopped launching
		}
		rec.Record(r, meta(1, seq, 100))
	}
	eng.RunFor(time.Minute)
	fs := rec.Analyze(eng.Now(), 5*time.Second)
	if len(fs) != 1 || fs[0].Kind != "launch-behind" {
		t.Fatalf("findings = %+v", fs)
	}
	if len(fs[0].Ranks) != 1 || fs[0].Ranks[0] != 3 {
		t.Fatalf("behind ranks = %v", fs[0].Ranks)
	}
}

func TestAnalyzeSizeMismatch(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 8)
	rec.Record(0, meta(1, 5, 100))
	rec.Record(1, meta(1, 5, 200)) // different payload for the same op
	eng.RunFor(time.Minute)
	fs := rec.Analyze(eng.Now(), 5*time.Second)
	found := false
	for _, f := range fs {
		if f.Kind == "size-mismatch" && f.CommID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("size mismatch not found: %+v", fs)
	}
}

// TestSizeMismatchesInSeqOrder: several mismatched ops on one comm are
// reported in op order, the same on every call.
func TestSizeMismatchesInSeqOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 16)
	for seq := uint64(0); seq < 8; seq++ {
		rec.Record(0, meta(1, seq, 100))
		rec.Record(1, meta(1, seq, 100+int64(seq%2))) // odd seqs disagree
	}
	for i := 0; i < 50; i++ {
		var got []string
		for _, f := range rec.Analyze(eng.Now(), 5*time.Second) {
			got = append(got, f.Details)
		}
		want := []string{
			"op seq 1 launched with 2 distinct sizes", "op seq 3 launched with 2 distinct sizes",
			"op seq 5 launched with 2 distinct sizes", "op seq 7 launched with 2 distinct sizes",
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: findings %q, want %q", i, got, want)
		}
	}
}

func TestLastOpPerRank(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, 8)
	rec.Record(0, meta(1, 3, 100))
	rec.Record(0, meta(1, 7, 100))
	rec.Record(0, meta(2, 99, 100))
	got := rec.LastOpPerRank(1)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("LastOpPerRank = %v", got)
	}
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero ring did not panic")
		}
	}()
	New(sim.NewEngine(1), 0)
}
