package perfdiag

import (
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// feed drives a synthetic training cadence: every rank completes iters
// iterations, rank by rank in lockstep, with the given per-rank period and a
// slow-factor applied to the ranks in slow after iteration after.
func feed(d *Detector, world, iters int, period time.Duration, slow map[topo.Rank]float64, after int) sim.Time {
	return feedFrom(d, make([]sim.Time, world), iters, period, slow, after)
}

// feedFrom is feed continuing each rank's clock from at, which it advances.
func feedFrom(d *Detector, at []sim.Time, iters int, period time.Duration, slow map[topo.Rank]float64, after int) sim.Time {
	var last sim.Time
	for i := 0; i < iters; i++ {
		for r := range at {
			p := period
			if f, ok := slow[topo.Rank(r)]; ok && i >= after {
				p = time.Duration(float64(period) * f)
			}
			at[r] = at[r].Add(p)
			d.Ingest(Sample{Rank: topo.Rank(r), Iter: i, At: at[r]})
			if at[r] > last {
				last = at[r]
			}
		}
	}
	return last
}

func TestHealthyFleetIsQuiet(t *testing.T) {
	d := New(8, Config{})
	end := feed(d, 8, 30, 2*time.Second, nil, 0)
	for i := 0; i < 5; i++ {
		if got := d.Analyze(end); got != nil {
			t.Fatalf("healthy fleet flagged: %v", got)
		}
	}
}

func TestPersistentStragglerDetected(t *testing.T) {
	d := New(8, Config{})
	end := feed(d, 8, 40, 2*time.Second, map[topo.Rank]float64{3: 1.8}, 10)
	var got []Finding
	// The Persist gate requires consecutive anomalous analyses.
	for i := 0; i < 4 && got == nil; i++ {
		got = d.Analyze(end)
	}
	if len(got) != 1 {
		t.Fatalf("straggler not found: %v", got)
	}
	f := got[0]
	if f.Kind != KindStraggler {
		t.Errorf("kind = %s, want %s", f.Kind, KindStraggler)
	}
	if f.Rank != 3 {
		t.Errorf("rank = %d, want 3", f.Rank)
	}
	if f.Ratio <= 1.3 {
		t.Errorf("ratio = %v, want > straggler factor", f.Ratio)
	}
	if f.Persisted < 3 {
		t.Errorf("persisted = %d, want >= 3", f.Persisted)
	}
}

func TestPersistGateSuppressesTransients(t *testing.T) {
	d := New(8, Config{})
	end := feed(d, 8, 40, 2*time.Second, map[topo.Rank]float64{3: 1.8}, 10)
	// One or two anomalous analyses are not enough: the gate needs three.
	if got := d.Analyze(end); got != nil {
		t.Fatalf("finding fired on first analysis: %v", got)
	}
	if got := d.Analyze(end); got != nil {
		t.Fatalf("finding fired on second analysis: %v", got)
	}
	if got := d.Analyze(end); got == nil {
		t.Fatal("finding missing on third consecutive analysis")
	}
}

func TestRecoveryResetsStreak(t *testing.T) {
	d := New(8, Config{})
	at := make([]sim.Time, 8)
	end := feedFrom(d, at, 40, 2*time.Second, map[topo.Rank]float64{3: 1.8}, 10)
	d.Analyze(end)
	d.Analyze(end)
	// Rank 3 recovers: enough healthy iterations to flush its window.
	end = feedFrom(d, at, 20, 2*time.Second, nil, 0)
	for i := 0; i < 5; i++ {
		if got := d.Analyze(end); got != nil {
			t.Fatalf("recovered rank still flagged: %v", got)
		}
	}
}

func TestStageImbalanceKind(t *testing.T) {
	d := New(8, Config{})
	// Three of eight ranks slow together: a stage, not a lone straggler.
	slow := map[topo.Rank]float64{4: 1.8, 5: 1.8, 6: 1.8}
	end := feed(d, 8, 40, 2*time.Second, slow, 10)
	var got []Finding
	for i := 0; i < 4 && got == nil; i++ {
		got = d.Analyze(end)
	}
	if len(got) != 1 {
		t.Fatalf("imbalance not found: %v", got)
	}
	if got[0].Kind != KindImbalance {
		t.Errorf("kind = %s, want %s", got[0].Kind, KindImbalance)
	}
	if len(got[0].Ranks) != 3 {
		t.Errorf("ranks = %v, want the 3 slow ranks", got[0].Ranks)
	}
}

func TestIgnoresOutOfRangeAndStaleSamples(t *testing.T) {
	d := New(4, Config{})
	d.Ingest(Sample{Rank: -1, At: sim.Time(time.Second)})
	d.Ingest(Sample{Rank: 99, At: sim.Time(time.Second)})
	if d.Ingested() != 0 {
		t.Fatalf("out-of-range samples counted: %d", d.Ingested())
	}
	// A non-monotonic timestamp must not produce a negative duration sample.
	d.Ingest(Sample{Rank: 0, At: sim.Time(5 * time.Second)})
	d.Ingest(Sample{Rank: 0, At: sim.Time(3 * time.Second)})
	if n := d.ranks[0].window.N(); n != 0 {
		t.Fatalf("stale timestamp produced %d duration samples, want 0", n)
	}
}

// TestRepeatedSampleKeepsClock: a retried post repeats a timestamp the rank
// already passed. It must leave the rank's clock where it was, or the next
// sample's gap spans the repeat and reads as a straggler.
func TestRepeatedSampleKeepsClock(t *testing.T) {
	d := New(1, Config{})
	for s := 1; s <= 10; s++ {
		d.Ingest(Sample{Rank: 0, Iter: s, At: sim.Time(time.Duration(s) * time.Second)})
	}
	d.Ingest(Sample{Rank: 0, Iter: 3, At: sim.Time(3 * time.Second)})
	d.Ingest(Sample{Rank: 0, Iter: 11, At: sim.Time(11 * time.Second)})
	w := d.ranks[0].window
	if w.N() != 10 || w.Quantile(0) != 1 || w.Quantile(1) != 1 {
		t.Fatalf("window holds %d gaps in [%vs, %vs], want ten 1-s gaps", w.N(), w.Quantile(0), w.Quantile(1))
	}
}

// TestAnalyzeAllocatesNothing: an analysis pass over an armed fleet inside
// its envelope allocates nothing, new samples or not — the pass runs on
// every timing post.
func TestAnalyzeAllocatesNothing(t *testing.T) {
	const world = 256
	d := New(world, Config{})
	at := make([]sim.Time, world)
	end := feedFrom(d, at, 2*window, 2*time.Second, nil, 0)
	if got := d.Analyze(end); got != nil {
		t.Fatalf("quiet fleet flagged: %v", got)
	}
	r := 0
	n := testing.AllocsPerRun(200, func() {
		at[r] = at[r].Add(2 * time.Second)
		d.Ingest(Sample{Rank: topo.Rank(r), At: at[r]})
		r = (r + 1) % world
		if d.Analyze(at[r]) != nil {
			t.Fatal("quiet fleet flagged")
		}
	})
	if n != 0 {
		t.Fatalf("Analyze made %v mallocs per pass, want 0", n)
	}
}
