package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "help", L("job", "a"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Re-registering the same series returns the same instrument.
	if again := r.Counter("test_total", "help", L("job", "a")); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	// A different label set is a different series.
	if other := r.Counter("test_total", "help", L("job", "b")); other == c {
		t.Fatal("distinct label sets share a counter")
	}

	g := r.Gauge("test_gauge", "help")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 102.65 {
		t.Fatalf("sum = %v, want 102.65", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`, // le is inclusive: 0.05 and 0.1
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 102.65`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotSamplesGaugeFuncs: a snapshot renders each GaugeFunc at the
// value it sampled when taken, and every other series as it is when written,
// so a caller can take it under a lock and render it after.
func TestSnapshotSamplesGaugeFuncs(t *testing.T) {
	r := New()
	v := 1.0
	r.GaugeFunc("sampled", "computed", func() float64 { return v })
	c := r.Counter("live_total", "counted")
	snap := r.Snapshot()
	v = 2
	c.Add(3)
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nsampled 1\n", "\nlive_total 3\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("snapshot missing %q:\n%s", want, b.String())
		}
	}
}

func TestWritePrometheusOrderingAndEscaping(t *testing.T) {
	r := New()
	r.Counter("zzz_total", "last family").Inc()
	r.Counter("aaa_total", "first family", L("job", "b")).Add(2)
	r.Counter("aaa_total", "first family", L("job", "a")).Inc()
	r.GaugeFunc("mid_gauge", "computed", func() float64 { return 2.5 }, L("path", `a"b\c`))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Families sorted by name, series by label set, one header per family.
	wantOrder := []string{
		"# HELP aaa_total first family",
		"# TYPE aaa_total counter",
		`aaa_total{job="a"} 1`,
		`aaa_total{job="b"} 2`,
		"# TYPE mid_gauge gauge",
		`mid_gauge{path="a\"b\\c"} 2.5`,
		"# TYPE zzz_total counter",
		"zzz_total 1",
	}
	pos := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
		if i < pos {
			t.Fatalf("%q out of order:\n%s", want, out)
		}
		pos = i
	}
	if strings.Count(out, "# TYPE aaa_total") != 1 {
		t.Fatalf("family header emitted more than once:\n%s", out)
	}
}

func TestFamilyKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("dual_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter family as a gauge did not panic")
		}
	}()
	r.Gauge("dual_total", "help")
}

func TestConcurrentInstruments(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "help")
	h := r.Histogram("conc_seconds", "help", LatencyBuckets)
	g := r.Gauge("conc_gauge", "help")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter %d gauge %d hist %d", c.Value(), g.Value(), h.Count())
	}
}
