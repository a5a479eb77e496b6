package stats

import (
	"math"
	"testing"
)

// The windowed-quantile edge cases perfdiag's envelopes depend on: an empty
// window must answer 0 (not panic), a single sample must answer itself at
// every q, and an all-equal window must answer the common value with no
// interpolation drift.

func TestWindowQuantileEmpty(t *testing.T) {
	w := NewWindowQuantile(8)
	for _, q := range []float64{-1, 0, 0.5, 0.9, 1, 2} {
		if got := w.Quantile(q); got != 0 {
			t.Fatalf("empty window Quantile(%v) = %v, want 0", q, got)
		}
	}
	if w.N() != 0 || w.Full() {
		t.Fatalf("empty window N=%d Full=%v, want 0/false", w.N(), w.Full())
	}
	if w.Median() != 0 {
		t.Fatalf("empty window Median = %v, want 0", w.Median())
	}
}

func TestWindowQuantileSingleSample(t *testing.T) {
	w := NewWindowQuantile(8)
	w.Add(3.25)
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 0.99, 1, 7} {
		if got := w.Quantile(q); got != 3.25 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 3.25", q, got)
		}
	}
	if w.N() != 1 || w.Full() {
		t.Fatalf("single-sample N=%d Full=%v, want 1/false", w.N(), w.Full())
	}
}

func TestWindowQuantileAllEqual(t *testing.T) {
	w := NewWindowQuantile(5)
	for i := 0; i < 12; i++ { // wraps the ring more than twice
		w.Add(7.5)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := w.Quantile(q); got != 7.5 {
			t.Fatalf("all-equal Quantile(%v) = %v, want exactly 7.5", q, got)
		}
	}
	if !w.Full() || w.N() != 5 {
		t.Fatalf("N=%d Full=%v, want 5/true", w.N(), w.Full())
	}
}

func TestWindowQuantileEviction(t *testing.T) {
	w := NewWindowQuantile(3)
	for _, x := range []float64{100, 200, 1, 2, 3} { // 100, 200 evicted
		w.Add(x)
	}
	if got := w.Quantile(0); got != 1 {
		t.Fatalf("min after eviction = %v, want 1", got)
	}
	if got := w.Quantile(1); got != 3 {
		t.Fatalf("max after eviction = %v, want 3", got)
	}
	if got := w.Median(); got != 2 {
		t.Fatalf("median after eviction = %v, want 2", got)
	}
}

func TestWindowQuantileInterpolation(t *testing.T) {
	w := NewWindowQuantile(4)
	for _, x := range []float64{10, 20, 30, 40} {
		w.Add(x)
	}
	if got := w.Median(); math.Abs(got-25) > 1e-12 {
		t.Fatalf("median = %v, want 25", got)
	}
	if got := w.Quantile(0.25); math.Abs(got-17.5) > 1e-12 {
		t.Fatalf("P25 = %v, want 17.5", got)
	}
}

func TestWindowQuantileDegenerateCapacity(t *testing.T) {
	w := NewWindowQuantile(0) // clamps to 1
	w.Add(5)
	w.Add(9)
	if got := w.Quantile(0.5); got != 9 {
		t.Fatalf("capacity-1 window keeps latest: got %v, want 9", got)
	}
	if w.N() != 1 {
		t.Fatalf("N = %d, want 1", w.N())
	}
}

// TestWindowMedianAllocatesNothing holds the envelope primitive off the
// allocator: perfdiag asks every rank's median on every timing post.
func TestWindowMedianAllocatesNothing(t *testing.T) {
	w := NewWindowQuantile(16)
	for i := 0; i < 20; i++ {
		w.Add(float64(i % 7))
	}
	var got float64
	if n := testing.AllocsPerRun(100, func() { got = w.Median() }); n != 0 {
		t.Fatalf("Median made %v mallocs, want 0", n)
	}
	if got != 3.5 {
		t.Fatalf("median = %v, want 3.5", got)
	}
}
