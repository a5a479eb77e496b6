package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v, want 100", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0.9); math.Abs(got-90.1) > 1e-9 {
		t.Fatalf("P90 = %v, want 90.1", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.FractionBelow(10) != 0 {
		t.Fatal("empty sample should return zeros")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestFractionBelow(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 2, 3, 10} {
		s.Add(x)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {2, 0.6}, {5, 0.8}, {10, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	var s Sample
	for i := 0; i < 57; i++ {
		s.Add(float64((i * 7919) % 101))
	}
	pts := s.CDF(20)
	if len(pts) != 20 {
		t.Fatalf("CDF returned %d points, want 20", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P < pts[i-1].P {
			t.Fatalf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].P != 1 {
		t.Fatalf("last CDF P = %v, want 1", pts[len(pts)-1].P)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRollingRate(t *testing.T) {
	r := NewRollingRate(0.5)
	if _, ok := r.Value(); ok {
		t.Fatal("unprimed rate reported ok")
	}
	r.Observe(10)
	if v, ok := r.Value(); !ok || v != 10 {
		t.Fatalf("first observation: v=%v ok=%v", v, ok)
	}
	r.Observe(20)
	if v, _ := r.Value(); v != 15 {
		t.Fatalf("EWMA = %v, want 15", v)
	}
	if r.Samples() != 2 {
		t.Fatalf("Samples = %d, want 2", r.Samples())
	}
}

func TestRollingRateBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", alpha)
				}
			}()
			NewRollingRate(alpha)
		}()
	}
}
