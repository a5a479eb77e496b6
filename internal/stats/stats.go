// Package stats provides the small statistical toolkit used by the
// experiment harness and the Mycroft backend: quantiles, empirical CDFs and
// rolling rate estimators over virtual time.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sample is an exact quantile estimator: it retains all values. Suitable for
// the experiment scales in this repository (≤ millions of points).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends a value.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of values.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) sort() {
	if !s.sorted {
		slices.Sort(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation,
// or 0 if the sample is empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return QuantileSorted(s.xs, q)
}

// QuantileSorted returns the q-quantile (0 ≤ q ≤ 1) of xs, which must be
// sorted ascending, interpolating linearly between the two nearest ranks. An
// empty xs answers 0. It is the one interpolation behind Sample and
// WindowQuantile, and it allocates nothing.
func QuantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// FractionBelow reports the fraction of samples ≤ x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, x)
	// include equal values
	for i < len(s.xs) && s.xs[i] <= x {
		i++
	}
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability
}

// CDF returns the empirical CDF evaluated at n evenly spaced probabilities
// (including 0+1/n ... 1.0).
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.xs) == 0 || n <= 0 {
		return nil
	}
	s.sort()
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		pts = append(pts, CDFPoint{X: s.Quantile(p), P: p})
	}
	return pts
}

// RollingRate tracks an exponentially weighted rate baseline, as the trigger
// mechanism uses for "normal throughput" and "normal op interval".
type RollingRate struct {
	alpha   float64
	value   float64
	primed  bool
	samples int
}

// NewRollingRate returns an EWMA with smoothing factor alpha in (0, 1].
func NewRollingRate(alpha float64) *RollingRate {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: alpha %v out of (0,1]", alpha))
	}
	return &RollingRate{alpha: alpha}
}

// Observe folds in a new observation.
func (r *RollingRate) Observe(x float64) {
	r.samples++
	if !r.primed {
		r.value = x
		r.primed = true
		return
	}
	r.value = r.alpha*x + (1-r.alpha)*r.value
}

// Value returns the current baseline; ok is false until at least one
// observation has been folded in.
func (r *RollingRate) Value() (v float64, ok bool) { return r.value, r.primed }

// Samples returns how many observations have been folded in.
func (r *RollingRate) Samples() int { return r.samples }
