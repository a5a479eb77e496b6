package main

import (
	"math"
	"sort"
	"time"
)

// Stat is one reported number: the value, its unit, how many samples stand
// behind it and, for a tail, which percentile the sample count allowed.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value (0 on a per-layer metric means
	// this workload does not exercise the layer).
	N int `json:"n,omitempty"`
	// Q1 and Q3 are the quartiles of those samples when Value is their
	// median over repetitions.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Note carries what Value cannot: the percentile a tail was read at.
	Note string `json:"note,omitempty"`
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo) // p < 1, so lo+1 is in range
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method — the same numbers Python's
// statistics.quantiles(xs, n=4) gives, which is what the acceptance check
// computes spreads from. With fewer than two samples all three are the
// sample (NaN for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based axis, clamped to the sample range.
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// tailMinBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 read off 200 samples is two observations, not a tail.
const tailMinBeyond = 10

// tailPercentile picks the percentile to report as the tail of n samples:
// want when at least tailMinBeyond samples lie beyond it, else the highest
// percentile that has that many beyond it; 0.5 (the median) when even that
// is not available.
func tailPercentile(n int, want float64) float64 {
	if n <= 2*tailMinBeyond {
		return 0.5
	}
	return math.Min(1-float64(tailMinBeyond)/float64(n), want)
}

// The tails the per-layer rows read.
const (
	p90 = 0.90
	p99 = 0.99
)

// tail returns the tail of xs by the tailPercentile rule and the percentile
// it was read at.
func tail(xs []float64, want float64) (value, p float64) {
	p = tailPercentile(len(xs), want)
	return percentile(sortedCopy(xs), p), p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
