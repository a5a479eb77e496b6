package stats

import "slices"

// WindowQuantile is an exact quantile estimator over a sliding window of the
// last N samples — the primitive perfdiag's timing envelopes ride on. Adding
// past capacity evicts the oldest sample. The zero cost of exactness is fine
// at envelope scale (tens of samples per rank).
type WindowQuantile struct {
	ring []float64 // capacity is the window size
	head int       // oldest sample once the ring is full
}

// NewWindowQuantile builds a window holding the last n samples (n >= 1).
func NewWindowQuantile(n int) *WindowQuantile {
	if n < 1 {
		n = 1
	}
	return &WindowQuantile{ring: make([]float64, 0, n)}
}

// Add folds in a sample, evicting the oldest once the window is full.
func (w *WindowQuantile) Add(x float64) {
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, x)
		return
	}
	w.ring[w.head] = x
	w.head = (w.head + 1) % len(w.ring)
}

// N returns how many samples the window currently holds.
func (w *WindowQuantile) N() int { return len(w.ring) }

// Full reports whether the window has reached capacity.
func (w *WindowQuantile) Full() bool { return len(w.ring) == cap(w.ring) }

// stackWindow is the largest window Quantile sorts in a stack array; a
// larger one sorts into a fresh slice.
const stackWindow = 64

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the windowed samples using
// linear interpolation, or 0 when the window is empty. A single sample
// answers every quantile with itself; all-equal samples answer with the
// common value. It sorts a copy of the window, so a window of up to
// stackWindow samples answers without allocating and the window keeps no
// second buffer.
func (w *WindowQuantile) Quantile(q float64) float64 {
	var buf [stackWindow]float64
	xs := append(buf[:0], w.ring...)
	slices.Sort(xs)
	return QuantileSorted(xs, q)
}

// Median is Quantile(0.5).
func (w *WindowQuantile) Median() float64 { return w.Quantile(0.5) }
