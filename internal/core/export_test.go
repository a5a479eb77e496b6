package core

import (
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// KeptWindow returns what the backend keeps at ingest of a sampled rank's
// records in (t−Window, t], t ≥ Window, as its next pass at t reads it: the completions'
// times and sizes, whether a state log falls in the window, and whether one
// of those is stuck over Window/2.
func (b *Backend) KeptWindow(rank topo.Rank, t sim.Time) (times []sim.Time, bytes []int64, states, stuck bool) {
	done, states, stuck := b.state[rank].window(t, b.cfg.Window)
	for _, c := range done {
		times, bytes = append(times, c.at), append(bytes, c.bytes)
	}
	return times, bytes, states, stuck
}
