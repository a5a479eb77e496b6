package scenario

import (
	"math/rand"

	"mycroft/internal/topo"
)

// jobSpec is one resolved fleet member: the shape the runner builds a
// mycroft.Service job from.
type jobSpec struct {
	Template        string
	Topo            topo.Config
	CommHeavy       bool
	CheckpointEvery int
	UploadLatency   Dur
	Window          Dur
	MaxSampled      int
	Rearm           Dur
	NoTracing       bool
}

// resolveFleet expands the fleet declaration into concrete job specs. For a
// generated fleet, templates are sampled by weight from an rng derived from
// the scenario seed, so the same seed always produces the same fleet.
func resolveFleet(f Fleet, seed int64) []jobSpec {
	if f.Gen == nil {
		t := f.Topo
		if t == (topo.Config{}) {
			t = topo.Small()
		}
		return []jobSpec{{
			Template: "default", Topo: t, CommHeavy: f.CommHeavy,
			CheckpointEvery: f.CheckpointEvery, UploadLatency: f.UploadLatency,
			Window: f.Window, MaxSampled: f.MaxSampled, Rearm: f.Rearm,
			NoTracing: f.NoTracing,
		}}
	}
	rng := rand.New(rand.NewSource(mix(seed, 0x666c656574))) // "fleet"
	weights := make([]int, len(f.Gen.Templates))
	for i, tpl := range f.Gen.Templates {
		weights[i] = tpl.Weight
	}
	out := make([]jobSpec, 0, f.Gen.Jobs)
	for i := 0; i < f.Gen.Jobs; i++ {
		tpl := f.Gen.Templates[pickWeighted(rng, weights)]
		out = append(out, jobSpec{
			// The fleet-wide knob applies to every member, like the other
			// fleet-level overrides; a template can also opt in itself.
			Template: tpl.Name, Topo: tpl.Topo, CommHeavy: tpl.CommHeavy || f.CommHeavy,
			CheckpointEvery: f.CheckpointEvery, UploadLatency: f.UploadLatency,
			Window: f.Window, MaxSampled: f.MaxSampled, Rearm: f.Rearm,
			NoTracing: f.NoTracing,
		})
	}
	return out
}

// pickWeighted draws an index with probability proportional to its weight.
// Both the fleet sampler and the chaos kind sampler use it, so the two
// cannot diverge. Weights must be positive (Validate enforces it).
func pickWeighted(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for i, w := range weights {
		n -= w
		if n < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// mix folds a salt into a seed (splitmix64 finalizer) so derived streams
// (fleet sampling, per-job chaos) are decorrelated but fully determined by
// the scenario seed.
func mix(seed, salt int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
