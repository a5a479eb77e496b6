// Package perfdiag is the black-box timing-envelope diagnosis channel: it
// sees nothing but per-rank iteration completion timestamps — no op-level
// trace, no logs — and still catches the failures that hide from both: the
// persistent straggler whose collectives all complete (slowly) and the
// stage imbalance where a whole group of ranks drifts off the fleet's
// cadence. Per-rank iteration durations feed rolling quantile envelopes
// (internal/stats.WindowQuantile); a rank whose median sits persistently
// above the fleet envelope is a straggler, and a coherent group of such
// ranks is stage imbalance — the LLMPrism observation (PAPERS.md) that
// iteration timing alone diagnoses silent slowdowns.
package perfdiag

import (
	"cmp"
	"fmt"
	"slices"

	"mycroft/internal/sim"
	"mycroft/internal/stats"
	"mycroft/internal/topo"
)

// Sample is one per-rank iteration completion timestamp.
type Sample struct {
	Rank topo.Rank
	Iter int
	At   sim.Time
}

// Config has no fields; it stays because bench/ passes one to New.
type Config struct{}

const (
	// window is the per-rank duration window (samples).
	window = 16
	// minSamples per rank before envelopes arm.
	minSamples = 6
	// stragglerFactor: a rank whose windowed median exceeds this multiple
	// of the fleet median is anomalous.
	stragglerFactor = 1.3
	// persist: consecutive anomalous analyses before a finding is reported.
	persist = 3
	// imbalanceFrac: when more than this fraction of the world is anomalous
	// together, the finding is stage imbalance, not a lone straggler.
	imbalanceFrac = 0.25
)

// FindingKind discriminates what the envelope caught.
type FindingKind string

const (
	// KindStraggler: one rank (or a small set) persistently above envelope.
	KindStraggler FindingKind = "persistent-straggler"
	// KindImbalance: a coherent group of ranks off the fleet cadence.
	KindImbalance FindingKind = "stage-imbalance"
)

// Finding is one timing-envelope anomaly.
type Finding struct {
	Kind FindingKind
	// Rank is the worst offender (highest median/fleet ratio; lowest rank
	// breaks ties). Ranks is the full anomalous set, sorted.
	Rank  topo.Rank
	Ranks []topo.Rank
	// RankMedian and FleetMedian are the windowed medians (seconds).
	RankMedian  float64
	FleetMedian float64
	// Ratio is RankMedian / FleetMedian for the worst offender.
	Ratio float64
	// Persisted counts consecutive anomalous analyses behind this finding.
	Persisted int
	At        sim.Time
}

func (f Finding) String() string {
	return fmt.Sprintf("[%v] %s: rank %d median %.3gs vs fleet %.3gs (×%.2f, %d consecutive)",
		f.At, f.Kind, f.Rank, f.RankMedian, f.FleetMedian, f.Ratio, f.Persisted)
}

type rankEnvelope struct {
	lastAt sim.Time
	window *stats.WindowQuantile
	streak int // consecutive anomalous analyses
	// median caches window.Median(); fresh marks a window that took a
	// sample since the last analysis, so only those ranks re-sort.
	median  float64
	hasLast bool
	fresh   bool
}

type offender struct {
	rank  topo.Rank
	ratio float64
}

// Detector maintains per-rank timing envelopes over iteration timestamps.
type Detector struct {
	world    int
	ranks    []rankEnvelope
	ingested uint64
	// fleet and over are Analyze's scratch, grown by the first passes and
	// kept, so a job that never posts timings holds none and a later pass
	// allocates only the finding it returns.
	fleet []float64
	over  []offender
}

// New builds a detector for a world-size-rank job. The Config is ignored.
func New(world int, _ Config) *Detector {
	if world < 1 {
		world = 1
	}
	d := &Detector{world: world, ranks: make([]rankEnvelope, world)}
	for i := range d.ranks {
		d.ranks[i].window = stats.NewWindowQuantile(window)
	}
	return d
}

// Ingest folds one iteration completion timestamp in. The duration sample is
// the gap to the rank's previous completion, so the channel needs only
// timestamps, never explicit durations. A sample at or before the rank's
// latest one (a retried post, a reordered batch) changes nothing: taking it
// would rewind the clock and let the next gap span the repeat.
func (d *Detector) Ingest(s Sample) {
	if int(s.Rank) < 0 || int(s.Rank) >= d.world {
		return
	}
	d.ingested++
	env := &d.ranks[s.Rank]
	if env.hasLast {
		if s.At <= env.lastAt {
			return
		}
		env.window.Add(s.At.Sub(env.lastAt).Seconds())
		env.fresh = true
	}
	env.lastAt, env.hasLast = s.At, true
}

// Ingested returns lifetime samples folded in.
func (d *Detector) Ingested() uint64 { return d.ingested }

// Analyze compares every armed rank's windowed median against the fleet
// median and returns the findings that have persisted long enough, worst
// first. A nil return means every rank is inside the envelope.
func (d *Detector) Analyze(now sim.Time) []Finding {
	d.fleet = d.fleet[:0]
	for r := range d.ranks {
		env := &d.ranks[r]
		if env.window.N() < minSamples {
			continue
		}
		if env.fresh {
			env.median, env.fresh = env.window.Median(), false
		}
		d.fleet = append(d.fleet, env.median)
	}
	if len(d.fleet) < 2 {
		return nil
	}
	slices.Sort(d.fleet)
	fleetMedian := stats.QuantileSorted(d.fleet, 0.5)
	if fleetMedian <= 0 {
		return nil
	}

	over := d.over[:0]
	for r := range d.ranks {
		env := &d.ranks[r]
		if env.window.N() < minSamples {
			continue
		}
		if env.median > stragglerFactor*fleetMedian {
			env.streak++
			over = append(over, offender{topo.Rank(r), env.median / fleetMedian})
		} else {
			env.streak = 0
		}
	}
	d.over = over
	if len(over) == 0 {
		return nil
	}
	slices.SortFunc(over, func(a, b offender) int {
		if a.ratio != b.ratio {
			return cmp.Compare(b.ratio, a.ratio)
		}
		return cmp.Compare(a.rank, b.rank)
	})

	// The finding only fires once the worst offender's streak persists.
	worst := over[0]
	if d.ranks[worst.rank].streak < persist {
		return nil
	}
	ranks := make([]topo.Rank, 0, len(over))
	for _, o := range over {
		if d.ranks[o.rank].streak >= persist {
			ranks = append(ranks, o.rank)
		}
	}
	slices.Sort(ranks)
	kind := KindStraggler
	if float64(len(ranks)) > imbalanceFrac*float64(d.world) {
		kind = KindImbalance
	}
	return []Finding{{
		Kind: kind, Rank: worst.rank, Ranks: ranks,
		RankMedian: d.ranks[worst.rank].median, FleetMedian: fleetMedian,
		Ratio: worst.ratio, Persisted: d.ranks[worst.rank].streak, At: now,
	}}
}
