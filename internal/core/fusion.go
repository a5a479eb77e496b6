package core

import (
	"fmt"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Modality names a diagnosis channel: where the evidence behind a verdict
// came from. The tracepoint channel is the paper's Coll-level trace pipeline;
// the log and perf channels diagnose without any tracepoints at all.
type Modality string

const (
	// ModalityTracepoint: the 112-byte Coll-level trace records (Algorithm 1/2).
	ModalityTracepoint Modality = "tracepoint"
	// ModalityLog: template-clustered training-log divergence (logdiag).
	ModalityLog Modality = "log"
	// ModalityPerf: black-box iteration-timing envelopes (perfdiag).
	ModalityPerf Modality = "perf"
)

// Modalities returns the valid channel set, in canonical order.
func Modalities() []Modality {
	return []Modality{ModalityTracepoint, ModalityLog, ModalityPerf}
}

// UnmarshalText refuses a channel name outside the set: "tracepoint", "log"
// and "perf" are part of the wire protocol.
func (m *Modality) UnmarshalText(text []byte) error {
	for _, known := range Modalities() {
		if string(known) == string(text) {
			*m = known
			return nil
		}
	}
	return fmt.Errorf("core: unknown channel %q (valid: %v)", text, Modalities())
}

// Vias for channel-sourced verdicts.
const (
	ViaLogTemplate  Via = "log-template"
	ViaPerfEnvelope Via = "perf-envelope"
)

// Evidence is one channel's contribution to a fused verdict.
type Evidence struct {
	Channel  Modality  `json:"channel"`
	Rank     topo.Rank `json:"rank"`
	Category Category  `json:"category"`
	// Weight is the channel's prior reliability in (0,1): how much one
	// uncorroborated finding from it is worth.
	Weight float64 `json:"weight"`
	// Score is the channel-native anomaly strength (divergence score,
	// envelope ratio, ...), informational.
	Score  float64  `json:"score,omitempty"`
	At     sim.Time `json:"at_ns"`
	Detail string   `json:"detail,omitempty"`
	// Conflict marks evidence that points away from the fused suspect.
	Conflict bool `json:"conflict,omitempty"`
}

func (e Evidence) String() string {
	s := fmt.Sprintf("%s: rank %d %s (w=%.2f)", e.Channel, e.Rank, e.Category, e.Weight)
	if e.Conflict {
		s += " [conflict]"
	}
	return s
}

// Fusion outcomes, for metrics and assertions.
const (
	FusionSingle       = "single"
	FusionCorroborated = "corroborated"
	FusionConflicted   = "conflicted"
)

// FusionConfig has no fields; it stays because bench/ passes one to NewFusion.
type FusionConfig struct{}

// FusionWindow is how long channel evidence stays eligible for fusion.
const FusionWindow = 60 * time.Second

// conflictPenalty multiplies confidence when channels disagree on the
// suspect.
const conflictPenalty = 0.6

// ChannelWeight returns a channel's prior: 0.75 for tracepoints, 0.6 for
// logs and 0.5 for timing.
func ChannelWeight(m Modality) float64 {
	switch m {
	case ModalityLog:
		return 0.6
	case ModalityPerf:
		return 0.5
	default:
		return 0.75
	}
}

// Fusion merges evidence from the diagnosis channels into one verdict.
// Confidence follows noisy-OR over the distinct corroborating channels —
// independent channels agreeing on a suspect push confidence strictly above
// any single channel's prior — and takes a penalty when channels point at
// different ranks, with the dissenters attached and flagged rather than
// dropped.
type Fusion struct {
	recent []Evidence
}

// NewFusion builds an empty fusion state. The FusionConfig is ignored.
func NewFusion(FusionConfig) *Fusion { return &Fusion{} }

// Observe records one channel finding for future corroboration. Only the
// freshest finding per (channel, rank) is kept.
func (f *Fusion) Observe(ev Evidence) {
	if ev.Weight <= 0 {
		ev.Weight = ChannelWeight(ev.Channel)
	}
	ev.Conflict = false
	kept := f.recent[:0]
	cut := ev.At.Add(-sim.Duration(FusionWindow))
	for _, e := range f.recent {
		if e.At < cut {
			continue
		}
		if e.Channel == ev.Channel && e.Rank == ev.Rank {
			continue // superseded
		}
		kept = append(kept, e)
	}
	f.recent = append(kept, ev)
}

// compatibleCategory reports whether two verdict categories can describe the
// same underlying fault — exact match, either side unknown, or both on the
// network path (a NIC failure reads as send-path from traces and as degrade
// from coarser channels).
func compatibleCategory(a, b Category) bool {
	if a == b || a == CatUnknown || b == CatUnknown {
		return true
	}
	netish := func(c Category) bool {
		return c == CatNetworkSendPath || c == CatNetworkDegrade
	}
	if netish(a) && netish(b) {
		return true
	}
	// A straggler verdict is compatible with any hardware degradation — slow
	// hardware is what makes a straggler.
	slowish := func(c Category) bool {
		return c == CatComputeStraggler || c == CatPCIeDegrade || c == CatNetworkDegrade || c == CatGPUHang
	}
	return slowish(a) && slowish(b)
}

// Finalize fuses the in-window evidence into rep: own is the delivering
// channel's evidence (always attached first), corroborating channels lift
// confidence by noisy-OR, dissenting channels attach flagged and penalize
// it. Returns the fusion outcome (FusionSingle/Corroborated/Conflicted).
func (f *Fusion) Finalize(rep *Report, own Evidence, now sim.Time) string {
	if own.Weight <= 0 {
		own.Weight = ChannelWeight(own.Channel)
	}
	own.Conflict = false
	evs := []Evidence{own}
	cut := now.Add(-sim.Duration(FusionWindow))
	corroborated, conflicted := false, false
	disbelief := 1 - own.Weight
	for _, e := range f.recent {
		if e.At < cut || e.Channel == own.Channel {
			continue
		}
		if e.Rank == rep.Suspect && compatibleCategory(e.Category, rep.Category) {
			corroborated = true
			disbelief *= 1 - e.Weight
			evs = append(evs, e)
		} else if e.Rank != rep.Suspect {
			conflicted = true
			e.Conflict = true
			evs = append(evs, e)
		}
	}
	confidence := 1 - disbelief
	outcome := FusionSingle
	if corroborated {
		outcome = FusionCorroborated
	}
	if conflicted {
		outcome = FusionConflicted
		confidence *= conflictPenalty
	}
	rep.Evidence = evs
	rep.Confidence = confidence
	return outcome
}

// FusionOutcome classifies a fused report by its attached evidence: any
// flagged dissenter makes it conflicted, two or more agreeing channels make
// it corroborated, else single.
func (r Report) FusionOutcome() string {
	agree := 0
	for _, e := range r.Evidence {
		if e.Conflict {
			return FusionConflicted
		}
		agree++
	}
	if agree >= 2 {
		return FusionCorroborated
	}
	return FusionSingle
}

// HasEvidence reports whether a report carries evidence from channel m
// (non-conflicting).
func (r Report) HasEvidence(m Modality) bool {
	for _, e := range r.Evidence {
		if e.Channel == m && !e.Conflict {
			return true
		}
	}
	return false
}

// LogAnomaly is the payload of an EventLogAnomaly: one channel finding,
// published as it happens (before, and independent of, any report it may
// escalate into). The log and perf channels share the shape; Channel
// distinguishes them, and Template doubles as the finding text for perf
// findings.
type LogAnomaly struct {
	Channel  Modality    `json:"channel"`
	Rank     topo.Rank   `json:"rank"`
	Ranks    []topo.Rank `json:"ranks,omitempty"`
	Template string      `json:"template"`
	Level    string      `json:"level,omitempty"`
	Count    int         `json:"count,omitempty"`
	Fleet    int         `json:"fleet,omitempty"`
	Score    float64     `json:"score"`
	Category Category    `json:"category"`
	At       sim.Time    `json:"at_ns"`
}

func (a LogAnomaly) String() string {
	return fmt.Sprintf("[%v] %s anomaly: %q on rank %d (score %.2f) → %s",
		a.At, a.Channel, a.Template, a.Rank, a.Score, a.Category)
}
