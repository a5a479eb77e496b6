// Package core implements Mycroft's always-on analysis backend — the paper's
// primary contribution (§4.3, §5): rank sampling, the real-time trigger
// mechanism (Algorithm 1), and dependency-driven root cause analysis
// (Algorithm 2) over the distributed state machine reconstructed from
// Coll-level trace logs.
package core

import (
	"fmt"
	"strings"
	"time"

	"mycroft/internal/depgraph"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Category is an RC-table failure category (the actionable verdict).
type Category string

const (
	// CatNetworkSendPath: WRs are stuck at the suspect's NIC — a local NIC
	// failure or a black-holed link. Remediation: check that NIC/link.
	CatNetworkSendPath Category = "network-send-path"
	// CatNetworkDegrade: the suspect's flows move but at a fraction of the
	// baseline rate (NIC throttling, congestion).
	CatNetworkDegrade Category = "network-degrade"
	// CatGPUHang: the send path drained everything the GPU staged and the
	// GPU stopped feeding — a stuck kernel or dead copy engine.
	CatGPUHang Category = "gpu-hang"
	// CatPCIeDegrade: staging is the bottleneck — the GPU feeds the proxy
	// buffer abnormally slowly while the network drains instantly.
	CatPCIeDegrade Category = "pcie-degrade"
	// CatComputeStraggler: the rank consistently launches collectives late —
	// slow compute ahead of the op.
	CatComputeStraggler Category = "compute-straggler"
	// CatProxyCrash: the rank's proxy stopped emitting state logs mid-op.
	CatProxyCrash Category = "proxy-crash"
	// CatNotLaunched: the rank never launched the op others are blocked on.
	// The root cause is outside the CCL (compute hang, dataloader stall,
	// synchronization bug) — Mycroft hands off to py-spy / Flight Recorder.
	CatNotLaunched Category = "op-not-launched"
	// CatUnknown: the state machine does not match any known pattern.
	CatUnknown Category = "unknown"
)

// TriggerKind distinguishes Algorithm 1's two outputs.
type TriggerKind uint8

const (
	// TriggerFailure: a sampled rank stalled mid-operation (state logs but no
	// completion log in the window), or went silent entirely.
	TriggerFailure TriggerKind = iota + 1
	// TriggerStraggler: throughput halved or op interval doubled versus the
	// rolling baseline.
	TriggerStraggler
)

func (k TriggerKind) String() string {
	switch k {
	case TriggerFailure:
		return "failure"
	case TriggerStraggler:
		return "straggler"
	default:
		return fmt.Sprintf("trigger(%d)", uint8(k))
	}
}

// triggerKindText holds each kind's String name as the bytes MarshalText
// hands out: shared, so encoding a kind allocates nothing.
var triggerKindText = func() (t [TriggerStraggler + 1][]byte) {
	for k := TriggerFailure; k <= TriggerStraggler; k++ {
		t[k] = []byte(k.String())
	}
	return t
}()

// MarshalText and UnmarshalText carry the kind across JSON as its String
// name, so renumbering the constants cannot change the wire; a name outside
// the set is refused.
func (k TriggerKind) MarshalText() ([]byte, error) {
	if int(k) < len(triggerKindText) && triggerKindText[k] != nil {
		return triggerKindText[k], nil
	}
	return []byte(k.String()), nil
}

func (k *TriggerKind) UnmarshalText(text []byte) error {
	for i, name := range triggerKindText {
		if name != nil && string(name) == string(text) {
			*k = TriggerKind(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown trigger kind %q", text)
}

// Trigger is an active-trigger firing: a suspicious time point and the
// sampled rank that exposed it (not yet a localization).
//
// The JSON tags on this and every other type a /v1 message carries are the
// wire protocol (see internal/api): renaming one is a wire break.
type Trigger struct {
	Kind   TriggerKind `json:"kind"`
	Rank   topo.Rank   `json:"rank"`
	IP     topo.IP     `json:"ip"`
	At     sim.Time    `json:"at_ns"`
	CommID uint64      `json:"comm_id"` // communicator implicated by the rank's freshest logs
	Reason string      `json:"reason"`
}

// Trigger returns tr itself. It exists only for bench/replay.go, which was
// written against a separate wire type with a conversion method and cannot be
// edited outside a benchmark PR; nothing else may call it.
func (tr Trigger) Trigger() (Trigger, error) { return tr, nil }

func (tr Trigger) String() string {
	return fmt.Sprintf("[%v] %s trigger at rank %d (%s), comm %d: %s", tr.At, tr.Kind, tr.Rank, tr.IP, tr.CommID, tr.Reason)
}

// Via names the Algorithm 2 path that produced a verdict.
type Via string

const (
	ViaMinOp        Via = "min-op"
	ViaMinData      Via = "min-data"
	ViaSilentProxy  Via = "silent-proxy"
	ViaLateStart    Via = "late-start"
	ViaFlowPressure Via = "flow-pressure"
	ViaNone         Via = "none"
)

// Hop is one step of the cross-communicator dependency chase: the
// communicator analyzed, the suspect it yielded there, how (Via), and the
// dependency-graph edge kind that led to the next hop ("" marks the
// terminal hop — the root cause, or where the trail went cold).
type Hop struct {
	Comm    uint64            `json:"comm"`
	Suspect topo.Rank         `json:"suspect"`
	Via     Via               `json:"via"`
	Edge    depgraph.EdgeKind `json:"edge,omitempty"`
}

func (h Hop) String() string {
	s := fmt.Sprintf("comm %d/rank %d (%s)", h.Comm, h.Suspect, h.Via)
	if h.Edge != "" {
		s += fmt.Sprintf(" -%s->", h.Edge)
	}
	return s
}

// Report is the outcome of root cause analysis.
type Report struct {
	Trigger    Trigger   `json:"trigger"`
	Suspect    topo.Rank `json:"suspect"`
	SuspectIP  topo.IP   `json:"suspect_ip"`
	CommID     uint64    `json:"comm_id"` // communicator the verdict was reached on
	Category   Category  `json:"category"`
	Via        Via       `json:"via"`
	AnalyzedAt sim.Time  `json:"analyzed_at_ns"`
	Details    string    `json:"details"`
	// Chain is the causal path the analysis walked, trigger communicator
	// first, root-cause communicator last. A single-hop chain means the
	// verdict was reached on the trigger's own communicator.
	Chain []Hop `json:"chain,omitempty"`
	// Victims is the blast radius: every rank the dependency graph shows
	// transitively blocked by the suspect (suspect excluded, sorted).
	Victims []topo.Rank `json:"victims,omitempty"`
	// Evidence is the per-channel attribution behind this verdict (empty on
	// backends without fusion attached). Confidence is the fused belief in
	// (0,1]: it rises above any single channel's prior when independent
	// channels corroborate, and takes a penalty when they conflict.
	Evidence   []Evidence `json:"evidence,omitempty"`
	Confidence float64    `json:"confidence,omitempty"`
}

// Report returns r itself: the second shim for bench/replay.go (see
// Trigger.Trigger).
func (r Report) Report() (Report, error) { return r, nil }

func (r Report) String() string {
	s := fmt.Sprintf("[%v] root cause: rank %d (%s) %s via %s on comm %d — %s",
		r.AnalyzedAt, r.Suspect, r.SuspectIP, r.Category, r.Via, r.CommID, r.Details)
	if len(r.Chain) > 1 {
		hops := make([]string, len(r.Chain))
		for i, h := range r.Chain {
			hops[i] = h.String()
		}
		s += "; chain " + strings.Join(hops, " ")
	}
	if len(r.Victims) > 0 {
		s += fmt.Sprintf("; victims %v", r.Victims)
	}
	return s
}

// Config tunes the backend. Zero values take the paper's defaults.
//
// An incident artifact's header records the effective Config under these JSON
// tags, and a what-if replay file overrides it by the same names, durations in
// nanoseconds: renaming a tag changes the artifact format.
type Config struct {
	// Interval is the trigger evaluation period. Default 1 s.
	Interval time.Duration `json:"interval_ns"`
	// Window is Δ of Algorithm 1: the look-back for trigger evaluation.
	// Default 5 s.
	Window time.Duration `json:"window_ns"`
	// ThroughputDrop fires the straggler trigger when windowed throughput
	// falls below this fraction of the baseline. Default 0.5 (§9).
	ThroughputDrop float64 `json:"throughput_drop"`
	// IntervalGrow fires the straggler trigger when the mean op interval
	// exceeds this multiple of the baseline. Default 2.0 (§9).
	IntervalGrow float64 `json:"interval_grow"`
	// StragglerLate is the per-iteration lateness that marks a straggler.
	// Default 1 s (§9).
	StragglerLate time.Duration `json:"straggler_late_ns"`
	// LateCount is how many consecutive late ops confirm a straggler.
	// Default 3.
	LateCount int `json:"late_count"`
	// MaxSampled caps the sampled ranks. Default 10 (§4.3).
	MaxSampled int `json:"max_sampled"`
	// StateFresh is how stale a rank's state logs may be before the rank
	// counts as silent (proxy crash candidate). Default 1 s.
	StateFresh time.Duration `json:"state_fresh_ns"`
	// StragglerWindow is the look-back for straggler RCA. Short enough that
	// post-onset behaviour dominates the analysis. Default 15 s.
	StragglerWindow time.Duration `json:"straggler_window_ns"`
	// StragglerSettle delays straggler RCA after the trigger so the
	// post-onset evidence (late launches, pressured flows) accumulates in
	// the trace store. Default 6 s.
	StragglerSettle time.Duration `json:"straggler_settle_ns"`
	// RearmDelay mutes the trigger after it fires, while analysis and
	// remediation proceed. Default 30 s.
	RearmDelay time.Duration `json:"rearm_ns"`
	// MinBaselineSamples before throughput/interval triggers arm. Default 5.
	MinBaselineSamples int `json:"min_baseline_samples"`
	// BadWindows is how many of the last BadWindowSpan windows must violate
	// a straggler rule before it fires — debouncing both the alignment
	// noise of nested op cadences and the aliasing of iteration boundaries
	// against the window. Default 3.
	BadWindows int `json:"bad_windows"`
	// BadWindowSpan is the sliding span the BadWindows quorum is counted
	// over. Default BadWindows+2.
	BadWindowSpan int `json:"bad_window_span"`
	// FlowPressureFrac: fraction of snapshots with outstanding WRs that
	// convicts a rank's NIC in straggler flow analysis. Default 0.6.
	FlowPressureFrac float64 `json:"flow_pressure_frac"`
	// ChaseDepth bounds the cross-communicator dependency chase. Default 4.
	ChaseDepth int `json:"chase_depth"`
}

// Config returns c itself: the third shim for bench/replay.go (see
// Trigger.Trigger), which converts an artifact header's configuration with it.
func (c Config) Config() Config { return c }

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.ThroughputDrop <= 0 {
		c.ThroughputDrop = 0.5
	}
	if c.IntervalGrow <= 0 {
		c.IntervalGrow = 2.0
	}
	if c.StragglerLate <= 0 {
		c.StragglerLate = time.Second
	}
	if c.LateCount <= 0 {
		c.LateCount = 3
	}
	if c.MaxSampled <= 0 {
		c.MaxSampled = 10
	}
	if c.StateFresh <= 0 {
		c.StateFresh = time.Second
	}
	if c.StragglerWindow <= 0 {
		c.StragglerWindow = 15 * time.Second
	}
	if c.StragglerSettle <= 0 {
		c.StragglerSettle = 6 * time.Second
	}
	if c.RearmDelay <= 0 {
		c.RearmDelay = 30 * time.Second
	}
	if c.MinBaselineSamples <= 0 {
		c.MinBaselineSamples = 5
	}
	if c.BadWindows <= 0 {
		c.BadWindows = 3
	}
	if c.BadWindowSpan < c.BadWindows {
		c.BadWindowSpan = c.BadWindows + 2
	}
	if c.FlowPressureFrac <= 0 {
		c.FlowPressureFrac = 0.6
	}
	if c.ChaseDepth <= 0 {
		c.ChaseDepth = 4
	}
	return c
}

// SampleRanks picks the monitored ranks: at least one per DP group (the
// gradient all-reduce spans DP groups, so any member observes a cascade),
// capped at max (§4.3). Deterministic: the first member of each group in
// order.
func SampleRanks(dpGroups []*topo.Group, max int) []topo.Rank {
	if max <= 0 {
		max = 10
	}
	var out []topo.Rank
	seen := make(map[topo.Rank]bool)
	for _, g := range dpGroups {
		if len(out) >= max {
			break
		}
		if len(g.Ranks) == 0 {
			continue
		}
		r := g.Ranks[0]
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
