// Package faults defines the fault-injection catalog used by the evaluation
// (§7.1): seven fault classes covering common hardware and software issues,
// plus the integration faults of §6.2 (dataloader stall, synchronization
// mismatch and the like). Each spec knows how to apply itself to a running
// train.Job (Inject, Recover), which workload and severity make its kind
// measurable (ProfileFor, SeverityFor), and what a correct diagnosis looks
// like (Expect).
//
// Judge is the one place an expectation is applied. Given an injection and
// what the backend fired and concluded, it returns a Verdict: the first
// trigger and report at or after the injection, the first the expectation
// accepts, how close the suspect came (exact, same host, wrong) and the
// spurious reports. The experiments and the scenario runner both score with
// it.
package faults

import (
	"fmt"
	"slices"
	"time"

	"mycroft/internal/core"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// Kind enumerates the injectable faults.
type Kind string

const (
	// The seven CCL-visible classes of §7.1.
	NICDown     Kind = "nic-down"     // RNIC stops completing WRs
	NICFlap     Kind = "nic-flap"     // transient down/up
	LinkLoss    Kind = "link-loss"    // bytes leave the NIC, never arrive
	NICDegrade  Kind = "nic-degrade"  // bandwidth throttled
	GPUHang     Kind = "gpu-hang"     // copy engine stuck
	GPUSlow     Kind = "gpu-slow"     // compute straggler
	PCIeDegrade Kind = "pcie-degrade" // staging path throttled
	ProxyCrash  Kind = "proxy-crash"  // NCCL proxy thread exits
	// Congestion: external traffic floods the rank's NIC (the rank's own
	// flows slow with no local fault).
	Congestion Kind = "congestion"
	// Integration faults resolved by py-spy / Flight Recorder (§6.2).
	DataloaderStall Kind = "dataloader-stall"
	SyncMismatch    Kind = "sync-mismatch"
	ComputeHang     Kind = "compute-hang"
	CheckpointStall Kind = "checkpoint-stall"
)

// CoreSeven returns the seven CCL-layer fault classes the paper's injection
// experiments cover.
func CoreSeven() []Kind {
	return []Kind{NICDown, LinkLoss, NICDegrade, GPUHang, GPUSlow, PCIeDegrade, ProxyCrash}
}

// All returns every fault kind, including the integration faults.
func All() []Kind {
	return append(CoreSeven(), NICFlap, Congestion, DataloaderStall, SyncMismatch, ComputeHang, CheckpointStall)
}

// Spec is one concrete injection.
type Spec struct {
	Kind Kind
	Rank topo.Rank
	// At is the injection delay from Inject time (scheduled on the engine).
	At time.Duration
	// Severity parameterizes degradations: bandwidth scale for NICDegrade /
	// PCIeDegrade (default 0.1), slow factor for GPUSlow (default 4).
	Severity float64
	// Duration bounds transient faults (NICFlap; default 5 s).
	Duration time.Duration
}

func (s Spec) withDefaults() Spec {
	if s.Severity <= 0 {
		switch s.Kind {
		case GPUSlow:
			s.Severity = 4
		case Congestion:
			s.Severity = 0.9
		default:
			s.Severity = 0.1
		}
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	return s
}

func (s Spec) String() string {
	return fmt.Sprintf("%s@rank%d(+%v)", s.Kind, s.Rank, s.At)
}

// Expectation describes what a correct diagnosis looks like, for scoring.
type Expectation struct {
	// Triggers acceptable for this fault. A hard network failure may fire
	// the throughput rule first (the last window before total silence) —
	// both firings mark the same suspicious time point.
	Triggers []core.TriggerKind
	// Categories acceptable for this fault (the RC table collapses some
	// physically-indistinguishable cases, e.g. NIC-down vs. link black-hole,
	// and a dying NIC classifies as degraded in its final window).
	Categories []core.Category
	// LocalizeRank: whether the suspect rank must equal the injected rank.
	LocalizeRank bool
	// CCLVisible: false for faults whose root cause is outside the CCL,
	// where Mycroft should say "not launched" and hand off (§6.2).
	CCLVisible bool
}

// TriggerOK reports whether a trigger kind satisfies the expectation.
func (e Expectation) TriggerOK(k core.TriggerKind) bool {
	for _, t := range e.Triggers {
		if t == k {
			return true
		}
	}
	return false
}

// CategoryOK reports whether a category satisfies the expectation.
func (e Expectation) CategoryOK(c core.Category) bool {
	for _, x := range e.Categories {
		if x == c {
			return true
		}
	}
	return false
}

// Expect returns the scoring expectation for a fault kind.
func Expect(k Kind) Expectation {
	both := []core.TriggerKind{core.TriggerFailure, core.TriggerStraggler}
	switch k {
	case NICDown, LinkLoss, NICFlap:
		return Expectation{Triggers: both, Categories: []core.Category{core.CatNetworkSendPath, core.CatNetworkDegrade}, LocalizeRank: true, CCLVisible: true}
	case NICDegrade, Congestion:
		return Expectation{Triggers: []core.TriggerKind{core.TriggerStraggler}, Categories: []core.Category{core.CatNetworkDegrade}, LocalizeRank: true, CCLVisible: true}
	case GPUHang:
		return Expectation{Triggers: both, Categories: []core.Category{core.CatGPUHang}, LocalizeRank: true, CCLVisible: true}
	case GPUSlow:
		return Expectation{Triggers: []core.TriggerKind{core.TriggerStraggler}, Categories: []core.Category{core.CatComputeStraggler}, LocalizeRank: true, CCLVisible: true}
	case PCIeDegrade:
		return Expectation{Triggers: []core.TriggerKind{core.TriggerStraggler}, Categories: []core.Category{core.CatPCIeDegrade, core.CatNetworkDegrade}, LocalizeRank: true, CCLVisible: true}
	case ProxyCrash:
		// A proxy that dies mid-op is classified by its silent state logs; a
		// proxy that dies between ops is indistinguishable from a rank that
		// never launched — localization is still exact and the Fig. 6 triage
		// cross-check with the Flight Recorder refines the category.
		return Expectation{Triggers: both, Categories: []core.Category{core.CatProxyCrash, core.CatNotLaunched}, LocalizeRank: true, CCLVisible: true}
	case DataloaderStall, ComputeHang, CheckpointStall:
		return Expectation{Triggers: both, Categories: []core.Category{core.CatNotLaunched}, LocalizeRank: true, CCLVisible: false}
	case SyncMismatch:
		// The skipping rank runs AHEAD of its group, so Mycroft's
		// minimum-based analysis sees only victims; the verdict comes from
		// the Flight Recorder during triage (§6.2).
		return Expectation{Triggers: both, Categories: []core.Category{core.CatUnknown, core.CatNotLaunched}, LocalizeRank: false, CCLVisible: false}
	default:
		return Expectation{}
	}
}

// ProfileFor picks the workload mix a fault class needs to be measurable:
// the bandwidth degradations only show on a communication-heavy job.
func ProfileFor(k Kind) train.JobProfile {
	switch k {
	case NICDegrade, PCIeDegrade:
		return train.CommHeavy
	default:
		return train.ComputeHeavy
	}
}

// SeverityFor returns the per-kind severity the experiments and scenarios
// inject when a spec leaves it unset, tuned so every class is detectable on
// the small testbed. Zero means Inject's own default.
func SeverityFor(k Kind) float64 {
	switch k {
	case NICDegrade:
		return 0.01
	case PCIeDegrade:
		return 0.001
	case GPUSlow:
		return 6
	default:
		return 0
	}
}

// Grade rates a verdict's suspect against the injected rank.
type Grade string

const (
	SuspectExact    Grade = "exact"     // the injected rank
	SuspectSameHost Grade = "same-host" // another rank on the injected rank's host
	SuspectWrong    Grade = "wrong"     // anything else, including no suspect
)

// Verdict is Judge's reading of one injection. Trigger and report pointers
// alias the slices Judge was given; nil means none qualified.
type Verdict struct {
	// Trigger and Report are the first firing and the first root-cause
	// verdict at or after the injection; TriggerAfter and ReportAfter are how
	// long after it they came.
	Trigger      *core.Trigger
	Report       *core.Report
	TriggerAfter time.Duration
	ReportAfter  time.Duration
	// Detected is the first of those triggers whose kind the expectation
	// accepts and which led to a report (Report.Trigger) whose suspect grades
	// exact or same-host: a trigger that blamed another host, or was never
	// analyzed, did not detect this fault. Diagnosed is the first of those
	// reports the expectation accepts as correct: an accepted category,
	// naming the injected rank when the kind localizes.
	Detected  *core.Trigger
	Diagnosed *core.Report
	// Suspect grades Report's suspect ("" without a Report), and
	// RightCategory says whether the expectation accepts Report's category.
	Suspect       Grade
	RightCategory bool
	// Spurious are the reports, before or after the injection, whose suspect
	// is not the injected rank.
	Spurious []core.Report
}

// Judge scores what the backend said about one injection against Expect.
// It is the only code that applies an expectation: every harness that
// injects a fault and asks whether Mycroft got it right reads a Verdict.
// cl is the job's cluster, which places ranks on hosts.
func Judge(s Spec, cl *topo.Cluster, triggers []core.Trigger, reports []core.Report) Verdict {
	exp := Expect(s.Kind)
	at := sim.Time(s.At)
	var v Verdict
	for i := range triggers {
		tr := &triggers[i]
		if tr.At < at {
			continue
		}
		if v.Trigger == nil {
			v.Trigger, v.TriggerAfter = tr, tr.At.Sub(at)
		}
		if exp.TriggerOK(tr.Kind) && slices.ContainsFunc(reports, func(rep core.Report) bool {
			return rep.Trigger == *tr && grade(cl, s.Rank, rep.Suspect) != SuspectWrong
		}) {
			v.Detected = tr
			break
		}
	}
	for i := range reports {
		rep := &reports[i]
		if rep.Suspect != s.Rank {
			v.Spurious = append(v.Spurious, *rep)
		}
		if rep.AnalyzedAt < at {
			continue
		}
		if v.Report == nil {
			v.Report, v.ReportAfter = rep, rep.AnalyzedAt.Sub(at)
			v.Suspect = grade(cl, s.Rank, rep.Suspect)
			v.RightCategory = exp.CategoryOK(rep.Category)
		}
		if v.Diagnosed == nil && exp.CategoryOK(rep.Category) && (!exp.LocalizeRank || rep.Suspect == s.Rank) {
			v.Diagnosed = rep
		}
	}
	return v
}

func grade(cl *topo.Cluster, want, got topo.Rank) Grade {
	switch {
	case got == want:
		return SuspectExact
	case got >= 0 && int(got) < cl.WorldSize() && cl.SameNode(got, want):
		return SuspectSameHost
	}
	return SuspectWrong
}

// Inject schedules the fault on the job's engine.
func Inject(j *train.Job, s Spec) {
	s = s.withDefaults()
	if int(s.Rank) < 0 || int(s.Rank) >= j.Cluster.WorldSize() {
		panic(fmt.Sprintf("faults: rank %d out of range", s.Rank))
	}
	apply := func() {
		switch s.Kind {
		case NICDown:
			j.NICs[s.Rank].SetDown(true)
		case NICFlap:
			j.NICs[s.Rank].FlapFor(s.Duration)
		case LinkLoss:
			j.NICs[s.Rank].SetWireLoss(true)
		case NICDegrade:
			j.NICs[s.Rank].SetBandwidthScale(s.Severity)
		case GPUHang:
			j.GPUs[s.Rank].SetHang(true)
		case GPUSlow:
			j.GPUs[s.Rank].SetSlowFactor(s.Severity)
		case PCIeDegrade:
			j.GPUs[s.Rank].SetCopyBandwidthScale(s.Severity)
		case ProxyCrash:
			j.CrashProxy(s.Rank)
		case Congestion:
			// Severity is the share of the NIC the flood occupies.
			j.StartBackgroundTraffic(s.Rank, s.Severity)
		case CheckpointStall:
			j.StallCheckpoint(s.Rank)
		case DataloaderStall:
			j.StallDataloader(s.Rank)
		case ComputeHang:
			j.StallCompute(s.Rank)
		case SyncMismatch:
			j.SkipNextDPLaunch(s.Rank)
		default:
			panic(fmt.Sprintf("faults: unknown kind %q", s.Kind))
		}
	}
	j.Eng.After(s.At, apply)
}
