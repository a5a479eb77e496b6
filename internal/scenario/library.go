package scenario

import (
	"sort"
	"time"

	"mycroft"
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/remedy"
	"mycroft/internal/topo"
)

// Builtins returns the built-in scenario library, sorted by name: one
// scenario per fault kind (the §7.1 classes plus the §6.2 integration
// faults) and the multi-fault, flapping, large-topology, fleet-chaos and
// cascade variants. Every builtin passes its own assertions at its default
// seed; the library test enforces that.
func Builtins() []Spec {
	out := []Spec{
		healthyScenario(),
		singleFault("nic-down", "RNIC stops completing WRs; the quickstart example's fault, scored by the same faults.Judge as E2's nic-down row.", faults.NICDown, 5, false),
		singleFault("link-loss", "Bytes leave the NIC but never arrive (link black-hole).", faults.LinkLoss, 6, false),
		singleFault("gpu-hang", "Copy engine stuck: the GPU stops feeding the proxy.", faults.GPUHang, 2, false),
		singleFault("proxy-crash", "The NCCL proxy thread exits mid-run.", faults.ProxyCrash, 3, false),
		singleFault("gpu-slow", "Compute straggler: one rank's kernels run slower.", faults.GPUSlow, 1, false),
		singleFault("nic-degrade", "NIC bandwidth throttled on a comm-heavy job.", faults.NICDegrade, 4, true),
		singleFault("pcie-degrade", "Staging path throttled on a comm-heavy job.", faults.PCIeDegrade, 7, true),
		congestionScenario(),
		integrationFault("dataloader-stall", "Dataloader blocks forever; Mycroft reports op-not-launched and hands off (§6.2).", faults.DataloaderStall, 0),
		integrationFault("compute-hang", "A compute step never finishes outside the CCL.", faults.ComputeHang, 6),
		checkpointStallScenario(),
		syncMismatchScenario(),
		flappingScenario(),
		multiFaultScenario(),
		large64Scenario(),
		fleetChaosScenario(),
		cascadeScenario(),
		multiJobSharedScenario(),
		ppCascadeScenario(),
		ppNICCascadeScenario(),
		nestedVictimChainScenario(),
		selfHealNICDownScenario(),
		selfHealStragglerScenario(),
		flappingEscalateScenario(),
		multiJobPolicyScenario(),
		logOnlyNICDownScenario(),
		silentStragglerPerfScenario(),
		corroboratedCascadeScenario(),
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds a builtin scenario by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

const warmup = 15 * time.Second

func injectAt(at time.Duration, kind faults.Kind, rank int, sev float64, dur time.Duration) Event {
	return Event{At: Dur(at), Action: ActInject, Fault: &Fault{Kind: kind, Rank: rank, Severity: sev, Duration: Dur(dur)}}
}

func recoverAt(at time.Duration, kind faults.Kind, rank int) Event {
	return Event{At: Dur(at), Action: ActRecover, Fault: &Fault{Kind: kind, Rank: rank}}
}

// healthyScenario is the false-positive baseline: no faults, no triggers.
func healthyScenario() Spec {
	return Spec{
		Name:        "healthy",
		Description: "Fault-free baseline: a full run with zero triggers and steady ingest.",
		RunFor:      Dur(60 * time.Second),
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertMinIterations, Min: 10},
			{Kind: AssertMinRecords, Min: 1000},
		},
	}
}

// singleFault is the canonical one-fault scenario: warmup, inject, expect
// detection and a correct verdict.
func singleFault(name, desc string, kind faults.Kind, rank int, commHeavy bool) Spec {
	return Spec{
		Name:        name,
		Description: desc,
		Fleet:       Fleet{CommHeavy: commHeavy},
		Events:      []Event{injectAt(warmup, kind, rank, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
			{Kind: AssertMinRecords, Min: 1000},
		},
	}
}

func congestionScenario() Spec {
	s := singleFault("congestion", "External traffic floods the victim's NIC: no local fault, only flow pressure.", faults.Congestion, 4, true)
	s.Events = []Event{injectAt(warmup, faults.Congestion, 4, 0.999, 0)}
	return s
}

// integrationFault covers the §6.2 faults whose root cause is outside the
// CCL: Mycroft must say op-not-launched on the right rank and hand off.
func integrationFault(name, desc string, kind faults.Kind, rank int) Spec {
	return Spec{
		Name:        name,
		Description: desc,
		Events:      []Event{injectAt(warmup, kind, rank, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
		},
	}
}

func checkpointStallScenario() Spec {
	return Spec{
		Name:        "checkpoint-stall",
		Description: "A checkpoint write blocks forever (outside the CCL; py-spy's case).",
		Fleet:       Fleet{CheckpointEvery: 3},
		Events:      []Event{injectAt(warmup, faults.CheckpointStall, 6, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected},
			{Kind: AssertCategory, Categories: []core.Category{core.CatNotLaunched}},
		},
	}
}

func syncMismatchScenario() Spec {
	return Spec{
		Name:        "sync-mismatch",
		Description: "One rank silently skips a DP all-reduce; Mycroft sees only victims (§6.2).",
		Events:      []Event{injectAt(warmup, faults.SyncMismatch, 3, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected},
			{Kind: AssertCategory, Categories: []core.Category{core.CatUnknown, core.CatNotLaunched}},
		},
	}
}

func flappingScenario() Spec {
	return Spec{
		Name:        "nic-flapping",
		Description: "A flapping NIC: a long flap that must be detected, then a short one the job rides out.",
		RunFor:      Dur(85 * time.Second),
		Events: []Event{
			injectAt(warmup, faults.NICFlap, 5, 0, 10*time.Second),
			injectAt(50*time.Second, faults.NICFlap, 5, 0, 3*time.Second),
		},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Event: 0, Within: Dur(20 * time.Second)},
			{Kind: AssertMinIterations, Min: 10}, // the job resumes after both flaps
		},
	}
}

func multiFaultScenario() Spec {
	return Spec{
		Name:        "multi-fault",
		Description: "Two faults in sequence: a NIC dies and recovers, then a GPU hangs after the backend re-arms.",
		RunFor:      Dur(100 * time.Second),
		Events: []Event{
			injectAt(warmup, faults.NICDown, 5, 0, 0),
			recoverAt(25*time.Second, faults.NICDown, 5),
			injectAt(60*time.Second, faults.GPUHang, 2, 0, 0),
		},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDiagnosed, Event: 0},
			{Kind: AssertDiagnosed, Event: 1},
			{Kind: AssertMinReports, Min: 2},
		},
	}
}

// large64Scenario is the fleet-scale shape: 64 ranks, multiple faults, with
// the first fault recovering so the second lands on a live job.
func large64Scenario() Spec {
	return Spec{
		Name:        "large-64",
		Description: "64-rank (8 nodes × 8 GPUs) multi-fault run: a NIC dies on a non-sampled rank and recovers, then a second NIC dies across the cluster.",
		RunFor:      Dur(120 * time.Second),
		// Iterations at this scale run ~7 s, so the trigger look-back must
		// widen past the 5 s default or warm-up cadence reads as failure
		// (the E7 sweep makes the same adjustment).
		Fleet: Fleet{Topo: topo.Config{Nodes: 8, GPUsPerNode: 8, TP: 2, PP: 4, DP: 8}, Window: Dur(15 * time.Second)},
		Events: []Event{
			injectAt(warmup, faults.NICDown, 17, 0, 0),
			recoverAt(40*time.Second, faults.NICDown, 17),
			injectAt(70*time.Second, faults.NICDown, 33, 0, 0),
		},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDiagnosed, Event: 0},
			{Kind: AssertDiagnosed, Event: 1},
			{Kind: AssertMinReports, Min: 2},
			{Kind: AssertMinRecords, Min: 10000},
		},
	}
}

func fleetChaosScenario() Spec {
	return Spec{
		Name:        "fleet-chaos",
		Description: "Weighted-template fleet (8- and 16-rank jobs) with two sampled failure-class faults per job, each recovering.",
		RunFor:      Dur(90 * time.Second),
		Fleet: Fleet{Gen: &FleetGen{
			Jobs: 3,
			Templates: []Template{
				{Name: "small-compute", Weight: 3, Topo: topo.Small()},
				{Name: "medium-compute", Weight: 2, Topo: topo.Config{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 2, DP: 4}},
			},
		}},
		Chaos: &Chaos{
			Faults: 2,
			Kinds: []WeightedKind{
				{Kind: faults.NICDown, Weight: 2},
				{Kind: faults.GPUHang, Weight: 1},
			},
			Start: Dur(warmup), End: Dur(45 * time.Second), MinGap: Dur(20 * time.Second),
			Recover: true, RecoverAfter: Dur(10 * time.Second),
		},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger, Job: -1},
			{Kind: AssertDetected, Job: -1, Event: 0, Within: Dur(15 * time.Second)},
			{Kind: AssertMinRecords, Job: -1, Min: 1000},
		},
	}
}

// multiJobSharedScenario is the multi-tenant isolation check: three jobs on
// one mycroft.Service share the virtual clock, one loses a NIC, and the
// fault must be detected on that job without a single false trigger on its
// neighbours.
func multiJobSharedScenario() Spec {
	return Spec{
		Name:        "multi-job-shared",
		Description: "Three concurrent jobs on one shared-engine Service; a NIC dies on job 0 and must not trigger jobs 1 or 2.",
		Fleet: Fleet{
			SharedEngine: true,
			Gen: &FleetGen{
				Jobs: 3,
				Templates: []Template{
					{Name: "small-compute", Weight: 1, Topo: topo.Small()},
				},
			},
		},
		Events: []Event{{At: Dur(warmup), Action: ActInject, Job: 0, Fault: &Fault{Kind: faults.NICDown, Rank: 5}}},
		Assertions: []Assertion{
			{Kind: AssertDetected, Job: 0, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed, Job: 0},
			{Kind: AssertNoFalseTrigger, Job: 1},
			{Kind: AssertNoFalseTrigger, Job: 2},
			{Kind: AssertMinRecords, Job: -1, Min: 1000},
		},
	}
}

// ppCascadeScenario is the dependency-graph showcase: on a 4-stage pipeline
// a GPU hang deep in stage hierarchy surfaces first as a stalled gradient
// all-reduce several communicators away. The report must carry the full
// multi-hop causal chain (DP comm → PP comm → TP comm) and a blast radius
// covering the whole job — the paper's headline "tracing dependencies"
// behaviour, not just the terminal suspect.
func ppCascadeScenario() Spec {
	return Spec{
		Name:        "pp-cascade",
		Description: "4-stage pipeline: a GPU hang on rank 9 cascades DP → PP → TP; the verdict must carry the multi-hop chain and a job-wide blast radius.",
		RunFor:      Dur(60 * time.Second),
		// Same window widening as large-64: PP=4 iterations are long enough
		// that the 5 s default reads warm-up cadence as failure.
		Fleet:  Fleet{Topo: topo.Config{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 4, DP: 2}, Window: Dur(15 * time.Second)},
		Events: []Event{injectAt(warmup, faults.GPUHang, 9, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
			{Kind: AssertChain, Min: 3},
			{Kind: AssertVictims, Min: 15},
			{Kind: AssertMinRecords, Min: 1000},
		},
	}
}

// ppNICCascadeScenario kills a NIC mid-pipeline: the chase crosses a
// pipeline-order edge (the SendRecv comm) before convicting the NIC, and
// the blast radius is partial — only the ranks actually downstream of the
// dead NIC, not the whole job yet.
func ppNICCascadeScenario() Spec {
	return Spec{
		Name:        "pp-nic-cascade",
		Description: "4-stage pipeline: a NIC dies on rank 10; the chase follows the pipeline send/recv order into the victim stage and the blast radius stays partial.",
		RunFor:      Dur(60 * time.Second),
		Fleet:       Fleet{Topo: topo.Config{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 4, DP: 2}, Window: Dur(15 * time.Second)},
		Events:      []Event{injectAt(warmup, faults.NICDown, 10, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
			{Kind: AssertChain, Min: 2},
			{Kind: AssertVictims, Min: 4, Victims: []int{6, 14}},
		},
	}
}

// nestedVictimChainScenario is the 8-GPU nesting case: a GPU hang inside a
// TP group is reached through the PP comm's not-launched suspect, and every
// other rank lands in the blast radius.
func nestedVictimChainScenario() Spec {
	return Spec{
		Name:        "nested-victim-chain",
		Description: "A GPU hang on rank 2 is reached via a nested-comm hop (PP → TP) and takes all 7 peers down with it.",
		Events:      []Event{injectAt(warmup, faults.GPUHang, 2, 0, 0)},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
			{Kind: AssertChain, Min: 2},
			{Kind: AssertVictims, Min: 7, Victims: []int{0, 1, 3, 4, 5, 6, 7}},
		},
	}
}

// selfHealRules is the shared self-healing policy of the remediation
// builtins — mycroft.SelfHealPolicy (the tuned rule set the CLI and bench
// also use) rendered into the file format.
func selfHealRules() []RemedyRule {
	var out []RemedyRule
	for _, r := range mycroft.SelfHealPolicy().Rules {
		out = append(out, RemedyRule{
			Name: r.Name, Categories: r.Categories, Vias: r.Vias, MinChain: r.MinChain,
			Action: r.Action, MaxAttempts: r.MaxAttempts,
			Backoff: Dur(r.Backoff), VerifyWindow: Dur(r.VerifyWindow),
		})
	}
	return out
}

// selfHealNICDownScenario is the acceptance loop end to end: a recoverable
// nic-down is diagnosed, the policy recovers it, verification sees a quiet
// window, and the run ends with a succeeded audit entry and the job
// training again.
func selfHealNICDownScenario() Spec {
	return Spec{
		Name:        "self-heal-nic-down",
		Description: "A NIC dies and the attached policy recovers it in place: the audit log ends succeeded, the suspect stays quiet, the job resumes.",
		RunFor:      Dur(90 * time.Second),
		Fleet:       Fleet{Rearm: Dur(10 * time.Second)},
		Events:      []Event{injectAt(warmup, faults.NICDown, 5, 0, 0)},
		Remediate:   []Remediate{{Name: "self-heal", Rules: selfHealRules()}},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
			{Kind: AssertRemediation, Action: remedy.ActRecoverFault, Outcomes: []remedy.Outcome{remedy.OutcomeSucceeded}, Rank: 5},
			{Kind: AssertRecovered, Rank: 5},
			{Kind: AssertMinIterations, Min: 10}, // a permanently dead NIC caps the horizon at ~7
		},
	}
}

// selfHealStragglerScenario replaces a straggling GPU: the compute-straggler
// verdict maps to isolate-rank, the rank's hardware is swapped, and the job
// returns to full speed.
func selfHealStragglerScenario() Spec {
	return Spec{
		Name:        "self-heal-straggler",
		Description: "A compute straggler is diagnosed and its rank isolated (hardware swap): the slowdown clears and the isolate audits succeeded.",
		RunFor:      Dur(90 * time.Second),
		Fleet:       Fleet{Rearm: Dur(10 * time.Second)},
		Events:      []Event{injectAt(warmup, faults.GPUSlow, 1, 0, 0)},
		Remediate:   []Remediate{{Name: "self-heal", Rules: selfHealRules()}},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected},
			{Kind: AssertCategory, Categories: []core.Category{core.CatComputeStraggler}},
			{Kind: AssertRemediation, Action: remedy.ActIsolateRank, Outcomes: []remedy.Outcome{remedy.OutcomeSucceeded}, Rank: 1},
			{Kind: AssertRecovered, Rank: 1},
		},
	}
}

// flappingEscalateScenario is the flap-damping path: a link that keeps
// flapping defeats in-place recovery twice, exhausting the rule's budget —
// the loop must stop thrashing and page instead.
func flappingEscalateScenario() Spec {
	rules := []RemedyRule{{
		Name:       "recover",
		Categories: []core.Category{core.CatNetworkSendPath, core.CatNetworkDegrade},
		Action:     remedy.ActRecoverFault, MaxAttempts: 2,
		Backoff: Dur(5 * time.Second), VerifyWindow: Dur(25 * time.Second),
	}}
	return Spec{
		Name:        "flapping-link-escalate",
		Description: "A flapping link keeps re-failing inside the verify window; after the 2-attempt budget the policy escalates instead of thrashing.",
		RunFor:      Dur(120 * time.Second),
		Fleet:       Fleet{Rearm: Dur(5 * time.Second)},
		Events: []Event{
			injectAt(warmup, faults.NICFlap, 5, 0, 8*time.Second),
			injectAt(30*time.Second, faults.NICFlap, 5, 0, 8*time.Second),
			injectAt(45*time.Second, faults.NICFlap, 5, 0, 8*time.Second),
			injectAt(60*time.Second, faults.NICFlap, 5, 0, 8*time.Second),
			injectAt(75*time.Second, faults.NICFlap, 5, 0, 8*time.Second),
		},
		Remediate: []Remediate{{Name: "flap-damping", Rules: rules}},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertRemediation, Action: remedy.ActRecoverFault, Outcomes: []remedy.Outcome{remedy.OutcomeFailed}, Min: 2, Rank: 5},
			{Kind: AssertRemediation, Action: remedy.ActEscalate, Outcomes: []remedy.Outcome{remedy.OutcomeEscalated}, Rank: 5},
		},
	}
}

// multiJobPolicyScenario is the multi-tenant isolation check for the
// remediation loop itself: two jobs share one engine and lose a NIC each,
// but only job 0 carries a policy — job 1 must see zero remediation.
func multiJobPolicyScenario() Spec {
	return Spec{
		Name:        "multi-job-policy",
		Description: "Two shared-engine jobs each lose a NIC; only job 0 has a policy. Job 0 self-heals; job 1 is diagnosed but untouched.",
		RunFor:      Dur(90 * time.Second),
		Fleet: Fleet{
			SharedEngine: true,
			Rearm:        Dur(10 * time.Second),
			Gen: &FleetGen{
				Jobs:      2,
				Templates: []Template{{Name: "small-compute", Weight: 1, Topo: topo.Small()}},
			},
		},
		Events: []Event{
			{At: Dur(warmup), Action: ActInject, Job: 0, Fault: &Fault{Kind: faults.NICDown, Rank: 5}},
			{At: Dur(warmup), Action: ActInject, Job: 1, Fault: &Fault{Kind: faults.NICDown, Rank: 3}},
		},
		Remediate: []Remediate{{Job: 0, Name: "self-heal", Rules: selfHealRules()}},
		Assertions: []Assertion{
			{Kind: AssertDiagnosed, Job: 0},
			{Kind: AssertDiagnosed, Job: 1},
			{Kind: AssertRemediation, Job: 0, Outcomes: []remedy.Outcome{remedy.OutcomeSucceeded}, Rank: 5},
			{Kind: AssertRecovered, Job: 0, Rank: 5},
			{Kind: AssertRemediation, Job: 1, None: true, Rank: -1},
			{Kind: AssertMinIterations, Job: 0, Min: 10}, // job 0 resumed; job 1's dead NIC pins it lower
		},
	}
}

// logOnlyNICDownScenario is the tracepoint-free acceptance path: tracing is
// disabled entirely (zero 112-byte records reach the cloud DB), a NIC dies,
// and the rank's RDMA driver complaints — against a backdrop of fleet-wide
// info chatter — must localize, categorize and self-heal the fault through
// the log channel alone.
func logOnlyNICDownScenario() Spec {
	return Spec{
		Name:        "log-only-nic-down",
		Description: "Tracing disabled: rank 5's RDMA error lines alone must localize the dead NIC, reach a network-send-path verdict and drive recovery — zero trace records end to end.",
		RunFor:      Dur(75 * time.Second),
		Fleet:       Fleet{NoTracing: true, Rearm: Dur(10 * time.Second)},
		Events:      []Event{injectAt(warmup, faults.NICDown, 5, 0, 0)},
		Logs: []Logs{
			// Fleet-wide phase chatter every rank emits: the divergence score
			// must read it as a phase change, never a fault.
			{At: Dur(5 * time.Second), Rank: -1, Level: "info", Text: "iteration 12 loss 2.31 lr 0.0003", Count: 9, Every: Dur(5 * time.Second)},
			// The failing NIC's driver complains shortly after the fault.
			{At: Dur(20 * time.Second), Rank: 5, Level: "error", Text: "NET/IB rdma qp 17 timeout on port 1, completion queue stalled", Count: 6, Every: Dur(2 * time.Second)},
		},
		Remediate: []Remediate{{Name: "self-heal", Rules: selfHealRules()}},
		Assertions: []Assertion{
			{Kind: AssertNoRecords},
			{Kind: AssertChannel, Channel: "tracepoint", None: true},
			{Kind: AssertChannel, Channel: "log", Min: 1, Reports: 1},
			{Kind: AssertCategory, Categories: []core.Category{core.CatNetworkSendPath}},
			{Kind: AssertSuspect, Rank: 5},
			{Kind: AssertModality, Channel: "log"},
			{Kind: AssertRemediation, Action: remedy.ActRecoverFault, Outcomes: []remedy.Outcome{remedy.OutcomeSucceeded}, Rank: 5},
		},
	}
}

// silentStragglerPerfScenario is the black-box channel's acceptance path: no
// fault is injected and tracing stays on, but a synthetic timing feed shows
// rank 3 drifting 1.8× slower mid-run. The perf channel alone must convict
// it while the tracepoint channel stays completely quiet.
func silentStragglerPerfScenario() Spec {
	return Spec{
		Name:        "silent-straggler-perf",
		Description: "No fault, tracing healthy: iteration timestamps alone show rank 3 drifting 1.8× slower; the perf envelope convicts it while the tracepoint channel stays silent.",
		RunFor:      Dur(90 * time.Second),
		Timings:     []Timings{{Start: Dur(5 * time.Second), Period: Dur(2 * time.Second), Count: 30, Rank: 3, Factor: 1.8, After: 8}},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertChannel, Channel: "tracepoint", None: true},
			{Kind: AssertChannel, Channel: "perf", Min: 1, Reports: 1},
			{Kind: AssertCategory, Categories: []core.Category{core.CatComputeStraggler}},
			{Kind: AssertSuspect, Rank: 3},
			{Kind: AssertModality, Channel: "perf"},
		},
	}
}

// corroboratedCascadeScenario is the fusion showcase: the same dead NIC is
// seen independently by the tracepoint pipeline and the rank's driver log.
// The fused verdict must carry evidence from both channels and a confidence
// strictly above either channel's single prior (noisy-OR of 0.75 and 0.6 is
// 0.9, so the 0.8 bound separates corroboration from any single channel).
func corroboratedCascadeScenario() Spec {
	return Spec{
		Name:        "corroborated-cascade",
		Description: "A NIC dies while the rank's driver logs scream: tracepoint and log evidence fuse, and the verdict's confidence rises strictly above either channel alone.",
		RunFor:      Dur(75 * time.Second),
		Events:      []Event{injectAt(warmup, faults.NICDown, 5, 0, 0)},
		Logs: []Logs{
			{At: Dur(16 * time.Second), Rank: 5, Level: "error", Text: "NET/IB rnic 5 completion error on qp 9", Count: 6, Every: Dur(2 * time.Second)},
		},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Within: Dur(30 * time.Second)},
			{Kind: AssertDiagnosed},
			{Kind: AssertModality, Channel: "tracepoint", Outcome: "corroborated", MinConfidence: 0.8},
			{Kind: AssertModality, Channel: "log", MinConfidence: 0.8},
		},
	}
}

func cascadeScenario() Spec {
	return Spec{
		Name:        "cascade",
		Description: "Correlated failure: a NIC dies and, moments later, a neighbour follows (cascade probability 1).",
		RunFor:      Dur(80 * time.Second),
		Fleet:       Fleet{Topo: topo.Config{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 2, DP: 4}},
		Chaos: &Chaos{
			Faults: 1,
			Kinds:  []WeightedKind{{Kind: faults.NICDown, Weight: 1}},
			Start:  Dur(warmup), End: Dur(20 * time.Second),
			Cascade: 1, CascadeSpread: Dur(5 * time.Second),
			Recover: true, RecoverAfter: Dur(15 * time.Second),
		},
		Assertions: []Assertion{
			{Kind: AssertNoFalseTrigger},
			{Kind: AssertDetected, Event: 0, Within: Dur(15 * time.Second)},
			{Kind: AssertMinReports, Min: 1},
		},
	}
}
