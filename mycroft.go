// Package mycroft is a from-scratch reproduction of "Mycroft: Tracing
// Dependencies in Collective Communication Towards Reliable LLM Training"
// (SOSP 2025): a lightweight distributed tracing and root-cause-analysis
// system for collective communication, together with the full substrate it
// runs on — an NCCL-like collective library, a simulated RDMA fabric and GPU
// fleet, a Megatron-style training-job driver, the trace pipeline, and the
// always-on analysis backend.
//
// Everything runs on a deterministic discrete-event engine, so failures
// reproduce bit-for-bit from a seed. The public API is the multi-tenant
// Service: N independent training jobs hosted on one engine, observed
// through typed subscriptions and a unified query layer over each job's
// trace store:
//
//	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
//	job := svc.MustAddJob("llm-70b", mycroft.JobOptions{})
//	svc.Subscribe(mycroft.EventFilter{Kinds: []mycroft.EventKind{mycroft.EventReport}}).
//		Each(func(e mycroft.Event) { fmt.Println(e) })
//	svc.Start()
//	job.Inject(mycroft.Fault{Kind: mycroft.NICDown, Rank: 5, At: 15 * time.Second})
//	svc.Run(60 * time.Second)
//	res, _ := svc.QueryReports(mycroft.ReportQuery{Suspects: []mycroft.Rank{5}})
//
// Every report carries the causal chain the analysis walked (Report.Chain)
// and the suspect's blast radius (Report.Victims), both read from the
// per-job dependency graph maintained as records ingest; QueryDependencies
// and BlastRadius expose the live graph directly.
//
// AttachPolicy closes the loop: a RemedyPolicy maps verdicts to mitigation
// actions (recover-fault, isolate-rank, rebuild-communicator, restart-job,
// escalate) executed against the live job with per-rank backoff and
// flap-damping, each attempt verified by a quiet window and audited.
// Attempt transitions flow through subscriptions as EventAction events and
// QueryRemediations answers over the audit log.
//
// See README.md for the build, the CLI tools (including the declarative
// scenario runner, cmd/mycroft-scenario) and the scenario file format;
// cmd/mycroft-eval prints every reproduced table and figure.
package mycroft

import (
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
	"mycroft/internal/train"
)

// Re-exported domain types, so downstream users need only this package.
type (
	// Rank is a global training rank.
	Rank = topo.Rank
	// Trigger is an Algorithm 1 firing.
	Trigger = core.Trigger
	// TriggerKind distinguishes failure from straggler triggers.
	TriggerKind = core.TriggerKind
	// Report is an Algorithm 2 root-cause verdict, carrying the causal
	// Chain and the Victims blast radius from the dependency graph.
	Report = core.Report
	// Hop is one step of a report's cross-communicator causal chain.
	Hop = core.Hop
	// Category is an RC-table failure category.
	Category = core.Category
	// Fault is an injectable fault specification.
	Fault = faults.Spec
	// FaultKind enumerates injectable faults.
	FaultKind = faults.Kind
	// TopoConfig sizes the simulated cluster.
	TopoConfig = topo.Config
	// TrainConfig tunes the simulated training job.
	TrainConfig = train.Config
	// BackendConfig tunes the analysis backend.
	BackendConfig = core.Config
	// TraceRecord is one raw Coll-level trace log line (Table 2).
	TraceRecord = trace.Record
	// RecordKind discriminates completion from state records.
	RecordKind = trace.Kind
)

// Trigger kinds (Algorithm 1's two outputs).
const (
	TriggerFailure   = core.TriggerFailure
	TriggerStraggler = core.TriggerStraggler
)

// Trace record kinds (§4.2).
const (
	RecordCompletion = trace.KindCompletion
	RecordState      = trace.KindState
)

// Fault kinds (the seven §7.1 classes plus the §6.2 integration faults).
const (
	NICDown         = faults.NICDown
	NICFlap         = faults.NICFlap
	LinkLoss        = faults.LinkLoss
	NICDegrade      = faults.NICDegrade
	GPUHang         = faults.GPUHang
	GPUSlow         = faults.GPUSlow
	PCIeDegrade     = faults.PCIeDegrade
	ProxyCrash      = faults.ProxyCrash
	Congestion      = faults.Congestion
	DataloaderStall = faults.DataloaderStall
	SyncMismatch    = faults.SyncMismatch
	ComputeHang     = faults.ComputeHang
	CheckpointStall = faults.CheckpointStall
)

// Root-cause categories.
const (
	CatNetworkSendPath  = core.CatNetworkSendPath
	CatNetworkDegrade   = core.CatNetworkDegrade
	CatGPUHang          = core.CatGPUHang
	CatPCIeDegrade      = core.CatPCIeDegrade
	CatComputeStraggler = core.CatComputeStraggler
	CatProxyCrash       = core.CatProxyCrash
	CatNotLaunched      = core.CatNotLaunched
	CatUnknown          = core.CatUnknown
)
