package mycroft

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestServiceMultiJobDeterministic is the acceptance criterion for the
// multi-tenant API: four concurrent jobs on one engine, two of them
// faulted, and the full report stream is byte-identical across runs of the
// same seed.
func TestServiceMultiJobDeterministic(t *testing.T) {
	run := func() string {
		svc := NewService(ServiceOptions{Seed: 11})
		for i := 0; i < 4; i++ {
			if _, err := svc.AddJob("", JobOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		svc.Start()
		j0, _ := svc.Job("job-0")
		j2, _ := svc.Job("job-2")
		j0.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
		j2.Inject(Fault{Kind: GPUHang, Rank: 1, At: 20 * time.Second})
		svc.Run(50 * time.Second)
		defer svc.Stop()

		var b strings.Builder
		res, err := svc.QueryReports(ReportQuery{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Reports {
			fmt.Fprintf(&b, "%s: %v\n", r.Job, r.Report)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("multi-job run not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "job-0") || !strings.Contains(a, "job-2") {
		t.Fatalf("expected verdicts for job-0 and job-2, got:\n%s", a)
	}
	if strings.Contains(a, "job-1:") || strings.Contains(a, "job-3:") {
		t.Fatalf("healthy tenants produced verdicts:\n%s", a)
	}
}

func TestServiceJobManagement(t *testing.T) {
	svc := NewService(ServiceOptions{})
	h := svc.MustAddJob("alpha", JobOptions{})
	if h.ID != "alpha" || h.WorldSize() != 8 {
		t.Fatalf("handle = %v world %d", h.ID, h.WorldSize())
	}
	if _, err := svc.AddJob("alpha", JobOptions{}); err == nil {
		t.Fatal("duplicate job id accepted")
	}
	if _, err := svc.AddJob("bad", JobOptions{Topo: TopoConfig{Nodes: 1, GPUsPerNode: 1, TP: 2, PP: 1, DP: 1}}); err == nil {
		t.Fatal("bad topo accepted")
	}
	auto := svc.MustAddJob("", JobOptions{})
	if auto.ID != "job-1" {
		t.Fatalf("auto id = %q, want job-1", auto.ID)
	}
	if got := svc.Jobs(); len(got) != 2 || got[0] != "alpha" || got[1] != "job-1" {
		t.Fatalf("Jobs = %v", got)
	}
	// Auto-generated ids probe past explicitly taken names.
	svc.MustAddJob("job-2", JobOptions{})
	if h := svc.MustAddJob("", JobOptions{}); h.ID != "job-3" {
		t.Fatalf("auto id = %q, want job-3 (job-2 taken)", h.ID)
	}
	if _, ok := svc.Job("nope"); ok {
		t.Fatal("unknown job reported ok")
	}
}

// TestServiceAddJobWhileRunning: the always-on service accepts tenants
// mid-run; a job added at t=10s starts immediately and trains.
func TestServiceAddJobWhileRunning(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 3})
	svc.MustAddJob("first", JobOptions{})
	svc.Start()
	svc.Run(10 * time.Second)
	late := svc.MustAddJob("late", JobOptions{})
	svc.Run(20 * time.Second)
	if late.Job.IterationsDone() == 0 {
		t.Fatal("late-added job never iterated")
	}
}

func TestSubscribeFilters(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 2})
	svc.MustAddJob("a", JobOptions{})
	svc.MustAddJob("b", JobOptions{})

	all := svc.Subscribe(EventFilter{})
	onlyB := svc.Subscribe(EventFilter{Jobs: []JobID{"b"}})
	reports := svc.Subscribe(EventFilter{Kinds: []EventKind{EventReport}})
	rank5 := svc.Subscribe(EventFilter{Ranks: []Rank{5}, Kinds: []EventKind{EventReport}})
	netCat := svc.Subscribe(EventFilter{Categories: []Category{CatNetworkSendPath, CatNetworkDegrade}})
	early := svc.Subscribe(EventFilter{To: 10 * time.Second})

	var pushed []Event
	svc.Subscribe(EventFilter{Kinds: []EventKind{EventTrigger}}).Each(func(e Event) { pushed = append(pushed, e) })

	svc.Start()
	ja, _ := svc.Job("a")
	ja.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(45 * time.Second)
	svc.Stop()

	if all.Len() == 0 {
		t.Fatal("unfiltered stream saw nothing")
	}
	for _, e := range onlyB.Drain() {
		if e.Job != "b" {
			t.Fatalf("job filter leaked %v", e)
		}
	}
	reps := reports.Drain()
	if len(reps) == 0 {
		t.Fatal("no reports streamed")
	}
	for _, e := range reps {
		if e.Kind != EventReport || e.Report == nil {
			t.Fatalf("kind filter leaked %v", e)
		}
	}
	for _, e := range rank5.Drain() {
		if e.Report.Suspect != 5 {
			t.Fatalf("rank filter leaked suspect %d", e.Report.Suspect)
		}
	}
	nc := netCat.Drain()
	if len(nc) == 0 {
		t.Fatal("category filter saw no network verdicts")
	}
	for _, e := range nc {
		if e.Report.Category != CatNetworkSendPath && e.Report.Category != CatNetworkDegrade {
			t.Fatalf("category filter leaked %v", e)
		}
	}
	for _, e := range early.Drain() {
		if e.At > 10*time.Second {
			t.Fatalf("time filter leaked %v", e)
		}
	}
	if len(pushed) == 0 {
		t.Fatal("push handler saw no triggers")
	}
	// Lifecycle events: job/backend started and stopped for both jobs.
	var phases []string
	for _, e := range all.Drain() {
		if e.Kind == EventLifecycle {
			phases = append(phases, string(e.Job)+":"+e.Phase)
		}
	}
	for _, want := range []string{
		"a:" + PhaseJobStarted, "a:" + PhaseBackendStarted, "a:" + PhaseJobStopped,
		"b:" + PhaseJobStarted, "b:" + PhaseBackendStopped,
	} {
		found := false
		for _, p := range phases {
			if p == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("lifecycle %q missing in %v", want, phases)
		}
	}
}

func TestStreamCloseAndNext(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 4})
	svc.MustAddJob("x", JobOptions{})
	st := svc.Subscribe(EventFilter{Kinds: []EventKind{EventLifecycle}})
	svc.Start()
	if e, ok := st.Next(); !ok || e.Phase != PhaseJobStarted {
		t.Fatalf("Next = %v %v", e, ok)
	}
	st.Close()
	before := st.Len()
	svc.Stop() // would emit job-stopped; the stream is closed
	if st.Len() != before {
		t.Fatal("closed stream still receiving")
	}
}

func TestQueryTraceService(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 5})
	svc.MustAddJob("a", JobOptions{})
	svc.MustAddJob("b", JobOptions{})
	svc.Start()
	svc.Run(10 * time.Second)

	if _, err := svc.QueryTrace(TraceQuery{}); err == nil {
		t.Fatal("ambiguous job accepted with two tenants")
	}
	if _, err := svc.QueryTrace(TraceQuery{Job: "zzz"}); err == nil {
		t.Fatal("unknown job accepted")
	}
	res, err := svc.QueryTrace(TraceQuery{Job: "a", Ranks: []Rank{0}, Kinds: []RecordKind{RecordCompletion}})
	if err != nil || len(res.Records) == 0 {
		t.Fatalf("completion query: %v, %d records", err, len(res.Records))
	}
	for _, r := range res.Records {
		if r.Kind != RecordCompletion || r.Rank != 0 {
			t.Fatalf("predicate leak: %+v", r)
		}
	}
	// Pagination walks the same set as one unpaged query.
	var paged int
	q := TraceQuery{Job: "a", Limit: 100}
	for {
		page, err := svc.QueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		paged += len(page.Records)
		if page.Next == nil {
			break
		}
		q.Cursor = page.Next
	}
	whole, _ := svc.QueryTrace(TraceQuery{Job: "a"})
	if paged != len(whole.Records) || paged == 0 {
		t.Fatalf("paged %d vs whole %d", paged, len(whole.Records))
	}

	// Single-tenant services may omit the job id.
	solo := NewService(ServiceOptions{Seed: 5})
	solo.MustAddJob("only", JobOptions{})
	solo.Start()
	solo.Run(5 * time.Second)
	r, err := solo.QueryTrace(TraceQuery{})
	if err != nil || r.Job != "only" || len(r.Records) == 0 {
		t.Fatalf("solo query: %v job=%s n=%d", err, r.Job, len(r.Records))
	}
}

func TestQueryTriggersAndReports(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 6})
	svc.MustAddJob("a", JobOptions{})
	svc.MustAddJob("b", JobOptions{})
	svc.Start()
	ja, _ := svc.Job("a")
	ja.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(45 * time.Second)

	trs, err := svc.QueryTriggers(TriggerQuery{Kinds: []TriggerKind{TriggerFailure, TriggerStraggler}})
	if err != nil || trs.Total == 0 {
		t.Fatalf("triggers: %v total=%d", err, trs.Total)
	}
	for _, tr := range trs.Triggers {
		if tr.Job != "a" {
			t.Fatalf("healthy job triggered: %v", tr)
		}
	}
	if got, _ := svc.QueryTriggers(TriggerQuery{Jobs: []JobID{"b"}}); got.Total != 0 {
		t.Fatalf("job filter: %d triggers on b", got.Total)
	}
	if _, err := svc.QueryTriggers(TriggerQuery{Jobs: []JobID{"zzz"}}); err == nil {
		t.Fatal("unknown job accepted")
	}

	reps, err := svc.QueryReports(ReportQuery{Suspects: []Rank{5}})
	if err != nil || reps.Total == 0 {
		t.Fatalf("reports: %v total=%d", err, reps.Total)
	}
	for _, r := range reps.Reports {
		if r.Suspect != 5 {
			t.Fatalf("suspect filter leaked %v", r)
		}
	}
	// Time-window query the old API could not express: nothing before the
	// fault.
	if got, _ := svc.QueryReports(ReportQuery{To: 15 * time.Second}); got.Total != 0 {
		t.Fatalf("%d verdicts before the fault", got.Total)
	}
	// Offset/limit pagination is consistent with Total.
	page, _ := svc.QueryReports(ReportQuery{Limit: 1})
	if len(page.Reports) != 1 {
		t.Fatalf("limit ignored: %d reports", len(page.Reports))
	}
	rest, _ := svc.QueryReports(ReportQuery{Offset: 1})
	if len(rest.Reports) != page.Total-1 {
		t.Fatalf("offset pagination: %d + 1 != total %d", len(rest.Reports), page.Total)
	}
}

// TestOptionsTopoMismatch: a caller-supplied Train.Topo that disagrees with
// JobOptions.Topo must error instead of being silently clobbered.
func TestOptionsTopoMismatch(t *testing.T) {
	svc := NewService(ServiceOptions{})
	tc := TrainConfig{Topo: TopoConfig{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 2, DP: 4}}
	_, err := svc.AddJob("clash", JobOptions{
		Topo:  TopoConfig{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
		Train: &tc,
	})
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("topo mismatch not rejected: %v", err)
	}

	// Agreeing topologies pass.
	tc2 := TrainConfig{Topo: TopoConfig{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2}}
	if _, err := svc.AddJob("agree", JobOptions{Topo: tc2.Topo, Train: &tc2}); err != nil {
		t.Fatalf("matching topos rejected: %v", err)
	}

	// Train.Topo alone sizes the job.
	tc3 := TrainConfig{Topo: TopoConfig{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 2, DP: 4}}
	h, err := svc.AddJob("train-only", JobOptions{Train: &tc3})
	if err != nil {
		t.Fatal(err)
	}
	if h.WorldSize() != 16 {
		t.Fatalf("world = %d, want 16 from Train.Topo", h.WorldSize())
	}
}

// Whole-system smoke tests: one job with default options on a Service, run
// end to end.

func TestSystemDefaultsRun(t *testing.T) {
	svc := NewService(ServiceOptions{})
	h := svc.MustAddJob("", JobOptions{})
	svc.Start()
	svc.Start() // idempotent
	svc.Run(20 * time.Second)
	if h.Job.IterationsDone() < 3 {
		t.Fatalf("iterations = %d", h.Job.IterationsDone())
	}
	if len(h.Triggers()) != 0 {
		t.Fatalf("healthy system triggered: %v", h.Triggers())
	}
	if svc.Now() != 20*time.Second {
		t.Fatalf("Now = %v", svc.Now())
	}
	svc.Stop()
}

func TestSystemDetectsInjectedFault(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 2})
	h := svc.MustAddJob("", JobOptions{})
	var triggers, reports int
	svc.Subscribe(EventFilter{Kinds: []EventKind{EventTrigger, EventReport}}).Each(func(e Event) {
		switch e.Kind {
		case EventTrigger:
			triggers++
		case EventReport:
			reports++
		}
	})
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(45 * time.Second)
	if triggers == 0 || reports == 0 {
		t.Fatalf("triggers=%d reports=%d", triggers, reports)
	}
	rep := h.Reports()[0]
	if rep.Suspect != 5 {
		t.Fatalf("suspect = %d, want 5 (%v)", rep.Suspect, rep)
	}
	if rep.Category != CatNetworkSendPath && rep.Category != CatNetworkDegrade {
		t.Fatalf("category = %v", rep.Category)
	}
	source, rank, _, ok := h.Triage()
	if !ok || source != "mycroft" || rank != 5 {
		t.Fatalf("triage = %q rank %d ok=%v", source, rank, ok)
	}
}

func TestSystemTriageDataloader(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 3})
	h := svc.MustAddJob("", JobOptions{})
	svc.Start()
	h.Inject(Fault{Kind: DataloaderStall, Rank: 2, At: 15 * time.Second})
	svc.Run(45 * time.Second)
	source, rank, summary, ok := h.Triage()
	if !ok || source != "py-spy" || rank != 2 || summary == "" {
		t.Fatalf("triage = %q rank %d ok=%v", source, rank, ok)
	}
}

func TestSystemRejectsBadTopo(t *testing.T) {
	bad := JobOptions{Topo: TopoConfig{Nodes: 1, GPUsPerNode: 1, TP: 2, PP: 1, DP: 1}}
	svc := NewService(ServiceOptions{})
	if _, err := svc.AddJob("", bad); err == nil {
		t.Fatal("bad topo accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddJob did not panic")
		}
	}()
	svc.MustAddJob("", bad)
}

func TestSystemCustomTrainConfig(t *testing.T) {
	tc := TrainConfig{ComputePerLayer: 100 * time.Millisecond, DPBytes: 64 << 20}
	svc := NewService(ServiceOptions{})
	h := svc.MustAddJob("", JobOptions{Train: &tc, CommHeavy: true})
	svc.Start()
	svc.Run(10 * time.Second)
	if h.Job.IterationsDone() == 0 {
		t.Fatal("custom config did not run")
	}
}

func TestTriageBeforeAnyReport(t *testing.T) {
	svc := NewService(ServiceOptions{})
	h := svc.MustAddJob("", JobOptions{})
	if _, _, _, ok := h.Triage(); ok {
		t.Fatal("triage with no reports reported ok")
	}
	if res, err := svc.Triage(""); err != nil || res.OK {
		t.Fatalf("Service.Triage with no reports: %+v, %v", res, err)
	}
}

// TestQueryDependenciesAndBlastRadius drives a NIC-down fault and reads the
// dependency graph through the service layer: wait edges appear, the blast
// radius names the victims, and the DOT export is deterministic.
func TestQueryDependenciesAndBlastRadius(t *testing.T) {
	run := func() (DependencyResult, []Rank, string) {
		svc := NewService(ServiceOptions{Seed: 3})
		job := svc.MustAddJob("j", JobOptions{})
		svc.Start()
		job.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
		svc.Run(30 * time.Second)
		defer svc.Stop()
		deps, err := svc.QueryDependencies(DependencyQuery{})
		if err != nil {
			t.Fatal(err)
		}
		br, err := svc.BlastRadius("j", 5)
		if err != nil {
			t.Fatal(err)
		}
		return deps, br, job.DependencyDOT()
	}
	deps, br, dot := run()
	if len(deps.Edges) == 0 {
		t.Fatal("stuck job has no dependency edges")
	}
	if len(br) == 0 {
		t.Fatalf("NIC-down blast radius empty")
	}
	for _, r := range br {
		if r == 5 {
			t.Fatalf("suspect in its own blast radius: %v", br)
		}
	}
	if !strings.Contains(dot, "digraph mycroft_deps") {
		t.Fatalf("DOT export malformed:\n%s", dot)
	}
	_, _, dot2 := run()
	if dot != dot2 {
		t.Fatal("DOT export not deterministic across same-seed runs")
	}
}

// TestDependencyQueryFilters exercises DependencyQuery's Ranks filter and
// the error paths.
func TestDependencyQueryFilters(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 3})
	job := svc.MustAddJob("j", JobOptions{})
	svc.Start()
	job.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(30 * time.Second)
	defer svc.Stop()

	all, err := svc.QueryDependencies(DependencyQuery{})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := svc.QueryDependencies(DependencyQuery{Ranks: []Rank{5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Edges) == 0 || len(filtered.Edges) >= len(all.Edges) {
		t.Fatalf("rank filter: %d of %d edges", len(filtered.Edges), len(all.Edges))
	}
	for _, e := range filtered.Edges {
		if e.From.Rank != 5 && e.To.Rank != 5 {
			t.Fatalf("edge does not touch rank 5: %+v", e)
		}
	}
	if _, err := svc.QueryDependencies(DependencyQuery{Job: "nope"}); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := svc.BlastRadius("nope", 0); err == nil {
		t.Fatal("unknown job accepted by BlastRadius")
	}
}

// TestReportChainVictimsFilters covers the new report-shaped event filters:
// Victims (blast-radius membership) and MinChain (cascade selection).
func TestReportChainVictimsFilters(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 5})
	job := svc.MustAddJob("j", JobOptions{})
	victimStream := svc.Subscribe(EventFilter{Victims: []Rank{5}})
	deepStream := svc.Subscribe(EventFilter{MinChain: 99})
	svc.Start()
	job.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(40 * time.Second)
	defer svc.Stop()

	reps := job.Reports()
	if len(reps) == 0 {
		t.Fatal("no reports")
	}
	if len(reps[0].Chain) == 0 {
		t.Fatalf("report has no chain: %+v", reps[0])
	}
	// Every report fingers rank 5 (as suspect or victim), so the victim
	// stream sees exactly the report events; triggers/lifecycle are dropped.
	if victimStream.Len() != len(reps) {
		t.Fatalf("victim stream got %d events, want %d", victimStream.Len(), len(reps))
	}
	for _, e := range victimStream.Drain() {
		if e.Kind != EventReport {
			t.Fatalf("non-report event passed Victims filter: %v", e)
		}
	}
	// An absurd chain bound matches nothing.
	if deepStream.Len() != 0 {
		t.Fatalf("MinChain 99 matched %d events", deepStream.Len())
	}
}
