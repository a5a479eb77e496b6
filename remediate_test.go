package mycroft

import (
	"testing"
	"time"
)

// TestSelfHealNICDown is the acceptance loop end to end: a recoverable
// nic-down is diagnosed, the policy recovers it, verification sees a quiet
// window, the audit log says succeeded, and the job keeps training.
func TestSelfHealNICDown(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	job := svc.MustAddJob("llm", JobOptions{Backend: BackendConfig{RearmDelay: 10 * time.Second}})
	if err := svc.AttachPolicy("llm", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	actions := svc.Subscribe(EventFilter{Kinds: []EventKind{EventAction}})
	svc.Start()
	job.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(75 * time.Second)

	// The dying NIC first reads as degraded throughput, so the loop may burn
	// an attempt on the wrong category before the failure re-detection names
	// network-send-path; what matters is that the FINAL attempt succeeds.
	log := job.RemediationLog()
	if len(log) == 0 {
		t.Fatal("empty audit log")
	}
	a := log[len(log)-1]
	if a.Outcome != RemedySucceeded || a.Action.Kind != RemedyRecoverFault || a.Action.Rank != 5 {
		t.Fatalf("final attempt = %+v", a)
	}
	for _, prev := range log[:len(log)-1] {
		if prev.Outcome != RemedyFailed {
			t.Fatalf("non-final attempt not failed: %+v", prev)
		}
	}
	// Zero post-verification re-detections of the suspect.
	reps, err := svc.QueryReports(ReportQuery{Suspects: []Rank{5}, From: time.Duration(a.ResolvedAt)})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps.Reports) != 0 {
		t.Fatalf("suspect re-detected after verification: %v", reps.Reports)
	}
	// The job resumed: well past the ~7 iterations a permanently dead NIC
	// allows in this horizon.
	if it := job.Job.IterationsDone(); it < 15 {
		t.Fatalf("job did not resume after remediation: %d iterations", it)
	}
	// EventAction flowed through the subscription: each attempt publishes an
	// applied (pending) transition and a resolution, ending in succeeded.
	evs := actions.Drain()
	if len(evs) != 2*len(log) {
		t.Fatalf("%d action events for %d attempts", len(evs), len(log))
	}
	if evs[0].Action.Outcome != RemedyPending || evs[len(evs)-1].Action.Outcome != RemedySucceeded {
		t.Fatalf("action events = %v", evs)
	}
	// The audit log is queryable through the service layer.
	res, err := svc.QueryRemediations(RemediationQuery{Outcomes: []RemedyOutcome{RemedySucceeded}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1 || res.Attempts[0].Job != "llm" {
		t.Fatalf("QueryRemediations = %+v", res)
	}
}

// TestRemediationUnrecoverableEscalates: link-loss black-holes bytes the
// substrate cannot replay, so recover-fault attempts cannot quiet the
// suspect and the loop must exhaust its budget and escalate.
func TestRemediationUnrecoverableEscalates(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	job := svc.MustAddJob("llm", JobOptions{Backend: BackendConfig{RearmDelay: 10 * time.Second}})
	p := SelfHealPolicy()
	p.Rules[0].MaxAttempts = 2
	if err := svc.AttachPolicy("llm", p); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	job.Inject(Fault{Kind: LinkLoss, Rank: 6, At: 15 * time.Second})
	svc.Run(150 * time.Second)

	log := job.RemediationLog()
	if len(log) < 3 {
		t.Fatalf("audit log = %v", log)
	}
	last := log[len(log)-1]
	if last.Outcome != RemedyEscalated || last.Action.Kind != RemedyEscalate || last.Action.Rank != 6 {
		t.Fatalf("last attempt = %+v", last)
	}
	for _, a := range log[:len(log)-1] {
		if a.Outcome != RemedyFailed {
			t.Fatalf("pre-escalation attempt not failed: %+v", a)
		}
	}
}

// TestAttachPolicyErrors: duplicate attach, bad policy, unknown job.
func TestAttachPolicyErrors(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	svc.MustAddJob("a", JobOptions{})
	if err := svc.AttachPolicy("a", RemedyPolicy{}); err == nil {
		t.Fatal("empty policy attached")
	}
	if err := svc.AttachPolicy("nope", SelfHealPolicy()); err == nil {
		t.Fatal("unknown job accepted")
	}
	if err := svc.AttachPolicy("a", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachPolicy("a", SelfHealPolicy()); err == nil {
		t.Fatal("duplicate policy attached")
	}
}

// TestStreamBufferBound: a capped poll-mode stream ages out its oldest
// events instead of growing without bound, and counts the drops.
func TestStreamBufferBound(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	svc.MustAddJob("a", JobOptions{})
	st := svc.Subscribe(EventFilter{Kinds: []EventKind{EventLifecycle}, Buffer: 3})
	for i := 0; i < 10; i++ {
		svc.dispatch(Event{Job: "a", Kind: EventLifecycle, At: time.Duration(i), Phase: PhaseJobStarted})
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	if st.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", st.Dropped())
	}
	// The retained events are the newest three.
	evs := st.Drain()
	if evs[0].At != 7 || evs[2].At != 9 {
		t.Fatalf("kept %v..%v, want 7..9", evs[0].At, evs[2].At)
	}
	// An uncapped stream never drops.
	st2 := svc.Subscribe(EventFilter{})
	for i := 0; i < 5; i++ {
		svc.dispatch(Event{Job: "a", Kind: EventLifecycle, Phase: PhaseJobStopped})
	}
	if st2.Dropped() != 0 || st2.Len() != 5 {
		t.Fatalf("uncapped stream: len %d dropped %d", st2.Len(), st2.Dropped())
	}
}

// TestPaginateClampsNegatives: negative Offset/Limit in the query layer
// clamp instead of panicking or mis-slicing.
func TestPaginateClampsNegatives(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	job := svc.MustAddJob("a", JobOptions{})
	svc.Start()
	job.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(40 * time.Second)

	trs, err := svc.QueryTriggers(TriggerQuery{Offset: -3, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(trs.Triggers) != trs.Total || trs.Total == 0 {
		t.Fatalf("negative offset/limit mis-sliced: %d of %d", len(trs.Triggers), trs.Total)
	}
	reps, err := svc.QueryReports(ReportQuery{Offset: -9, Limit: -9})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps.Reports) != reps.Total || reps.Total == 0 {
		t.Fatalf("negative offset/limit mis-sliced: %d of %d", len(reps.Reports), reps.Total)
	}
	// Offset past the end is an empty page, not a slice panic.
	if page, _ := svc.QueryTriggers(TriggerQuery{Offset: 1 << 30}); len(page.Triggers) != 0 {
		t.Fatalf("past-the-end offset returned %d", len(page.Triggers))
	}
	// The trace path hands Limit to the trace store: negative must mean
	// "no cap" there too.
	all, err := svc.QueryTrace(TraceQuery{Limit: -5})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Records) == 0 || all.Next != nil {
		t.Fatalf("negative trace limit mis-paged: %d records, next %v", len(all.Records), all.Next)
	}
}
