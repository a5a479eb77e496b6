package mycroft_test

import (
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/scenario"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// TestIncidentSpanTreeCoversPipeline is the tracing acceptance criterion:
// one incident in the pp-cascade builtin must yield a single causal span
// tree covering ingest → detect → RCA → publish → remediate, with the
// consecutive stage durations summing exactly to the end-to-end
// trigger→verified latency. pp-cascade carries no Remediate block, so the
// self-healing policy is attached here the way an operator would.
func TestIncidentSpanTreeCoversPipeline(t *testing.T) {
	spec, ok := scenario.Lookup("pp-cascade")
	if !ok {
		t.Fatal("no pp-cascade builtin")
	}
	p, err := scenario.PrepareSubset(spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := p.Service
	job := p.Handles[0].ID
	if err := svc.AttachPolicy(job, mycroft.SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	p.Start()
	svc.Run(p.Horizon())

	res, err := svc.QuerySpans(mycroft.SpanQuery{Job: job, Incident: "trigger-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("no spans for incident trigger-1")
	}

	byStage := make(map[string][]mycroft.Span)
	for _, s := range res.Spans {
		byStage[s.Stage] = append(byStage[s.Stage], s)
	}
	if n := len(byStage[mycroft.StageIncident]); n != 1 {
		t.Fatalf("incident trigger-1 has %d root spans, want exactly 1", n)
	}
	root := byStage[mycroft.StageIncident][0]
	if root.Parent != 0 {
		t.Errorf("incident root has parent %d, want none", root.Parent)
	}
	if root.End == 0 {
		t.Fatal("incident root never closed: remediation did not verify within the horizon")
	}

	// Every pipeline stage must appear in the tree, parented under the root.
	one := func(stage string) mycroft.Span {
		t.Helper()
		spans := byStage[stage]
		if len(spans) == 0 {
			t.Fatalf("incident tree has no %q span (stages present: %v)", stage, stages(byStage))
		}
		s := spans[0]
		if s.Parent != root.ID {
			t.Errorf("%s span #%d parented under #%d, want root #%d", stage, s.ID, s.Parent, root.ID)
		}
		return s
	}
	upload := one(mycroft.StageUpload)
	ingest := one(mycroft.StageIngest)
	detect := one(mycroft.StageDetect)
	rca := one(mycroft.StageRCA)
	publish := one(mycroft.StagePublish)
	one(mycroft.StageDeliver)
	apply := one(mycroft.StageApply)
	verify := one(mycroft.StageVerify)

	// The adopted ingest batch is the data the detector fired on: it must
	// precede (or coincide with) the trigger, and detection is downstream of
	// analysis stages in virtual-time order.
	if upload.Start > root.Start || ingest.Start > root.Start {
		t.Errorf("adopted batch after the trigger: upload %v, ingest %v, trigger %v",
			upload.Start, ingest.Start, root.Start)
	}
	if detect.Start != root.Start {
		t.Errorf("detect at %v, want trigger instant %v", detect.Start, root.Start)
	}
	if publish.Start != rca.End {
		t.Errorf("publish at %v, want RCA completion %v", publish.Start, rca.End)
	}

	// Per-stage latency attribution: the contiguous stages partition the
	// incident exactly — RCA, then the remedy backoff/apply, then the verify
	// window, with no gaps and no overlap.
	if rca.Start != root.Start || apply.Start != rca.End || verify.Start != apply.End || verify.End != root.End {
		t.Errorf("stage timeline not contiguous: root [%v %v] rca [%v %v] apply [%v %v] verify [%v %v]",
			root.Start, root.End, rca.Start, rca.End, apply.Start, apply.End, verify.Start, verify.End)
	}
	if sum := rca.Dur() + apply.Dur() + verify.Dur(); sum != root.Dur() {
		t.Errorf("stage durations sum to %v, want end-to-end %v (rca %v + apply %v + verify %v)",
			sum, root.Dur(), rca.Dur(), apply.Dur(), verify.Dur())
	}

	// End-to-end anchors: the root is trigger→verified, matching the audit log.
	rem, err := svc.QueryRemediations(mycroft.RemediationQuery{Jobs: []mycroft.JobID{job}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rem.Attempts) == 0 {
		t.Fatal("no remediation attempts recorded")
	}
	last := rem.Attempts[len(rem.Attempts)-1]
	if root.End.String() != last.ResolvedAt.String() {
		t.Errorf("root closes at %v, audit log resolves at %v", root.End, last.ResolvedAt)
	}
	if verify.Detail != "succeeded" {
		t.Errorf("verify span outcome %q, want succeeded", verify.Detail)
	}
}

// TestOverlappingRCASpansEndAtOwnVerdict: with the re-arm mute off, a
// healthy 64-rank TP8 PP4 job raises straggler triggers closer together than
// StragglerSettle, so their analyses overlap. Each rca span opens at its
// trigger and must end at the AnalyzedAt of that trigger's own report, not
// at the verdict of whichever analysis finished first.
func TestOverlappingRCASpansEndAtOwnVerdict(t *testing.T) {
	cfg := train.JobConfig(topo.Config{Nodes: 8, GPUsPerNode: 8, TP: 8, PP: 4, DP: 2}, train.ComputeHeavy)
	opts := mycroft.JobOptions{Train: &cfg}
	opts.Backend.RearmDelay = time.Nanosecond
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	h := svc.MustAddJob("", opts)
	svc.Start()
	svc.Run(60 * time.Second)

	verdictAt := make(map[time.Duration]time.Duration)
	for _, rep := range h.Reports() {
		verdictAt[time.Duration(rep.Trigger.At)] = time.Duration(rep.AnalyzedAt)
	}
	res, err := svc.QuerySpans(mycroft.SpanQuery{Job: h.ID, Stage: mycroft.StageRCA})
	if err != nil {
		t.Fatal(err)
	}
	overlaps, closed := 0, 0
	for i, s := range res.Spans {
		if i > 0 && (res.Spans[i-1].Open() || res.Spans[i-1].End > s.Start) {
			overlaps++
		}
		if s.Open() {
			continue
		}
		closed++
		want, ok := verdictAt[time.Duration(s.Start)]
		if !ok {
			t.Errorf("rca span #%d (%s) starts at %v, where no reported trigger fired", s.ID, s.Cause, time.Duration(s.Start))
			continue
		}
		if time.Duration(s.End) != want {
			t.Errorf("rca span #%d (%s) from %v ends at %v, want its verdict at %v",
				s.ID, s.Cause, time.Duration(s.Start), time.Duration(s.End), want)
		}
	}
	if overlaps == 0 || closed == 0 {
		t.Fatalf("%d rca spans, %d closed, %d overlapping: the job no longer overlaps its analyses", len(res.Spans), closed, overlaps)
	}
	t.Logf("%d triggers, %d rca spans, %d closed, %d overlapping the previous one",
		len(h.Triggers()), len(res.Spans), closed, overlaps)
}

func stages(m map[string][]mycroft.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
