package mycroft

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mycroft/internal/train"
)

// tracelessService builds the tracepoint-free acceptance run: a job whose
// trace instrumentation is disabled outright (not one 112-byte record will
// ever be emitted), the self-healing policy armed, and a genuine nic-down
// injected — the only way the service can see it is through the channels.
func tracelessService(t *testing.T) (*Service, *JobHandle) {
	t.Helper()
	svc := NewService(ServiceOptions{Seed: 1})
	tc := train.JobConfig(TopoConfig{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2}, train.ComputeHeavy)
	tc.DisableTracing = true
	h, err := svc.AddJob("llm", JobOptions{Train: &tc})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachPolicy("llm", SelfHealPolicy()); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	return svc, h
}

// driveTraceless advances the clock one second at a time, feeding the
// synthetic log stream through the transport under test: fleet-wide info
// chatter (which must NOT trip the detector) and, once the fault has bitten,
// a burst of error lines on the faulted rank. Both transports run this exact
// schedule, so their end states must agree.
func driveTraceless(t *testing.T, c Client, advance func(time.Duration)) {
	t.Helper()
	for now := time.Duration(0); now < 75*time.Second; now += time.Second {
		advance(time.Second)
		cur := now + time.Second
		if cur >= 5*time.Second && cur <= 40*time.Second && cur%(5*time.Second) == 0 {
			lines := make([]LogLine, 0, 8)
			for r := 0; r < 8; r++ {
				lines = append(lines, LogLine{Rank: Rank(r), Level: "info",
					Text: fmt.Sprintf("iteration %d loss 2.31 lr 0.0003", int(cur/time.Second))})
			}
			if _, err := c.IngestLogs("llm", lines); err != nil {
				t.Fatal(err)
			}
		}
		if cur >= 20*time.Second && cur <= 30*time.Second && cur%(2*time.Second) == 0 {
			if _, err := c.IngestLogs("llm", []LogLine{{Rank: 5, Level: "error",
				Text: "NET/IB rdma qp 17 timeout on port 1, completion queue stalled"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertTracelessOutcome checks the acceptance criterion through whichever
// Client drove the run: zero trace records reached the store, yet the job
// carries a correct log-channel verdict AND a succeeded recovery of the
// injected fault.
func assertTracelessOutcome(t *testing.T, c Client) {
	t.Helper()
	jobs, err := c.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs.Jobs) != 1 || jobs.Jobs[0].Records != 0 {
		t.Fatalf("want a sole job with 0 trace records, got %+v", jobs.Jobs)
	}

	reps, err := c.QueryReports(ReportQuery{})
	if err != nil {
		t.Fatal(err)
	}
	verdict := false
	for _, jr := range reps.Reports {
		rep := jr.Report
		if rep.Via == ViaLogTemplate && rep.Category == CatNetworkSendPath && rep.Suspect == 5 {
			verdict = true
		}
	}
	if !verdict {
		t.Fatalf("no log-channel verdict naming rank 5 as %s (%d reports)", CatNetworkSendPath, len(reps.Reports))
	}

	rem, err := c.QueryRemediations(RemediationQuery{})
	if err != nil {
		t.Fatal(err)
	}
	healed := false
	for _, a := range rem.Attempts {
		if a.Action.Kind == RemedyRecoverFault && a.Action.Rank == 5 && a.Outcome == RemedySucceeded {
			healed = true
		}
	}
	if !healed {
		t.Fatalf("no succeeded recover-fault on rank 5 (%d attempts: %v)", len(rem.Attempts), rem.Attempts)
	}

	cs, err := c.ChannelStats("llm")
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range cs.Channels {
		switch ch.Channel {
		case ModalityTracepoint:
			if ch.Ingested != 0 || ch.Anomalies != 0 || ch.Reports != 0 {
				t.Errorf("tracepoint channel not quiet: %+v", ch)
			}
		case ModalityLog:
			if ch.Anomalies < 1 || ch.Reports < 1 {
				t.Errorf("log channel carried no finding: %+v", ch)
			}
		}
	}
}

// TestTracepointFreeDiagnosisInProcess: the diagnosis loop closes with zero
// tracepoint coverage through the in-process Service.
func TestTracepointFreeDiagnosisInProcess(t *testing.T) {
	svc, _ := tracelessService(t)
	driveTraceless(t, svc, func(d time.Duration) { svc.Run(d) })
	assertTracelessOutcome(t, svc)
}

// TestTracepointFreeDiagnosisRemote: the same loop closes over HTTP — logs
// ingested by POST, verdict and audit log read back through the wire — and
// the wire's channel counters match the server's in-process answer exactly.
func TestTracepointFreeDiagnosisRemote(t *testing.T) {
	svc, _ := tracelessService(t)
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	driveTraceless(t, rc, func(d time.Duration) { srv.Advance(d) })
	assertTracelessOutcome(t, rc)

	want, err := svc.ChannelStats("llm")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.ChannelStats("llm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Channels) != len(want.Channels) || got.Fusion.Window != want.Fusion.Window ||
		got.Fusion.LastOutcome != want.Fusion.LastOutcome || got.Fusion.LastConfidence != want.Fusion.LastConfidence {
		t.Fatalf("channel stats differ over wire:\n got  %+v\n want %+v", got, want)
	}
	for i := range want.Channels {
		if got.Channels[i] != want.Channels[i] {
			t.Errorf("channel %d differs over wire: %+v vs %+v", i, got.Channels[i], want.Channels[i])
		}
	}
	for k, v := range want.Fusion.Outcomes {
		if got.Fusion.Outcomes[k] != v {
			t.Errorf("fusion outcome %q: wire says %d, in-process %d", k, got.Fusion.Outcomes[k], v)
		}
	}
}

// driveCorroborated runs the corroborated-cascade schedule against a traced
// job: the nic-down fires the tracepoint pipeline while error lines on the
// same rank feed the log channel, so the fused verdict must carry both.
func driveCorroborated(t *testing.T, c Client, advance func(time.Duration)) {
	t.Helper()
	for now := time.Duration(0); now < 75*time.Second; now += time.Second {
		advance(time.Second)
		cur := now + time.Second
		if cur >= 16*time.Second && cur <= 26*time.Second && cur%(2*time.Second) == 0 {
			if _, err := c.IngestLogs("trace", []LogLine{{Rank: 5, Level: "error",
				Text: "NET/IB rnic 5 completion error on qp 9"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// findCorroborated returns the run's corroborated verdict, failing unless its
// fused confidence is strictly above what either channel could claim alone
// (the single-channel priors top out at 0.75).
func findCorroborated(t *testing.T, c Client) Report {
	t.Helper()
	reps, err := c.QueryReports(ReportQuery{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range reps.Reports {
		rep := jr.Report
		if rep.FusionOutcome() != FusionCorroborated {
			continue
		}
		if !rep.HasEvidence(ModalityTracepoint) || !rep.HasEvidence(ModalityLog) {
			t.Fatalf("corroborated verdict missing a channel's evidence: %+v", rep.Evidence)
		}
		if rep.Confidence <= 0.75 {
			t.Fatalf("corroborated confidence %.3f not above the best single-channel prior 0.75", rep.Confidence)
		}
		return rep
	}
	t.Fatalf("no corroborated verdict among %d reports", len(reps.Reports))
	return Report{}
}

// TestCorroboratedFusionConfidence pins the fusion acceptance criterion on
// both transports: when the tracepoint and log channels agree, the fused
// confidence exceeds either channel alone, and the wire reproduces the
// in-process verdict bit for bit.
func TestCorroboratedFusionConfidence(t *testing.T) {
	local := faultedService(t)
	driveCorroborated(t, local, func(d time.Duration) { local.Run(d) })
	want := findCorroborated(t, local)

	remoteSvc := faultedService(t)
	srv := NewServer(remoteSvc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	driveCorroborated(t, rc, func(d time.Duration) { srv.Advance(d) })
	got := findCorroborated(t, rc)

	if got.Confidence != want.Confidence || got.FusionOutcome() != want.FusionOutcome() ||
		got.Suspect != want.Suspect || len(got.Evidence) != len(want.Evidence) {
		t.Fatalf("corroborated verdict differs over wire:\n got  %+v\n want %+v", got, want)
	}
}

// TestLogIngestKeepsTracelessJobAlive is the heartbeat regression for
// tracepoint-free jobs: channel ingest alone must bump the watermark the
// health ladder reads, so a job shipping only logs never reads degraded or
// stale despite a permanently empty trace store.
func TestLogIngestKeepsTracelessJobAlive(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	tc := train.JobConfig(TopoConfig{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2}, train.ComputeHeavy)
	tc.DisableTracing = true
	h, err := svc.AddJob("llm", JobOptions{Train: &tc})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	st := svc.Subscribe(EventFilter{Kinds: []EventKind{EventHealth}})
	// Ship a line every 2s — inside the degraded threshold (staleAfter/2 = 5s)
	// so the watermark never ages out between batches.
	for i := 0; i < 30; i++ {
		svc.Run(2 * time.Second)
		// Round-robin the source rank so the chatter reads fleet-wide, the
		// shape the template detector must NOT flag.
		if _, err := svc.IngestLogs("llm", []LogLine{{Rank: Rank(i % 8), Level: "info",
			Text: fmt.Sprintf("iteration %d loss 2.31 lr 0.0003", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Health(); got != HealthHealthy {
		t.Fatalf("health after 60s of log-only ingest = %v, want healthy", got)
	}
	if st.Len() != 0 {
		t.Fatalf("log-fed traceless job emitted %d health transitions: %v", st.Len(), st.Drain())
	}
	if recs := h.StoreStats().Ingested; recs != 0 {
		t.Fatalf("%d trace records ingested, want 0 with tracing disabled", recs)
	}
}

// TestIngestRejectsUnknownRank: a channel ingest batch naming a rank the job
// does not have is refused whole, on both transports, before any state
// changes. Each hostile batch leads with items that are valid on their own —
// three error lines on one rank would trip the template detector, the samples
// would be enveloped — so a check that ran after the fold, or per item, would
// show up in the counters, the heartbeat or the anomaly stream.
func TestIngestRejectsUnknownRank(t *testing.T) {
	svc, h := tracelessService(t)
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(5 * time.Second)
	anomalies := svc.Subscribe(EventFilter{Kinds: []EventKind{EventLogAnomaly}})
	before, err := svc.ChannelStats("llm")
	if err != nil {
		t.Fatal(err)
	}
	heartbeat := h.lastIngest
	srv.Advance(time.Second) // so a bumped heartbeat reads a later time than the one saved

	world := Rank(h.WorldSize())
	for _, bad := range []Rank{-1, world} {
		lines := []LogLine{
			{Rank: 5, Level: "error", Text: "NET/IB rdma qp 17 timeout on port 1"},
			{Rank: 5, Level: "error", Text: "NET/IB rdma qp 18 timeout on port 1"},
			{Rank: 5, Level: "error", Text: "NET/IB rdma qp 19 timeout on port 1"},
			{Rank: bad, Level: "error", Text: "NET/IB rdma qp 20 timeout on port 1"},
		}
		samples := []IterationSample{{Rank: 0, Iter: 1, At: time.Second}, {Rank: bad, Iter: 1, At: time.Second}}
		for name, c := range map[string]Client{"in-process": svc, "remote": rc} {
			_, logErr := c.IngestLogs("llm", lines)
			_, perfErr := c.IngestTimings("llm", samples)
			want := fmt.Sprintf("job %q: %v %d", "llm", ErrInvalidRank, bad)
			for call, err := range map[string]error{"IngestLogs": logErr, "IngestTimings": perfErr} {
				if err == nil || !strings.Contains(err.Error(), want) || (c == Client(svc) && !errors.Is(err, ErrInvalidRank)) {
					t.Errorf("%s %s of rank %d in a %d-rank job: error %v, want ErrInvalidRank saying %q", name, call, bad, world, err, want)
				}
			}
		}
	}

	after, err := svc.ChannelStats("llm")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", after) {
		t.Errorf("refused batches changed ChannelStats:\n before %+v\n after  %+v", before, after)
	}
	if h.lastIngest != heartbeat {
		t.Errorf("refused batches bumped the heartbeat: %v → %v", heartbeat, h.lastIngest)
	}
	if n := anomalies.Len(); n != 0 {
		t.Errorf("refused batches published %d log anomalies: %v", n, anomalies.Drain())
	}
}

// TestIngestOverWireMatchesInProcess: IngestLogs and IngestTimings answer
// over Dial and over DialCluster exactly what they answer in process, on
// three identical jobs fed the same batches in the same order: the same
// result for every batch taken (escaped, non-ASCII and invalid UTF-8 texts,
// every level, empty and nil batches) and the same error for every batch
// refused (a rank outside the world, a negative at_ns or iter). A time ahead
// of the job's clock is taken.
func TestIngestOverWireMatchesInProcess(t *testing.T) {
	local, _ := tracelessService(t)
	clients := map[string]Client{"in-process": local}
	advance := []func(time.Duration){func(d time.Duration) { local.Run(d) }}
	for _, rc := range remoteClients {
		svc, _ := tracelessService(t)
		srv := NewServer(svc)
		clients[rc.name] = serveDaemon(t, srv, rc.clustered)
		advance = append(advance, srv.Advance)
	}

	errorLines := []LogLine{
		{Rank: 5, Level: "error", Text: `NET/IB "qp 17" timeout <port 1> & retry`},
		{Rank: 5, Level: "error", Text: "NET/IB qp 18 timeout — port 1 ✗"},
		{Rank: 5, Level: "error", Text: "NET/IB qp 19 timeout \xff port 1"},
		{Rank: 5, Level: "fatal", Text: "NET/IB qp 20 timeout on port 1"},
	}
	type batch struct {
		lines   []LogLine
		samples []IterationSample
		refused bool
	}
	batches := []batch{
		{lines: logBatch(64, 8)},
		{lines: errorLines},
		{lines: []LogLine{}},
		{lines: nil},
		{lines: []LogLine{{Rank: 1, At: time.Hour, Level: "warn", Text: "ahead of the clock"}}},
		{lines: append(logBatch(3, 8), LogLine{Rank: 2, At: -1, Text: "before time"}), refused: true},
		{lines: append(logBatch(3, 8), LogLine{Rank: 8, Text: "outside the world"}), refused: true},
		{samples: []IterationSample{{Rank: 0, Iter: 1, At: time.Second}, {Rank: 1, Iter: 1}}},
		{samples: []IterationSample{{Rank: 0, Iter: 2, At: time.Hour}}},
		{samples: []IterationSample{{Rank: 0, Iter: 3}, {Rank: 1, Iter: -1}}, refused: true},
		{samples: []IterationSample{{Rank: 0, Iter: 3}, {Rank: 1, Iter: 3, At: -time.Second}}, refused: true},
		{samples: []IterationSample{{Rank: -1, Iter: 3}}, refused: true},
		{samples: []IterationSample{}},
	}
	for i, b := range batches {
		for _, step := range advance {
			step(time.Second)
		}
		var want string
		for _, name := range []string{"in-process", "Dial", "DialCluster"} {
			var res IngestResult
			var err error
			if b.samples != nil {
				res, err = clients[name].IngestTimings("llm", b.samples)
			} else {
				res, err = clients[name].IngestLogs("llm", b.lines)
			}
			if (err != nil) != b.refused {
				t.Fatalf("batch %d over %s: error %v, want refused %v", i, name, err, b.refused)
			}
			got := fmt.Sprintf("%+v %v", res, err)
			if name == "in-process" {
				want = got
				if b.refused && !errors.Is(err, ErrInvalidRank) && !errors.Is(err, ErrNegativeStamp) {
					t.Errorf("batch %d refused with %v, want ErrInvalidRank or ErrNegativeStamp", i, err)
				}
			} else if got != want {
				t.Errorf("batch %d over %s answered\n%s\nin process\n%s", i, name, got, want)
			}
		}
	}
}
