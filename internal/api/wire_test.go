package api

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mycroft/internal/core"
	"mycroft/internal/depgraph"
	"mycroft/internal/otrace"
	"mycroft/internal/remedy"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden wire-format files")

// Fixed domain fixtures: every enum and every field exercised, including a
// multi-hop Chain and a Victims blast radius.

func fixtureTrigger() core.Trigger {
	return core.Trigger{
		Kind: core.TriggerFailure, Rank: 5, IP: "10.0.0.1",
		At: 17_500_000_000, CommID: 3, Reason: "stalled mid-op: state logs but no completion in window",
	}
}

func fixtureReport() core.Report {
	return core.Report{
		Trigger: fixtureTrigger(), Suspect: 5, SuspectIP: "10.0.0.1", CommID: 7,
		Category: core.CatNetworkSendPath, Via: core.ViaMinData,
		AnalyzedAt: 19_000_000_000, Details: "WRs stuck at NIC; 0/32 chunks drained",
		Chain: []core.Hop{
			{Comm: 3, Suspect: 2, Via: core.ViaMinOp, Edge: depgraph.EdgeNested},
			{Comm: 7, Suspect: 5, Via: core.ViaMinData},
		},
		Victims: []topo.Rank{1, 3, 9},
		// The fused attribution: tracepoint and log agree, perf points away.
		Confidence: 0.9,
		Evidence: []core.Evidence{
			{Channel: core.ModalityTracepoint, Rank: 5, Category: core.CatNetworkSendPath,
				Weight: 0.75, At: 19_000_000_000, Detail: "min-data"},
			{Channel: core.ModalityLog, Rank: 5, Category: core.CatNetworkSendPath,
				Weight: 0.6, Score: 0.88, At: 18_000_000_000,
				Detail: "NET/IB rdma qp <*> timeout on port <*>"},
			{Channel: core.ModalityPerf, Rank: 2, Category: core.CatComputeStraggler,
				Weight: 0.5, Score: 1.42, At: 17_000_000_000, Detail: "straggler", Conflict: true},
		},
	}
}

func fixtureLogAnomaly() core.LogAnomaly {
	return core.LogAnomaly{
		Channel: core.ModalityLog, Rank: 5, Ranks: []topo.Rank{5, 7},
		Template: "NET/IB rdma qp <*> timeout on port <*>", Level: "error",
		Count: 6, Fleet: 8, Score: 0.88, Category: core.CatNetworkSendPath,
		At: 18_000_000_000,
	}
}

func fixtureChannelStats() ChannelStatsResult {
	return ChannelStatsResult{
		Job: "llm-70b",
		Channels: []ChannelInfo{
			{Channel: core.ModalityTracepoint, Ingested: 7516, Anomalies: 2, Reports: 1},
			{Channel: core.ModalityLog, Ingested: 70, Anomalies: 4, Reports: 1, Templates: 2},
			{Channel: core.ModalityPerf, Ingested: 38},
		},
		Fusion: FusionInfo{
			Window:         60 * time.Second,
			Outcomes:       map[string]uint64{"corroborated": 1, "single": 1},
			LastOutcome:    "corroborated",
			LastConfidence: 0.9,
		},
	}
}

func fixtureRecord() trace.Record {
	return trace.Record{
		Kind: trace.KindState, Time: 18_200_000_000,
		IP: "10.0.0.1", CommID: 7, Rank: 5, GPUID: 1, Channel: 1, QPID: 9,
		Op: trace.OpAllReduce, OpSeq: 42, MsgSize: 1 << 20,
		Start: 18_000_000_000, End: 0,
		TotalChunks: 32, GPUReady: 20, RDMATransmitted: 16, RDMADone: 16, StuckNs: 1_216_000_000,
	}
}

func fixtureAttempt() remedy.Attempt {
	return remedy.Attempt{
		ID: 0, Policy: "self-heal", Rule: "recover",
		Action:     remedy.Action{Kind: remedy.ActRecoverFault, Rank: 5, Comm: 7, Category: core.CatNetworkSendPath},
		Try:        1,
		ReportedAt: 19_000_000_000, AppliedAt: 19_000_000_000, ResolvedAt: 34_000_000_000,
		Outcome: remedy.OutcomeSucceeded, Detail: "quiet for 15s after action",
	}
}

func fixtureSpan() otrace.Span {
	return otrace.Span{
		ID: 893, Parent: 891, Job: "llm-70b", Stage: otrace.StageRCA,
		Cause: "trigger-1", Peer: "p2", Detail: "suspect rank 5 (gpu-hang): chain=3 victims=7",
		Start: 21_000_000_000, End: 27_000_000_000,
		WallStart: 1_700_000_000_123_456_789, WallEnd: 1_700_000_000_123_500_000,
	}
}

// golden marshals v with stable indentation and compares it (or rewrites
// it, under -update) against testdata/<name>.golden.json.
func golden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/api -run Golden -update`): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire format drifted from %s — field renames break remote clients.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenWireFormat pins the JSON encoding of every payload the /v1
// protocol carries, marshalling the domain value itself: there is no other
// form. A failing diff here means the wire format changed: either bump
// api.Version or revert the rename. The two goldens whose types live in the
// root package (health, spans_response) are held by its TestGoldenWireFormat.
func TestGoldenWireFormat(t *testing.T) {
	trigger, report, attempt, anomaly := fixtureTrigger(), fixtureReport(), fixtureAttempt(), fixtureLogAnomaly()
	golden(t, "trigger", trigger)
	golden(t, "report", report)
	golden(t, "record", fixtureRecord())
	golden(t, "attempt", attempt)
	golden(t, "log_anomaly", anomaly)
	golden(t, "channels_response", fixtureChannelStats())
	golden(t, "span", fixtureSpan())
	for name, e := range fixtureEvents() {
		golden(t, "event_"+name, e)
	}
}

// fixtureEvents is one event of each kind, keyed by its golden's name.
func fixtureEvents() map[string]Event {
	trigger, report, attempt, anomaly := fixtureTrigger(), fixtureReport(), fixtureAttempt(), fixtureLogAnomaly()
	return map[string]Event{
		"trigger":     {Job: "llm-70b", Kind: core.EventTrigger, At: 17_500_000_000, Trigger: &trigger},
		"report":      {Job: "llm-70b", Kind: core.EventReport, At: 19_000_000_000, Report: &report},
		"lifecycle":   {Job: "llm-70b", Kind: core.EventLifecycle, At: 0, Phase: "job-started"},
		"action":      {Job: "llm-70b", Kind: core.EventAction, At: 19_000_000_000, Action: &attempt},
		"health":      {Job: "llm-70b", Kind: core.EventHealth, At: 42_000_000_000, Health: &HealthChange{From: HealthHealthy, To: HealthStale, LastIngest: 30 * time.Second, Reason: "no ingest for 12s (threshold 10s)"}},
		"log_anomaly": {Job: "llm-70b", Kind: core.EventLogAnomaly, At: 18_000_000_000, LogAnomaly: &anomaly},
	}
}

// TestWireRoundTrip proves the encoding is lossless: value → JSON → value
// reproduces the original exactly.
func TestWireRoundTrip(t *testing.T) {
	t.Run("trigger", func(t *testing.T) { roundTrip(t, fixtureTrigger()) })
	t.Run("report", func(t *testing.T) { roundTrip(t, fixtureReport()) })
	t.Run("record", func(t *testing.T) { roundTrip(t, fixtureRecord()) })
	t.Run("attempt", func(t *testing.T) { roundTrip(t, fixtureAttempt()) })
	t.Run("log_anomaly", func(t *testing.T) { roundTrip(t, fixtureLogAnomaly()) })
	t.Run("evidence", func(t *testing.T) { roundTrip(t, fixtureReport().Evidence[2]) })
	t.Run("span", func(t *testing.T) { roundTrip(t, fixtureSpan()) })
	t.Run("edge", func(t *testing.T) {
		roundTrip(t, depgraph.Edge{
			From: depgraph.Node{Rank: 2, Comm: 3, Seq: 41},
			To:   depgraph.Node{Rank: 5, Comm: 7, Seq: 40},
			Kind: depgraph.EdgePipeline,
		})
	})
	t.Run("channels", func(t *testing.T) { roundTrip(t, fixtureChannelStats()) })
	for name, e := range fixtureEvents() {
		t.Run("event_"+name, func(t *testing.T) { roundTrip(t, e) })
	}
}

func roundTrip[T any](t *testing.T, want T) {
	t.Helper()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got T
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip lost data:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseRejectsUnknownEnums keeps the strict decode surfaces strict: a
// daemon speaking a future enum value must fail loudly, not alias to zero —
// as a bare value, and wherever a message carries one.
func TestParseRejectsUnknownEnums(t *testing.T) {
	decodes := func(into any, doc string) error { return json.Unmarshal([]byte(doc), into) }
	for _, c := range []struct {
		enum         string
		into         func() any
		known        []string
		unknown, doc string // doc holds the unknown name inside a message
		message      func() any
	}{
		{"event kind", func() any { return new(core.EventKind) },
			[]string{"trigger", "report", "lifecycle", "action", "health", "log-anomaly"}, "telemetry",
			`{"job":"j","kind":"telemetry","at_ns":1}`, func() any { return new(Event) }},
		{"health state", func() any { return new(HealthState) },
			[]string{"stopped", "healthy", "degraded", "stale"}, "zombie",
			`{"kind":"health","health":{"from":"healthy","to":"zombie"}}`, func() any { return new(Event) }},
		{"trigger kind", func() any { return new(core.TriggerKind) },
			[]string{"failure", "straggler"}, "hiccup",
			`{"trigger":{"kind":"hiccup"},"suspect":5}`, func() any { return new(core.Report) }},
		{"record kind", func() any { return new(trace.Kind) },
			[]string{"completion", "state"}, "summary",
			`{"kind":"summary","op":"AllReduce"}`, func() any { return new(trace.Record) }},
		{"op", func() any { return new(trace.OpKind) },
			[]string{"none", "AllReduce", "AllGather", "ReduceScatter", "Broadcast", "SendRecv", "AllToAll", "Barrier"}, "AllDance",
			`{"kind":"state","op":"AllDance"}`, func() any { return new(trace.Record) }},
		{"edge kind", func() any { return new(depgraph.EdgeKind) },
			[]string{"barrier-wait", "pipeline-order", "nested-comm", ""}, "wormhole",
			`{"trigger":{"kind":"failure"},"chain":[{"comm":1,"suspect":2,"via":"min-op","edge":"wormhole"}]}`, func() any { return new(core.Report) }},
		{"action kind", func() any { return new(remedy.ActionKind) },
			[]string{"recover-fault", "isolate-rank", "rebuild-communicator", "restart-job", "escalate"}, "reboot-universe",
			`{"action":{"kind":"reboot-universe"},"outcome":"pending"}`, func() any { return new(remedy.Attempt) }},
		{"outcome", func() any { return new(remedy.Outcome) },
			[]string{"pending", "succeeded", "failed", "escalated"}, "shrug",
			`{"action":{"kind":"escalate"},"outcome":"shrug"}`, func() any { return new(remedy.Attempt) }},
		{"channel", func() any { return new(core.Modality) },
			[]string{"tracepoint", "log", "perf"}, "telepathy",
			`{"job":"j","channels":[{"channel":"telepathy"}]}`, func() any { return new(ChannelStatsResult) }},
	} {
		for _, name := range c.known {
			v := c.into()
			if err := decodes(v, strconv.Quote(name)); err != nil {
				t.Errorf("%s %q refused: %v", c.enum, name, err)
			} else if back, err := json.Marshal(v); err != nil || string(back) != strconv.Quote(name) {
				t.Errorf("%s %q re-encodes as %s (%v)", c.enum, name, back, err)
			}
		}
		if err := decodes(c.into(), strconv.Quote(c.unknown)); err == nil || !strings.Contains(err.Error(), c.unknown) {
			t.Errorf("%s %q accepted (%v)", c.enum, c.unknown, err)
		}
		if err := decodes(c.message(), c.doc); err == nil || !strings.Contains(err.Error(), c.unknown) {
			t.Errorf("%s %q accepted inside %s (%v)", c.enum, c.unknown, c.doc, err)
		}
	}
	// Kind names are the String names, whatever the constants are numbered.
	if got, _ := json.Marshal([]core.EventKind{core.EventHealth, core.EventLogAnomaly}); string(got) != `["health","log-anomaly"]` {
		t.Errorf("event kinds encode as %s", got)
	}
}
