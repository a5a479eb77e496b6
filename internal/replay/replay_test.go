package replay_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/replay"
	"mycroft/internal/scenario"
)

// recordScenario runs a builtin scenario with incident recording and returns
// the first job's artifact bytes.
func recordScenario(t testing.TB, name string, seed int64) []byte {
	t.Helper()
	spec, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("no builtin scenario %q", name)
	}
	dir := t.TempDir()
	res, err := scenario.RunWith(spec, seed, scenario.RunOptions{RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("scenario produced no jobs")
	}
	data, err := os.ReadFile(filepath.Join(dir, res.Jobs[0].JobID+".mycrec"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFaithfulReplayDeterminism is the tentpole regression: a recorded
// seeded incident must replay byte-for-byte — the replayed trigger and
// report streams match the recorded originals exactly, and two independent
// replays of the same artifact never drift from each other.
func TestFaithfulReplayDeterminism(t *testing.T) {
	data := recordScenario(t, "pp-cascade", 7)

	r1, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if !r1.Complete {
		t.Fatal("scenario artifact decoded as incomplete")
	}
	if r1.RecordsIngested < 1000 || r1.Evals == 0 {
		t.Fatalf("replay consumed too little: %d records, %d evals", r1.RecordsIngested, r1.Evals)
	}
	if len(r1.Recorded.Triggers) == 0 || len(r1.Recorded.Reports) == 0 {
		t.Fatalf("recorded outcome empty: %d triggers, %d reports — nothing to verify determinism against",
			len(r1.Recorded.Triggers), len(r1.Recorded.Reports))
	}

	// Recorded vs replayed: the fresh engine must reproduce the original
	// conclusions exactly.
	if d := mycroft.DiffOutcomes(r1.Recorded, r1.Replayed); !d.Zero() {
		t.Fatalf("faithful replay drifted from the recording:\n%s", d.Render())
	}
	// Replay vs replay: no hidden nondeterminism in the replayer itself.
	if !reflect.DeepEqual(r1.Replayed, r2.Replayed) {
		t.Fatal("two replays of the same artifact disagree")
	}
	if d := mycroft.DiffOutcomes(r1.Replayed, r2.Replayed); !d.Zero() {
		t.Fatalf("replay-vs-replay drift:\n%s", d.Render())
	}
}

// TestWhatIfOverridesChangeVerdict: loosening the straggler thresholds on
// the recorded evidence must provably change the RCA outcome — the recorded
// straggler path disappears and the diff reports the drift.
func TestWhatIfOverridesChangeVerdict(t *testing.T) {
	data := recordScenario(t, "gpu-slow", 3)

	faithful, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := mycroft.DiffOutcomes(faithful.Recorded, faithful.Replayed); !d.Zero() {
		t.Fatalf("faithful precondition drifted:\n%s", d.Render())
	}
	if !hasStragglerTrigger(faithful.Replayed) {
		t.Fatalf("gpu-slow recording has no straggler trigger to suppress: %v", faithful.Replayed.Triggers)
	}

	// Loosen every straggler knob far past the recorded signal.
	cfg := faithful.Header.Backend
	cfg.IntervalGrow, cfg.ThroughputDrop = 100, 0.001
	cfg.StragglerLate, cfg.LateCount = time.Hour, 1_000_000
	loose, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{Backend: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if hasStragglerTrigger(loose.Replayed) {
		t.Fatalf("loosened thresholds still fired a straggler trigger: %v", loose.Replayed.Triggers)
	}
	d := mycroft.DiffOutcomes(faithful.Replayed, loose.Replayed)
	if d.Zero() {
		t.Fatal("what-if replay produced an identical outcome — overrides had no effect")
	}
	if len(d.TriggerDrift) == 0 {
		t.Fatalf("expected trigger drift, got:\n%s", d.Render())
	}

	// The evaluation interval and the sample cap are recorded facts.
	for _, change := range []func(*mycroft.BackendConfig){
		func(c *mycroft.BackendConfig) { c.Interval /= 2 },
		func(c *mycroft.BackendConfig) { c.MaxSampled++ },
	} {
		cfg := faithful.Header.Backend
		change(&cfg)
		if _, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{Backend: &cfg}); err == nil {
			t.Fatalf("replay accepted a changed recorded fact: %+v", cfg)
		}
	}
}

func hasStragglerTrigger(o replay.Outcome) bool {
	for _, tr := range o.Triggers {
		if strings.Contains(tr.String(), "straggler") {
			return true
		}
	}
	return false
}

// TestWhatIfShadowPolicy: an alternative policy dry-runs against the
// replayed verdicts and reports what it would have ordered, without
// executing anything.
func TestWhatIfShadowPolicy(t *testing.T) {
	data := recordScenario(t, "pp-cascade", 7)

	p := mycroft.RemedyPolicy{
		Name:  "aggressive",
		Rules: []mycroft.RemedyRule{{Name: "cordon-everything", Action: "isolate-rank"}},
	}
	res, err := mycroft.Replay(bytes.NewReader(data), mycroft.ReplayOptions{Policy: &p})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replayed.Reports) == 0 {
		t.Fatal("no replayed reports to shadow-match")
	}
	if len(res.Shadow) != len(res.Replayed.Reports) {
		t.Fatalf("catch-all policy shadowed %d of %d reports", len(res.Shadow), len(res.Replayed.Reports))
	}
	for _, sh := range res.Shadow {
		if sh.Policy != "aggressive" || sh.Rule != "cordon-everything" {
			t.Fatalf("shadow attribution wrong: %+v", sh)
		}
		rep := res.Replayed.Reports[sh.ReportIndex]
		if sh.Rank != rep.Suspect {
			t.Fatalf("shadow action targets rank %d, report suspects %d", sh.Rank, rep.Suspect)
		}
	}
}
