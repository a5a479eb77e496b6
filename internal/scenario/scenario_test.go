package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/remedy"
	"mycroft/internal/replay"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// TestBuiltinsPass runs every shipped scenario at its default seed and
// checks (a) its own assertions pass and (b) faults.Judge finds every
// single-fault job's injection diagnosed — the library is the regression
// suite for the whole detection pipeline. The same run (c) is recorded, and
// each job's artifact digest, record count and engine event count must equal
// testdata/artifact_digests.golden.json: the artifact has no wall-clock
// field, so it is a pure function of the seed and pins every batch boundary,
// evaluation instant and event of the substrate. (d) Each rendered Result
// must equal its section of testdata/results.golden, which pins the detect,
// rca and accuracy lines the scoring code computes; it was recorded before
// that code moved onto faults.Judge. (e) Replaying each artifact must
// reproduce the triggers and the tracepoint reports it recorded exactly.
func TestBuiltinsPass(t *testing.T) {
	builtins := Builtins()
	if len(builtins) < 12 {
		t.Fatalf("library has %d scenarios, want >= 12", len(builtins))
	}
	golden := readArtifactDigests(t)
	if len(golden) != len(builtins) {
		t.Errorf("golden pins %d builtins, library has %d", len(golden), len(builtins))
	}
	results := readResults(t)
	var rendered strings.Builder
	for _, spec := range builtins {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := RunWith(spec, 0, RunOptions{RecordDir: dir})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Pass {
				t.Fatalf("scenario failed:\n%s", res.Render())
			}
			if got, want := artifactDigests(t, dir, res), golden[spec.Name]; !reflect.DeepEqual(got, want) {
				t.Errorf("artifact digests differ from the golden:\n got %+v\nwant %+v", got, want)
			}
			replayParity(t, dir, res)
			got := res.Render()
			fmt.Fprintf(&rendered, "### %s\n%s", spec.Name, got)
			if !*updateResults && got != results[spec.Name] {
				t.Errorf("rendered result differs from %s:\n got\n%s\nwant\n%s", resultsGolden, got, results[spec.Name])
			}
			// Recovered faults may legitimately outrun diagnosis (the backend
			// is muted or the fault healed first); a hard single fault must
			// always be diagnosed.
			for _, j := range res.Jobs {
				if len(j.verdicts) == 1 && j.verdicts[0].Diagnosed == nil {
					t.Errorf("job %d: %v not diagnosed:\n%s", j.Index, j.injected[0], got)
				}
			}
		})
	}
	if *updateResults {
		if err := os.WriteFile(resultsGolden, []byte(rendered.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

var updateResults = flag.Bool("update-results", false, "rewrite testdata/results.golden")

const resultsGolden = "testdata/results.golden"

// readResults loads builtin → rendered Result from the "### name" sections.
func readResults(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	if *updateResults {
		return out
	}
	raw, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range strings.Split(string(raw), "### ")[1:] {
		name, body, _ := strings.Cut(section, "\n")
		out[name] = body
	}
	return out
}

// artifactDigest pins one recorded job: the artifact's bytes, and apart from
// them what it carries (Stream), so a change to the encoding alone moves
// SHA256 and nothing else.
type artifactDigest struct {
	SHA256     string `json:"sha256"`
	Stream     string `json:"stream"`
	Records    uint64 `json:"records"`
	Dispatched uint64 `json:"dispatched"`
}

const artifactDigestsGolden = "testdata/artifact_digests.golden.json"

// readArtifactDigests loads builtin → job → digest.
func readArtifactDigests(t *testing.T) map[string]map[string]artifactDigest {
	t.Helper()
	raw, err := os.ReadFile(artifactDigestsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]map[string]artifactDigest
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: %v", artifactDigestsGolden, err)
	}
	return out
}

// artifactDigests digests the artifacts a recorded run left in dir.
func artifactDigests(t *testing.T, dir string, res *Result) map[string]artifactDigest {
	t.Helper()
	out := make(map[string]artifactDigest, len(res.Jobs))
	for _, j := range res.Jobs {
		raw, err := os.ReadFile(filepath.Join(dir, j.JobID+".mycrec"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		out[j.JobID] = artifactDigest{
			SHA256: hex.EncodeToString(sum[:]), Stream: streamDigest(t, raw),
			Records: j.Records, Dispatched: j.dispatched,
		}
	}
	return out
}

// streamDigest is a sha256 over an artifact's decoded entries, whatever
// their encoding: each entry's kind and time, then a batch's record count
// and each record's MarshalBinary, or an event's JSON, and last the footer.
func streamDigest(t *testing.T, raw []byte) string {
	t.Helper()
	dec, err := replay.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{byte(e.Kind)})
		put(uint64(e.At))
		switch e.Kind {
		case replay.EntryBatch:
			put(uint64(len(e.Batch)))
			for i := range e.Batch {
				b, err := e.Batch[i].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
		case replay.EntryEvent:
			b, err := json.Marshal(e.Event)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	f, ok := dec.Footer()
	if !ok {
		t.Fatal("artifact has no footer")
	}
	put(uint64(f.EndNs), f.Records, f.Evals, f.Events)
	return hex.EncodeToString(h.Sum(nil))
}

// replayParity replays every artifact a recorded run left in dir: each must
// reproduce the triggers and reports it recorded exactly, bar the reports the
// log and perf channels concluded. An artifact records trace evidence only,
// not the log lines and iteration timings those channels read, so a replay
// cannot reach their verdicts (corroborated-cascade, log-only-nic-down and
// silent-straggler-perf publish some). A replay delivers through the same
// evidence fusion a hosted job does, so every report whose recorded evidence
// is tracepoint-only must also carry the recorded Evidence and Confidence.
func replayParity(t *testing.T, dir string, res *Result) {
	t.Helper()
	for _, j := range res.Jobs {
		f, err := os.Open(filepath.Join(dir, j.JobID+".mycrec"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mycroft.Replay(f, mycroft.ReplayOptions{})
		f.Close()
		if err != nil {
			t.Fatalf("%s: replay: %v", j.JobID, err)
		}
		if !rep.Complete || rep.RecordsIngested != j.Records {
			t.Errorf("%s: replayed %d records (complete %v), the job recorded %d", j.JobID, rep.RecordsIngested, rep.Complete, j.Records)
		}
		rep.Recorded.Reports = slices.DeleteFunc(rep.Recorded.Reports, func(r core.Report) bool {
			return r.Via == core.ViaLogTemplate || r.Via == core.ViaPerfEnvelope
		})
		if d := mycroft.DiffOutcomes(rep.Recorded, rep.Replayed); !d.Zero() {
			t.Errorf("%s: replay drifted from the recording:\n%s", j.JobID, d.Render())
			continue
		}
		for i, want := range rep.Recorded.Reports {
			if slices.ContainsFunc(want.Evidence, func(e core.Evidence) bool { return e.Channel != core.ModalityTracepoint }) {
				continue
			}
			got := rep.Replayed.Reports[i]
			if !reflect.DeepEqual(got.Evidence, want.Evidence) || got.Confidence != want.Confidence {
				t.Errorf("%s: report %d fused to %v (confidence %v), recorded %v (confidence %v)",
					j.JobID, i, got.Evidence, got.Confidence, want.Evidence, want.Confidence)
			}
		}
	}
}

// TestBuiltinsCoverAllKinds: the library exercises the full fault catalog.
func TestBuiltinsCoverAllKinds(t *testing.T) {
	covered := map[faults.Kind]bool{}
	for _, s := range Builtins() {
		for _, k := range s.FaultKinds() {
			covered[k] = true
		}
	}
	for _, k := range faults.All() {
		if !covered[k] {
			t.Errorf("no builtin scenario covers fault kind %q", k)
		}
	}
}

// TestExampleSpecValidates: scenarios/example.json is the file-format
// documentation README points at, and no builtin is loaded from a file — so
// this is the only place the shipped example is held to Parse and Validate.
func TestExampleSpecValidates(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatalf("scenarios/example.json: %v", err)
	}
	if spec.Name != "example" || len(spec.Events) == 0 || len(spec.Assertions) == 0 {
		t.Errorf("example parsed to name %q, %d events, %d assertions", spec.Name, len(spec.Events), len(spec.Assertions))
	}
}

// TestLoad pins how a command-line argument resolves: a builtin name, a spec
// file, a path-like argument that cannot be read (the read error, never a
// builtin lookup) and an unknown name.
func TestLoad(t *testing.T) {
	if spec, err := Load("nic-down"); err != nil || spec.Name != "nic-down" {
		t.Errorf("builtin: spec %q, err %v", spec.Name, err)
	}
	if spec, err := Load(filepath.Join("..", "..", "scenarios", "example.json")); err != nil || spec.Name != "example" {
		t.Errorf("file: spec %q, err %v", spec.Name, err)
	}
	if _, err := Load("./missing.json"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err %v, want a not-exist error", err)
	}
	if _, err := Load("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "no file or builtin scenario") {
		t.Errorf("unknown name: err %v", err)
	}
}

// TestRunDeterministic: same spec and seed render byte-identical reports —
// the property every stress campaign leans on.
func TestRunDeterministic(t *testing.T) {
	spec, ok := Lookup("fleet-chaos")
	if !ok {
		t.Fatal("fleet-chaos builtin missing")
	}
	a := MustRun(spec, 3).Render()
	b := MustRun(spec, 3).Render()
	if a != b {
		t.Fatalf("same seed diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
	c := MustRun(spec, 4).Render()
	if a == c {
		t.Fatal("different seeds produced identical chaos runs (rng not wired through)")
	}
}

func TestChaosPlanDeterministic(t *testing.T) {
	c := Chaos{Faults: 3, Cascade: 0.5, Recover: true}
	p1 := c.plan(rand.New(rand.NewSource(9)), 16, 90*time.Second)
	p2 := c.plan(rand.New(rand.NewSource(9)), 16, 90*time.Second)
	if p1.inject.String() != p2.inject.String() || p1.recover.String() != p2.recover.String() {
		t.Fatalf("chaos plan not deterministic:\n%v\n%v", p1.inject, p2.inject)
	}
	if len(p1.inject) < 3 {
		t.Fatalf("wanted >= 3 faults, got %v", p1.inject)
	}
	for _, s := range p1.inject {
		if int(s.Rank) < 0 || int(s.Rank) >= 16 {
			t.Errorf("rank %d out of world", s.Rank)
		}
	}
	for _, r := range p1.recover {
		if !faults.Recoverable(r.Kind) {
			t.Errorf("recovery scheduled for unrecoverable %v", r.Kind)
		}
	}
}

// TestChaosDropsPastHorizonFaults: min-gap spacing must not produce phantom
// injections scheduled beyond the run horizon (they would never fire yet
// would dilute accuracy and mislead assertions).
func TestChaosDropsPastHorizonFaults(t *testing.T) {
	c := Chaos{Faults: 8, Start: Dur(15 * time.Second), End: Dur(20 * time.Second), MinGap: Dur(10 * time.Second)}
	runFor := 60 * time.Second
	p := c.plan(rand.New(rand.NewSource(3)), 8, runFor)
	if len(p.inject) == 0 {
		t.Fatal("everything dropped")
	}
	if len(p.inject) >= 8 {
		t.Fatalf("8 faults with 10s gaps cannot fit before 60s, got %d", len(p.inject))
	}
	for _, s := range p.inject {
		if s.At >= runFor {
			t.Errorf("injection %v scheduled past the %v horizon", s, runFor)
		}
	}
}

func TestFleetGenWeightedSampling(t *testing.T) {
	f := Fleet{Gen: &FleetGen{
		Jobs: 40,
		Templates: []Template{
			{Name: "a", Weight: 3, Topo: topo.Small()},
			{Name: "b", Weight: 1, Topo: topo.Config{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 2, DP: 4}},
		},
	}}
	jobs := resolveFleet(f, 11)
	if len(jobs) != 40 {
		t.Fatalf("got %d jobs, want 40", len(jobs))
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Template]++
	}
	if counts["a"]+counts["b"] != 40 || counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("bad template sampling: %v", counts)
	}
	if counts["a"] <= counts["b"] {
		t.Errorf("weight-3 template drew %d <= weight-1's %d", counts["a"], counts["b"])
	}
	again := resolveFleet(f, 11)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("fleet generation not deterministic at job %d", i)
		}
	}
}

// TestSpecJSONRoundTrip: every builtin survives marshal → Parse unchanged.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range Builtins() {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", spec.Name, err)
		}
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", spec.Name, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: round trip changed the spec:\n%s\n%s", spec.Name, data, data2)
		}
	}
}

func TestDurParsing(t *testing.T) {
	var d Dur
	if err := json.Unmarshal([]byte(`"1m30s"`), &d); err != nil || d.D() != 90*time.Second {
		t.Fatalf(`"1m30s" -> %v, %v`, d, err)
	}
	if err := json.Unmarshal([]byte(`5000000000`), &d); err != nil || d.D() != 5*time.Second {
		t.Fatalf("5e9 ns -> %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	inject := func(kind faults.Kind, rank int) []Event {
		return []Event{{At: Dur(time.Second), Action: ActInject, Fault: &Fault{Kind: kind, Rank: rank}}}
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing name", Spec{}, "missing name"},
		{"bad topo", Spec{Name: "x", Fleet: Fleet{Topo: topo.Config{Nodes: 2, GPUsPerNode: 4, TP: 3, PP: 2, DP: 2}}}, "does not cover"},
		{"unknown kind", Spec{Name: "x", Events: inject("warp-core-breach", 0)}, "unknown fault kind"},
		{"rank out of range", Spec{Name: "x", Events: inject(faults.NICDown, 99)}, "out of range"},
		{"unknown action", Spec{Name: "x", Events: []Event{{Action: "explode"}}}, "unknown action"},
		{"recover unrecoverable", Spec{Name: "x", Events: []Event{{Action: ActRecover, Fault: &Fault{Kind: faults.ProxyCrash}}}}, "not recoverable"},
		{"inject without fault", Spec{Name: "x", Events: []Event{{Action: ActInject}}}, "needs a fault"},
		{"checkpoint without phase", Spec{Name: "x", Events: inject(faults.CheckpointStall, 0)}, "checkpoint_every"},
		{"bad assertion kind", Spec{Name: "x", Assertions: []Assertion{{Kind: "vibes"}}}, "unknown kind"},
		{"assertion event range", Spec{Name: "x", Events: inject(faults.NICDown, 0), Assertions: []Assertion{{Kind: AssertDetected, Event: 5}}}, "out of range"},
		{"min without value", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertMinReports}}}, "min > 0"},
		{"gen without templates", Spec{Name: "x", Fleet: Fleet{Gen: &FleetGen{Jobs: 2}}}, "needs templates"},
		{"gen bad weight", Spec{Name: "x", Fleet: Fleet{Gen: &FleetGen{Jobs: 2, Templates: []Template{{Name: "t", Topo: topo.Small()}}}}}, "weight"},
		{"chaos bad kind", Spec{Name: "x", Chaos: &Chaos{Kinds: []WeightedKind{{Kind: "nope", Weight: 1}}}}, "unknown"},
		{"chaos bad cascade", Spec{Name: "x", Chaos: &Chaos{Cascade: 2}}, "cascade"},
		{"negative severity", Spec{Name: "x", Events: []Event{{Action: ActInject, Fault: &Fault{Kind: faults.NICDegrade, Rank: 0, Severity: -0.5}}}}, "negative severity"},
		{"negative fault duration", Spec{Name: "x", Events: []Event{{Action: ActInject, Fault: &Fault{Kind: faults.NICFlap, Rank: 0, Duration: Dur(-time.Second)}}}}, "negative duration"},
		{"chaos checkpoint without phase", Spec{Name: "x", Chaos: &Chaos{Kinds: []WeightedKind{{Kind: faults.CheckpointStall, Weight: 1}}}}, "checkpoint_every"},
		{"chaos end before default start", Spec{Name: "x", Chaos: &Chaos{End: Dur(10 * time.Second)}}, "does not exceed start"},
		{"chaos window past horizon", Spec{Name: "x", RunFor: Dur(30 * time.Second), Chaos: &Chaos{Start: Dur(100 * time.Second), End: Dur(101 * time.Second)}}, "beyond run_for"},
		{"chaos end past horizon", Spec{Name: "x", RunFor: Dur(60 * time.Second), Chaos: &Chaos{End: Dur(120 * time.Second)}}, "beyond run_for"},
		{"negative fleet override", Spec{Name: "x", Fleet: Fleet{UploadLatency: Dur(-time.Second)}}, "negative fleet"},
		{"negative max sampled", Spec{Name: "x", Fleet: Fleet{MaxSampled: -1}}, "negative fleet"},
		{"negative chaos spacing", Spec{Name: "x", Chaos: &Chaos{MinGap: Dur(-5 * time.Second)}}, "negative spacing"},
		{"event past horizon", Spec{Name: "x", RunFor: Dur(60 * time.Second),
			Events: []Event{{At: Dur(70 * time.Second), Action: ActInject, Fault: &Fault{Kind: faults.NICDown, Rank: 1}}}}, "beyond run_for"},
		{"negative assertion within", Spec{Name: "x", Events: inject(faults.NICDown, 0), Assertions: []Assertion{{Kind: AssertDetected, Within: Dur(-10 * time.Second)}}}, "negative within"},
		{"suspect rank out of range", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertSuspect, Rank: 99}}}, "suspect rank 99 out of range"},
		{"chain without min", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertChain}}}, "min > 0"},
		{"victims without bound", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertVictims}}}, "min > 0 or victims"},
		{"victim rank out of range", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertVictims, Victims: []int{99}}}}, "victim rank 99 out of range"},
		{"assertion targets cascade-only injection", Spec{Name: "x", Chaos: &Chaos{Faults: 1, Cascade: 0.5},
			Assertions: []Assertion{{Kind: AssertDetected, Event: 1}}}, "out of range"},
		{"assertion targets horizon-dropped injection", Spec{Name: "x", RunFor: Dur(60 * time.Second),
			Chaos:      &Chaos{Faults: 8, Start: Dur(15 * time.Second), End: Dur(20 * time.Second), MinGap: Dur(10 * time.Second)},
			Assertions: []Assertion{{Kind: AssertDetected, Event: 7}}}, "out of range"},
		{"negative rearm", Spec{Name: "x", Fleet: Fleet{Rearm: Dur(-time.Second)}}, "negative fleet"},
		{"remediate without rules", Spec{Name: "x", Remediate: []Remediate{{}}}, "no rules"},
		{"remediate unknown action", Spec{Name: "x", Remediate: []Remediate{{Rules: []RemedyRule{{Action: "percussive-maintenance"}}}}}, "unknown action"},
		{"remediate job out of range", Spec{Name: "x", Remediate: []Remediate{{Job: 3, Rules: []RemedyRule{{Action: remedy.ActRecoverFault}}}}}, "out of range"},
		{"remediate duplicate job", Spec{Name: "x", Remediate: []Remediate{
			{Rules: []RemedyRule{{Action: remedy.ActRecoverFault}}},
			{Rules: []RemedyRule{{Action: remedy.ActEscalate}}},
		}}, "already has a policy"},
		{"remediation none with min", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertRemediation, None: true, Min: 2}}}, "both none and min"},
		{"channel none with min", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertChannel, Channel: "log", None: true, Min: 1}}}, "both none and min"},
		{"modality confidence out of range", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertModality, Channel: "log", MinConfidence: 1.5}}}, "outside [0, 1]"},
		{"modality unknown outcome", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertModality, Channel: "log", Outcome: "vibes"}}}, "unknown fusion outcome"},
		{"logs without text", Spec{Name: "x", Logs: []Logs{{At: Dur(time.Second), Rank: 0}}}, "missing text"},
		{"logs rank out of range", Spec{Name: "x", Logs: []Logs{{At: Dur(time.Second), Rank: 99, Text: "boom"}}}, "out of range"},
		{"logs past horizon", Spec{Name: "x", RunFor: Dur(30 * time.Second), Logs: []Logs{{At: Dur(40 * time.Second), Rank: 0, Text: "late"}}}, "beyond run_for"},
		{"timings zero period", Spec{Name: "x", Timings: []Timings{{Start: Dur(time.Second), Count: 5}}}, "period must be > 0"},
		{"timings zero count", Spec{Name: "x", Timings: []Timings{{Start: Dur(time.Second), Period: Dur(time.Second)}}}, "count must be > 0"},
		{"timings sub-unit factor", Spec{Name: "x", Timings: []Timings{{Start: Dur(time.Second), Period: Dur(time.Second), Count: 5, Rank: 1, Factor: 0.5}}}, "factor must be >= 1"},
		{"timings straggler rank out of range", Spec{Name: "x", Timings: []Timings{{Start: Dur(time.Second), Period: Dur(time.Second), Count: 5, Rank: 99, Factor: 2}}}, "out of range"},
		{"remediation unknown action", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertRemediation, Action: "warp"}}}, "unknown action"},
		{"remediation unknown outcome", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertRemediation, Outcomes: []remedy.Outcome{"shrugged"}}}}, "unknown outcome"},
		{"recovered rank out of range", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertRecovered, Rank: 99}}}, "out of range"},
		{"remediation rank out of range", Spec{Name: "x", Assertions: []Assertion{{Kind: AssertRemediation, Rank: 99}}}, "out of range"},
		{"assertion event unreachable for its job", Spec{
			Name:  "x",
			Fleet: Fleet{Gen: &FleetGen{Jobs: 2, Templates: []Template{{Name: "t", Weight: 1, Topo: topo.Small()}}}},
			Events: []Event{
				{At: Dur(time.Second), Action: ActInject, Job: 0, Fault: &Fault{Kind: faults.NICDown, Rank: 0}},
				{At: Dur(2 * time.Second), Action: ActInject, Job: 1, Fault: &Fault{Kind: faults.NICDown, Rank: 0}},
			},
			Assertions: []Assertion{{Kind: AssertDetected, Job: 0, Event: 1}},
		}, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("validated: %+v", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if _, err := Run(c.spec, 1); err == nil {
				t.Fatal("Run accepted an invalid spec")
			}
		})
	}
}

// TestCollectorStopEvent: killing the trace agents freezes cloud-DB ingest
// — record counts must stop growing once the agents are down.
func TestCollectorStopEvent(t *testing.T) {
	base := Spec{Name: "baseline", RunFor: Dur(40 * time.Second)}
	healthy := MustRun(base, 1).Jobs[0].Records
	stopped := Spec{
		Name:   "collector-outage",
		RunFor: Dur(40 * time.Second),
		Events: []Event{{At: Dur(10 * time.Second), Action: ActCollectorStop}},
	}
	got := MustRun(stopped, 1).Jobs[0].Records
	if got == 0 {
		t.Fatal("no records before the agents stopped")
	}
	if got >= healthy {
		t.Fatalf("ingest did not freeze: %d records with agents stopped at 10s vs %d healthy", got, healthy)
	}
}

// TestBackendStopEvent: stopping the analysis backend during the fault
// window suppresses detection — the operational-change actions really act.
func TestBackendStopEvent(t *testing.T) {
	spec := Spec{
		Name:   "backend-outage",
		RunFor: Dur(60 * time.Second),
		Events: []Event{
			{At: Dur(10 * time.Second), Action: ActBackendStop},
			{At: Dur(15 * time.Second), Action: ActInject, Fault: &Fault{Kind: faults.NICDown, Rank: 5}},
		},
	}
	res := MustRun(spec, 1)
	if n := len(res.Jobs[0].triggers); n != 0 {
		t.Fatalf("stopped backend still fired %d triggers", n)
	}
	// Restarting it mid-run restores detection.
	spec.Events = append(spec.Events, Event{At: Dur(30 * time.Second), Action: ActBackendStart})
	res = MustRun(spec, 1)
	if n := len(res.Jobs[0].triggers); n == 0 {
		t.Fatal("restarted backend never fired")
	}
}

// TestChainVictimAssertionEvaluation pins the expect_chain/expect_victims
// failure messages against a fabricated job result.
func TestChainVictimAssertionEvaluation(t *testing.T) {
	j := &JobResult{reports: []core.Report{{
		Chain:   []core.Hop{{Comm: 1, Suspect: 2, Via: core.ViaMinOp}},
		Victims: []topo.Rank{3},
	}}}
	if msg := checkJob(Assertion{Kind: AssertChain, Min: 1}, j); msg != "" {
		t.Fatalf("1-hop chain rejected: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertChain, Min: 2}, j); !strings.Contains(msg, "chain") {
		t.Fatalf("chain failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertVictims, Min: 1, Victims: []int{3}}, j); msg != "" {
		t.Fatalf("matching victims rejected: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertVictims, Min: 2}, j); !strings.Contains(msg, "victims") {
		t.Fatalf("victims count failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertVictims, Victims: []int{4}}, j); !strings.Contains(msg, "lacks rank 4") {
		t.Fatalf("victims membership failure message: %q", msg)
	}
	empty := &JobResult{}
	if msg := checkJob(Assertion{Kind: AssertVictims, Min: 1}, empty); !strings.Contains(msg, "no report") {
		t.Fatalf("empty job failure message: %q", msg)
	}
}

// TestRemediationAssertionEvaluation pins expect_remediation and
// expect_recovered semantics against a fabricated audit log.
func TestRemediationAssertionEvaluation(t *testing.T) {
	at := func(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }
	j := &JobResult{
		remediations: []remedy.Attempt{
			{Action: remedy.Action{Kind: remedy.ActRecoverFault, Rank: 5}, Outcome: remedy.OutcomeFailed, ResolvedAt: at(30)},
			{Action: remedy.Action{Kind: remedy.ActRecoverFault, Rank: 5}, Outcome: remedy.OutcomeSucceeded, ResolvedAt: at(50)},
		},
		triggers: []core.Trigger{{Rank: 5, At: at(25)}},
		reports:  []core.Report{{Suspect: 5, AnalyzedAt: at(30)}},
	}
	if msg := checkJob(Assertion{Kind: AssertRemediation, Rank: -1}, j); msg != "" {
		t.Fatalf("any-rank assertion failed: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertRemediation, Outcomes: []remedy.Outcome{remedy.OutcomeSucceeded}, Rank: 5}, j); msg != "" {
		t.Fatalf("succeeded-attempt assertion failed: %s", msg)
	}
	// Rank is exact: 0 names rank 0, which has no attempts here.
	if msg := checkJob(Assertion{Kind: AssertRemediation, Rank: 0}, j); msg == "" {
		t.Fatal("rank-0 assertion matched attempts on rank 5")
	}
	if msg := checkJob(Assertion{Kind: AssertRemediation, Rank: -1, Min: 3}, j); !strings.Contains(msg, "want >= 3") {
		t.Fatalf("min failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertRemediation, Rank: -1, Action: remedy.ActIsolateRank}, j); msg == "" {
		t.Fatal("action filter matched nothing yet passed")
	}
	if msg := checkJob(Assertion{Kind: AssertRemediation, Rank: -1, None: true}, j); !strings.Contains(msg, "want none") {
		t.Fatalf("none failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertRemediation, Rank: -1, None: true, Action: remedy.ActRestartJob}, j); msg != "" {
		t.Fatalf("none with unmatched filter failed: %s", msg)
	}
	// Recovered: the pre-success trigger/report must not count against the
	// quiet window; a post-success re-detection must.
	if msg := checkJob(Assertion{Kind: AssertRecovered, Rank: 5}, j); msg != "" {
		t.Fatalf("recovered assertion failed: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertRecovered, Rank: 3}, j); !strings.Contains(msg, "no succeeded remediation") {
		t.Fatalf("wrong-rank failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertRecovered, Rank: 0}, j); !strings.Contains(msg, "no succeeded remediation") {
		t.Fatalf("rank 0 must mean rank 0, not any: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertRecovered, Rank: -1}, j); msg != "" {
		t.Fatalf("any-rank recovered assertion failed: %s", msg)
	}
	j.triggers = append(j.triggers, core.Trigger{Rank: 5, At: at(60)})
	if msg := checkJob(Assertion{Kind: AssertRecovered, Rank: 5}, j); !strings.Contains(msg, "re-triggered") {
		t.Fatalf("post-verification trigger not caught: %q", msg)
	}
	j.triggers = j.triggers[:1]
	j.reports = append(j.reports, core.Report{Suspect: 5, AnalyzedAt: at(61)})
	if msg := checkJob(Assertion{Kind: AssertRecovered, Rank: 5}, j); !strings.Contains(msg, "re-detected") {
		t.Fatalf("post-verification report not caught: %q", msg)
	}
}

// TestUnknownModalityTypedError: an expect_channel/expect_modality
// assertion naming a channel outside the modality vocabulary fails
// validation with the typed UnknownModalityError, whose message (and
// fields) name the valid set — the error `mycroft-scenario validate -all`
// surfaces for a typo'd spec.
func TestUnknownModalityTypedError(t *testing.T) {
	cases := []struct {
		name string
		a    Assertion
		bad  string
	}{
		{"expect_channel typo", Assertion{Kind: AssertChannel, Channel: "logz"}, "logz"},
		{"expect_channel empty", Assertion{Kind: AssertChannel}, ""},
		{"expect_modality typo", Assertion{Kind: AssertModality, Channel: "telepathy"}, "telepathy"},
		{"expect_modality wrong case", Assertion{Kind: AssertModality, Channel: "Tracepoint"}, "Tracepoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{Name: "x", Assertions: []Assertion{c.a}}
			err := spec.Validate()
			if err == nil {
				t.Fatalf("unknown channel %q validated", c.bad)
			}
			var ume *UnknownModalityError
			if !errors.As(err, &ume) {
				t.Fatalf("error %T is not an UnknownModalityError: %v", err, err)
			}
			if ume.Got != c.bad {
				t.Errorf("Got = %q, want %q", ume.Got, c.bad)
			}
			if len(ume.Valid) != len(core.Modalities()) {
				t.Errorf("Valid = %v, want the full modality set %v", ume.Valid, core.Modalities())
			}
			for _, m := range core.Modalities() {
				if !strings.Contains(err.Error(), string(m)) {
					t.Errorf("message %q does not name valid channel %q", err, m)
				}
			}
		})
	}
	// The whole vocabulary is accepted on both kinds.
	for _, m := range core.Modalities() {
		spec := Spec{Name: "x", Assertions: []Assertion{
			{Kind: AssertChannel, Channel: string(m), None: true},
			{Kind: AssertModality, Channel: string(m)},
		}}
		if err := spec.Validate(); err != nil {
			t.Errorf("valid channel %q rejected: %v", m, err)
		}
	}
}

// TestChannelAssertionEvaluation pins expect_channel / expect_modality /
// no-records semantics against a fabricated job result.
func TestChannelAssertionEvaluation(t *testing.T) {
	j := &JobResult{
		Records: 0,
		channels: mycroft.ChannelStatsResult{Channels: []mycroft.ChannelInfo{
			{Channel: "tracepoint", Ingested: 0, Anomalies: 0, Reports: 0},
			{Channel: "log", Ingested: 40, Anomalies: 3, Reports: 1},
			{Channel: "perf", Ingested: 120, Anomalies: 0, Reports: 0},
		}},
		reports: []core.Report{{
			Suspect: 5, Category: core.CatNetworkSendPath, Confidence: 0.9,
			Evidence: []core.Evidence{
				{Channel: core.ModalityLog, Rank: 5},
				{Channel: core.ModalityTracepoint, Rank: 5},
				{Channel: core.ModalityPerf, Rank: 2, Conflict: true},
			},
		}},
	}
	if msg := checkJob(Assertion{Kind: AssertChannel, Channel: "log", Min: 3, Reports: 1}, j); msg != "" {
		t.Fatalf("log channel expectation failed: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertChannel, Channel: "log", Min: 4}, j); !strings.Contains(msg, "want >= 4") {
		t.Fatalf("anomaly-min failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertChannel, Channel: "log", Reports: 2}, j); !strings.Contains(msg, "want >= 2") {
		t.Fatalf("report-min failure message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertChannel, Channel: "tracepoint", None: true}, j); msg != "" {
		t.Fatalf("quiet tracepoint channel rejected: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertChannel, Channel: "log", None: true}, j); !strings.Contains(msg, "not quiet") {
		t.Fatalf("noisy-channel none failure message: %q", msg)
	}
	// Perf ingested samples but found nothing: quiet means no findings, not
	// no traffic.
	if msg := checkJob(Assertion{Kind: AssertChannel, Channel: "perf", None: true}, j); msg != "" {
		t.Fatalf("perf channel with ingest but no findings rejected: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertModality, Channel: "log", MinConfidence: 0.8}, j); msg != "" {
		t.Fatalf("log-evidence expectation failed: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertModality, Channel: "log", MinConfidence: 0.95}, j); !strings.Contains(msg, "below") {
		t.Fatalf("confidence failure message: %q", msg)
	}
	// Conflicting evidence does not satisfy the modality expectation.
	if msg := checkJob(Assertion{Kind: AssertModality, Channel: "perf"}, j); !strings.Contains(msg, "no report") {
		t.Fatalf("conflicted perf evidence satisfied expect_modality: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertModality, Channel: "tracepoint", Outcome: core.FusionConflicted}, j); msg != "" {
		t.Fatalf("outcome filter failed: %s", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertModality, Channel: "tracepoint", Outcome: core.FusionSingle}, j); !strings.Contains(msg, "outcome") {
		t.Fatalf("outcome mismatch message: %q", msg)
	}
	if msg := checkJob(Assertion{Kind: AssertNoRecords}, j); msg != "" {
		t.Fatalf("zero-record job rejected: %s", msg)
	}
	j.Records = 7
	if msg := checkJob(Assertion{Kind: AssertNoRecords}, j); !strings.Contains(msg, "tracepoint-free") {
		t.Fatalf("record-count failure message: %q", msg)
	}
}

// TestRemediateJSONRoundTrip: the remediate stanza survives the file
// format.
func TestRemediateJSONRoundTrip(t *testing.T) {
	spec, ok := Lookup("self-heal-nic-down")
	if !ok {
		t.Fatal("no self-heal-nic-down builtin")
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Remediate) != 1 || len(back.Remediate[0].Rules) != 2 {
		t.Fatalf("remediate stanza lost: %+v", back.Remediate)
	}
	if back.Remediate[0].Rules[0].VerifyWindow != Dur(15*time.Second) {
		t.Fatalf("verify window lost: %+v", back.Remediate[0].Rules[0])
	}
	res, err := Run(back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("round-tripped scenario failed:\n%s", res.Render())
	}
}
