package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mycroft"
	"mycroft/internal/scenario"
)

// whatIf replays data under the -whatif file holding content, the way
// runReplay does.
func whatIf(t *testing.T, data []byte, content string) (*mycroft.ReplayResult, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "whatif.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(data)
	opts, _, err := replayOptions(src, path)
	if err != nil {
		return nil, err
	}
	return mycroft.Replay(src, opts)
}

// TestWhatIfFile pins what a -whatif file may say. Every threshold the
// artifact header records is overridable, and a key the file names counts as
// set even when its value is the recorded one; the evaluation interval and the
// sampled-rank cap are recorded facts and are refused, as are unknown keys, a
// policy rule's retry budget and an unknown action.
func TestWhatIfFile(t *testing.T) {
	spec, ok := scenario.Lookup("pp-cascade")
	if !ok {
		t.Fatal("no builtin scenario pp-cascade")
	}
	dir := t.TempDir()
	res, err := scenario.RunWith(spec, 7, scenario.RunOptions{RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, res.Jobs[0].JobID+".mycrec"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, file string
		// refused is a substring of the error; "" means the file is accepted.
		refused string
		// drift: an accepted file changes the replayed outcome.
		drift bool
		// shadow: an accepted file's policy shadows every replayed report.
		shadow bool
	}{
		{name: "window kept", file: `{"window_ns": 15000000000}`},
		// The recorded 15-s window survives a file that does not name it.
		{name: "chase depth kept", file: `{"chase_depth": 4}`},
		{name: "window widened", file: `{"window_ns": 30000000000}`, drift: true},
		{name: "shallow chase", file: `{"chase_depth": 1}`, drift: true},
		{name: "loose stragglers", file: `{"interval_grow": 100, "throughput_drop": 0.001,
			"straggler_late_ns": 3600000000000, "late_count": 1000000}`, drift: true},
		{name: "policy", file: `{"policy": {"name": "aggressive",
			"rules": [{"name": "cordon", "categories": ["gpu-hang"], "action": "isolate-rank"},
			          {"vias": ["min-op"], "min_chain": 1, "action": "isolate-rank"},
			          {"action": "isolate-rank"}]}}`, shadow: true},
		{name: "interval", file: `{"interval_ns": 1}`, refused: "interval_ns"},
		{name: "interval kept", file: `{"interval_ns": 1000000000}`, refused: "interval_ns"},
		{name: "max sampled", file: `{"max_sampled": 3}`, refused: "max_sampled"},
		{name: "unknown key", file: `{"window": 1}`, refused: `unknown field "window"`},
		{name: "rule budget", file: `{"policy": {"rules": [{"action": "isolate-rank", "backoff": 1}]}}`, refused: `unknown field "backoff"`},
		{name: "unknown action", file: `{"policy": {"rules": [{"action": "defenestrate"}]}}`, refused: "unknown action"},
		{name: "no rules", file: `{"policy": {"rules": []}}`, refused: "no rules"},
		{name: "empty", file: `{}`, refused: "sets no overrides and no policy"},
		{name: "null window", file: `{"window_ns": null}`, refused: "sets no overrides and no policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := whatIf(t, data, tc.file)
			if tc.refused != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("want an error containing %q, got %v", tc.refused, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if drift := !mycroft.DiffOutcomes(res.Recorded, res.Replayed).Zero(); drift != tc.drift {
				t.Fatalf("drift = %v, want %v", drift, tc.drift)
			}
			if shadow := len(res.Shadow) > 0 && len(res.Shadow) == len(res.Replayed.Reports); shadow != tc.shadow {
				t.Fatalf("%d shadow action(s) for %d report(s)", len(res.Shadow), len(res.Replayed.Reports))
			}
		})
	}
}
