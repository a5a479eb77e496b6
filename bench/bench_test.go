package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size, untraced and traced, so that an
// API change that breaks the benchmark fails tier-1 instead of the next
// person to measure something. It asserts what the benchmark contract
// asserts: every metric of the mode is present with its unit and a finite
// value, and no operation failed.
func TestSmoke(t *testing.T) {
	exercised := make(map[string]bool)
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := runOne(runConfig{workload: w, seed: 7, seconds: 600 * time.Millisecond, traced: traced, out: out, size: toySize})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, catalog has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					s, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.Name)
					case s.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, s.Unit, d.Unit)
					case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
						t.Errorf("%s = %v", d.Name, s.Value)
					case !traced && s.Value <= 0:
						t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, s.Value)
					}
					if traced && s.N > 0 {
						exercised[d.Name] = true
					}
				}
				// The last line of output must be the contract's object.
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  *string  `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(contractLine(res)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("contract line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
					t.Errorf("contract line incomplete: %s", contractLine(res))
				}
				if traced {
					for _, f := range []string{w + ".spans.json", w + ".cpu.pprof"} {
						if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
							t.Errorf("traced run left no %s (%v)", f, err)
						}
					}
				}
			})
		}
	}
	// A per-layer metric no workload measures is a dead row.
	for _, d := range perLayer {
		if !exercised[d.Name] && !t.Failed() {
			t.Errorf("no workload exercises per-layer metric %s", d.Name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the names and
// units this program prints in step, and checks the limits the benchmark
// contract puts on that file.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || len(spec.Command) == 0 {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads, program has %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].Name || g.Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json says %s (%s), the program prints %s (%s)", kind, i, g.Name, g.Unit, want[i].Name, want[i].Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the acceptance check computes spreads with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, pick float64
	}{
		{5, p99, 0.5},   // too few samples for any tail
		{20, p99, 0.5},  // ten beyond the median is all there is
		{100, p99, 0.9}, // ten beyond p90
		{660, p99, 1 - 10.0/660},
		{1000, p99, 0.99},   // exactly ten beyond p99
		{100000, p99, 0.99}, // never higher than asked
		{660, p90, 0.9},
		{50, p90, 0.8},
	} {
		if got := tailPercentile(c.n, c.want); math.Abs(got-c.pick) > 1e-12 {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.pick)
		}
	}
	if v, p := tail([]float64{1, 2, 3}, p99); v != 2 || p != 0.5 {
		t.Errorf("tail of three samples = %v at %v, want the median", v, p)
	}
}

func TestSelfTimes(t *testing.T) {
	// rep [0,100] holds ingest [10,50] (which holds observe [20,30]) and
	// evaluate [60,90]; a second ingest [200,210] has no parent.
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Name: "ingest", Start: 10, End: 50, Parent: 1},
		{ID: 3, Name: "observe", Start: 20, End: 30, Parent: 2},
		{ID: 4, Name: "evaluate", Start: 60, End: 90, Parent: 1},
		{ID: 5, Name: "ingest", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"rep": 30, "ingest": 40, "observe": 10, "evaluate": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	// Self times of a tree add up to its root's duration.
	if sum := got["rep"] + got["ingest"] - 10 + got["observe"] + got["evaluate"]; sum != 100 {
		t.Errorf("self times under rep sum to %d, want 100", sum)
	}

	l := newSpanLog()
	root := l.begin("a", 0, 1)
	child := l.begin("b", root, 1)
	l.end(child)
	l.end(root)
	if l.count("b") != 1 || l.spans[1].Parent != root || l.spans[0].End < l.spans[1].End {
		t.Errorf("span log recorded %+v", l.spans)
	}
	// A fold accounts for the sum of its calls, not for its extent.
	var slot int
	id := l.open(&slot, "fold", root, 1, time.Now())
	l.add(id, 3*time.Millisecond)
	l.add(l.open(&slot, "fold", root, 1, time.Now()), 2*time.Millisecond)
	if f := l.spans[id-1]; id != slot || f.Calls != 2 || f.took() != int64(5*time.Millisecond) || l.count("fold") != 2 {
		t.Errorf("fold recorded %+v", f)
	}
	if got := selfTimes(l.spans)["fold"]; got != 5*time.Millisecond {
		t.Errorf("self time of the fold = %v, want 5ms", got)
	}
	var off *spanLog
	if id := off.begin("x", 0, 0); id != 0 || off.end(id) != 0 || off.open(&slot, "x", 0, 0, time.Now()) != 0 {
		t.Error("a nil span log must record nothing")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worsening, spread, bound float64
		everyBetter              bool
		want                     string
	}{
		{0.02, 0.03, 0.10, false, "same"},
		{0.12, 0.03, 0.10, false, "worse"},
		{-0.12, 0.03, 0.10, false, "better"},
		{0.30, 0.15, 0.10, false, "unresolved"},
		{-0.30, 0.15, 0.10, true, "better"},
	} {
		if got := verdict(c.worsening, c.spread, c.bound, c.everyBetter); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", c.worsening, c.spread, c.bound, c.everyBetter, got, c.want)
		}
	}
}

// TestCompare drives -compare end to end on two synthetic sets.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"lat_p50_ms","better":"lower","bound":0.1},{"name":"live_heap_mb","better":"lower","bound":0.1}]}`), 0o644)
	set := func(name string, lat, work []float64, failed int) string {
		ws := WorkloadSet{Name: "sim-512", Attempted: 10, Failed: failed}
		for i := range lat {
			ws.Runs = append(ws.Runs, Result{Metrics: map[string]Stat{
				"lat_p50_ms": {Value: lat[i]}, "live_heap_mb": {Value: work[i]},
				"setup_s": {Value: 1}, "allocs_per_work": {Value: 1},
			}})
		}
		ws.Summary = summarize(ws.Runs)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, SetFile{Workloads: []WorkloadSet{ws}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("a.json", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{100, 101, 99, 100, 100}, 0)
	var buf bytes.Buffer
	if code := compareFiles(&buf, spec, base, base); code != 0 || strings.Contains(buf.String(), "worse") {
		t.Errorf("a set against itself: exit %d\n%s", code, buf.String())
	}
	slow := set("b.json", []float64{12, 12.1, 11.9, 12, 12.2}, []float64{100, 101, 99, 100, 100}, 0)
	buf.Reset()
	if code := compareFiles(&buf, spec, base, slow); code != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("20%% slower: exit %d\n%s", code, buf.String())
	}
	failing := set("c.json", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{100, 101, 99, 100, 100}, 1)
	buf.Reset()
	if code := compareFiles(&buf, spec, base, failing); code != 1 {
		t.Errorf("more failures: exit %d\n%s", code, buf.String())
	}
}
