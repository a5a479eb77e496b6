package experiments

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/verdict_matrix.golden")

// matrixTopo is the job every verdict-matrix cell runs: TP8 PP4 DP2, 64 ranks.
var matrixTopo = topo.Config{Nodes: 8, GPUsPerNode: 8, TP: 8, PP: 4, DP: 2}

// matrixPositions are the twelve places a matrix fault lands: the first,
// middle and last pipeline stage × the first and last DP replica × the
// first and last TP rank.
func matrixPositions(tc topo.Config) []topo.Coord {
	var out []topo.Coord
	for _, pp := range []int{0, tc.PP / 2, tc.PP - 1} {
		for _, dp := range []int{0, tc.DP - 1} {
			for _, tp := range []int{0, tc.TP - 1} {
				out = append(out, topo.Coord{DP: dp, PP: pp, TP: tp})
			}
		}
	}
	return out
}

// matrixCell is one verdict-matrix run: a fault kind at one position.
type matrixCell struct {
	kind faults.Kind
	at   topo.Coord
	rank topo.Rank
}

var (
	matrixOnce     sync.Once
	matrixCells    []matrixCell
	matrixVerdicts []faults.Verdict
)

// runMatrix judges every fault kind at every matrix position, once per test
// binary: the golden and the score read the same runs.
func runMatrix() ([]matrixCell, []faults.Verdict) {
	matrixOnce.Do(func() {
		cl := topo.MustNew(matrixTopo)
		for _, k := range faults.All() {
			for _, c := range matrixPositions(matrixTopo) {
				matrixCells = append(matrixCells, matrixCell{k, c, cl.RankAt(c)})
			}
		}
		matrixVerdicts = make([]faults.Verdict, len(matrixCells))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					spec := faults.Spec{Kind: matrixCells[i].kind, Rank: matrixCells[i].rank}
					matrixVerdicts[i] = RunCase(1, matrixTopo, spec, 15*time.Second, 30*time.Second).Verdict
				}
			}()
		}
		for i := range matrixCells {
			next <- i
		}
		close(next)
		wg.Wait()
	})
	return matrixCells, matrixVerdicts
}

// TestVerdictMatrixGolden pins Judge's verdict for every fault kind at each
// matrix position. It was recorded with the verdicts as they stood, wrong
// ones included: a fix to detection or RCA regenerates it on purpose, and
// the diff is that fix's before and after.
func TestVerdictMatrixGolden(t *testing.T) {
	cells, verdicts := runMatrix()
	rows := make([][]string, len(cells))
	for i, c := range cells {
		v := verdicts[i]
		trigger, report, suspect, category := "-", "-", "-", "-"
		if tr := v.Trigger; tr != nil {
			trigger = fmt.Sprintf("+%v %s@%d", v.TriggerAfter, tr.Kind, tr.Rank)
		}
		if rep := v.Report; rep != nil {
			report = fmt.Sprintf("+%v", v.ReportAfter)
			suspect = fmt.Sprintf("%d %s", rep.Suspect, v.Suspect)
			category = fmt.Sprintf("%s %s", rep.Category, mark(v.RightCategory))
		}
		detected, diagnosed := "-", "-"
		if v.Detected != nil {
			detected = fmt.Sprintf("+%v", v.Detected.At.Sub(sim.Time(15*time.Second)))
		}
		if v.Diagnosed != nil {
			diagnosed = fmt.Sprintf("+%v", v.Diagnosed.AnalyzedAt.Sub(sim.Time(15*time.Second)))
		}
		rows[i] = []string{
			string(c.kind), fmt.Sprintf("pp%d/dp%d/tp%d", c.at.PP, c.at.DP, c.at.TP), fmt.Sprint(c.rank),
			trigger, report, suspect, category, detected, diagnosed, fmt.Sprint(len(v.Spurious)),
		}
	}
	got := []byte(fmt.Sprintf("verdict matrix — TP%d PP%d DP%d, seed 1, fault at 15s, run to 45s\n", matrixTopo.TP, matrixTopo.PP, matrixTopo.DP) +
		Table([]string{"fault", "position", "rank", "first-trigger", "first-report", "suspect", "category", "detected", "diagnosed", "spurious"}, rows))

	const path = "testdata/verdict_matrix.golden"
	if *updateVerdicts {
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
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "(end of output)", "(end of file)"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("verdicts drifted from %s at line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// TestVerdictScore holds the matrix's score to committed floors, and a
// healthy job's trigger count to a ceiling. A detector change that moves a
// count in the good direction moves its bound in the same commit; none moves
// the other way.
func TestVerdictScore(t *testing.T) {
	const (
		minDetected15s  = 8
		minDiagnosed20s = 7
		minExact        = 77
		minNoSpurious   = 14
		// A fault-free 64-rank job at 120 virtual seconds with the re-arm mute
		// off: every trigger it raises is false.
		maxHealthyTriggers = 58
	)
	_, verdicts := runMatrix()
	injected := sim.Time(15 * time.Second)
	var detected, diagnosed, exact, clean int
	for _, v := range verdicts {
		if v.Detected != nil && v.Detected.At.Sub(injected) <= 15*time.Second {
			detected++
		}
		if v.Diagnosed != nil && v.Diagnosed.AnalyzedAt.Sub(injected) <= 20*time.Second {
			diagnosed++
		}
		if v.Suspect == faults.SuspectExact {
			exact++
		}
		if len(v.Spurious) == 0 {
			clean++
		}
	}
	healthy, _ := host(1, mycroft.JobOptions{Topo: matrixTopo, Backend: mycroft.BackendConfig{RearmDelay: time.Nanosecond}},
		faults.Spec{}, 120*time.Second)
	triggers := len(healthy.Triggers())
	t.Logf("of %d cells: %d detected within 15s, %d diagnosed within 20s, %d exact suspects, %d with no spurious report; healthy job: %d triggers",
		len(verdicts), detected, diagnosed, exact, clean, triggers)

	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"cells detected within 15s", detected, minDetected15s},
		{"cells diagnosed within 20s", diagnosed, minDiagnosed20s},
		{"cells with the exact suspect", exact, minExact},
		{"cells with no spurious report", clean, minNoSpurious},
	} {
		if c.got < c.want {
			t.Errorf("%s: %d, below the floor of %d", c.name, c.got, c.want)
		}
	}
	if triggers > maxHealthyTriggers {
		t.Errorf("healthy job raised %d triggers, above the ceiling of %d", triggers, maxHealthyTriggers)
	}
}
