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
	"mycroft/internal/core"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
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
		matrixVerdicts = judgeCells(matrixCells, func(c matrixCell) faults.Verdict {
			return RunCase(1, matrixTopo, faults.Spec{Kind: c.kind, Rank: c.rank}, 15*time.Second, 30*time.Second).Verdict
		})
	})
	return matrixCells, matrixVerdicts
}

// judgeCells runs run on every cell, GOMAXPROCS cells at a time, and returns
// the verdicts in cell order.
func judgeCells(cells []matrixCell, run func(matrixCell) faults.Verdict) []faults.Verdict {
	verdicts := make([]faults.Verdict, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				verdicts[i] = run(cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return verdicts
}

// matrixRow renders one cell's verdict as a golden row, every rank in it
// passed through rank: the identity for the golden itself, a mirror for the
// symmetry oracle.
func matrixRow(c matrixCell, v faults.Verdict, rank func(topo.Rank) topo.Rank) []string {
	trigger, report, suspect, category := "-", "-", "-", "-"
	if tr := v.Trigger; tr != nil {
		trigger = fmt.Sprintf("+%v %s@%d", v.TriggerAfter, tr.Kind, rank(tr.Rank))
	}
	if rep := v.Report; rep != nil {
		report = fmt.Sprintf("+%v", v.ReportAfter)
		suspect = fmt.Sprintf("%d %s", rank(rep.Suspect), v.Suspect)
		category = fmt.Sprintf("%s %s", rep.Category, mark(v.RightCategory))
	}
	detected, diagnosed := "-", "-"
	if v.Detected != nil {
		detected = fmt.Sprintf("+%v", v.Detected.At.Sub(sim.Time(15*time.Second)))
	}
	if v.Diagnosed != nil {
		diagnosed = fmt.Sprintf("+%v", v.Diagnosed.AnalyzedAt.Sub(sim.Time(15*time.Second)))
	}
	return []string{
		string(c.kind), fmt.Sprintf("pp%d/dp%d/tp%d", c.at.PP, c.at.DP, c.at.TP), fmt.Sprint(rank(c.rank)),
		trigger, report, suspect, category, detected, diagnosed, fmt.Sprint(len(v.Spurious)),
	}
}

// TestVerdictMatrixGolden pins Judge's verdict for every fault kind at each
// matrix position. It was recorded with the verdicts as they stood, wrong
// ones included: a fix to detection or RCA regenerates it on purpose, and
// the diff is that fix's before and after.
func TestVerdictMatrixGolden(t *testing.T) {
	cells, verdicts := runMatrix()
	rows := make([][]string, len(cells))
	for i, c := range cells {
		rows[i] = matrixRow(c, verdicts[i], func(r topo.Rank) topo.Rank { return r })
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

// TestVerdictSymmetry runs the matrix on a backend that samples the last
// member of each of the first 10 DP groups instead of the first, and
// requires every cell to read as the golden reads the cell's DP mirror, with
// every rank mapped to its mirror: a detector or RCA step that leans on
// rank order instead of dependencies breaks the symmetry.
func TestVerdictSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("a second 64-rank matrix run")
	}
	cells, golden := runMatrix()
	cl := topo.MustNew(matrixTopo)
	mirror := func(r topo.Rank) topo.Rank {
		if r < 0 {
			return r
		}
		c := cl.CoordOf(r)
		c.DP = matrixTopo.DP - 1 - c.DP
		return cl.RankAt(c)
	}
	mirrored := make([]matrixCell, len(cells))
	for i, c := range cells {
		mirrored[i] = matrixCell{c.kind, cl.CoordOf(mirror(c.rank)), mirror(c.rank)}
	}
	var sampled []topo.Rank
	for _, g := range cl.DPGroups()[:10] {
		sampled = append(sampled, g.Ranks[len(g.Ranks)-1])
	}
	verdicts := judgeCells(mirrored, func(c matrixCell) faults.Verdict {
		spec := matrixSpec(c)
		eng := sim.NewEngine(1)
		job := train.MustNew(eng, train.JobConfig(matrixTopo, faults.ProfileFor(c.kind)))
		bk := core.NewBackend(eng, job.DB, sampled, core.Config{})
		job.Start()
		bk.Start()
		faults.Inject(job, spec)
		eng.RunFor(spec.At + 30*time.Second)
		return faults.Judge(spec, job.Cluster, bk.Triggers(), bk.Reports())
	})
	same := 0
	for i, c := range cells {
		// Past the kind and position columns, the mirror's row with its ranks
		// mapped back is the golden row.
		want := strings.Join(matrixRow(c, golden[i], func(r topo.Rank) topo.Rank { return r })[2:], "  ")
		got := strings.Join(matrixRow(mirrored[i], verdicts[i], mirror)[2:], "  ")
		if got != want {
			t.Errorf("%s at rank %d and at its DP mirror %d read differently, ranks mapped:\n mirror  %s\n golden  %s", c.kind, c.rank, mirrored[i].rank, got, want)
			continue
		}
		same++
	}
	t.Logf("%d of %d cells equal their DP mirror", same, len(cells))
}

// TestVerdictScore holds the matrix's score to committed floors, and a
// healthy job's trigger count to a ceiling: once noise-free, and once at 5%
// compute jitter, where a seed changes the run and the floors hold the
// worst of seeds 1–3 (seed 1 alone under -short) and the ceiling the most. A
// detector change that moves a count in the good direction moves its bound
// in the same commit; none moves the other way.
func TestVerdictScore(t *testing.T) {
	cells, verdicts := runMatrix()
	checkScore(t, "noise-free", scoreMatrix(verdicts), healthyTriggers(1, 0),
		matrixScore{detected: 8, diagnosed: 7, exact: 77, clean: 14}, 58)

	const jitter = 0.05
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var worst matrixScore
	most := 0
	for i, seed := range seeds {
		score := scoreMatrix(judgeCells(cells, func(c matrixCell) faults.Verdict {
			spec := matrixSpec(c)
			_, v := host(seed, matrixJob(faults.ProfileFor(c.kind), jitter), spec, spec.At+30*time.Second)
			return v
		}))
		triggers := healthyTriggers(seed, jitter)
		t.Logf("seed %d at %v jitter: %d/%d/%d/%d, healthy job %d triggers", seed, jitter, score.detected, score.diagnosed, score.exact, score.clean, triggers)
		if i == 0 {
			worst = score
		}
		worst = matrixScore{min(worst.detected, score.detected), min(worst.diagnosed, score.diagnosed),
			min(worst.exact, score.exact), min(worst.clean, score.clean)}
		most = max(most, triggers)
	}
	checkScore(t, fmt.Sprintf("%v jitter, worst seed", jitter), worst, most,
		matrixScore{detected: 8, diagnosed: 8, exact: 62, clean: 13}, 68)
}

// matrixScore counts the matrix cells detected within 15 s, diagnosed
// within 20 s, with the exact suspect, and with no spurious report.
type matrixScore struct{ detected, diagnosed, exact, clean int }

func scoreMatrix(verdicts []faults.Verdict) matrixScore {
	injected := sim.Time(15 * time.Second)
	var s matrixScore
	for _, v := range verdicts {
		if v.Detected != nil && v.Detected.At.Sub(injected) <= 15*time.Second {
			s.detected++
		}
		if v.Diagnosed != nil && v.Diagnosed.AnalyzedAt.Sub(injected) <= 20*time.Second {
			s.diagnosed++
		}
		if v.Suspect == faults.SuspectExact {
			s.exact++
		}
		if len(v.Spurious) == 0 {
			s.clean++
		}
	}
	return s
}

// checkScore holds a score to its floors and a healthy trigger count to its
// ceiling.
func checkScore(t *testing.T, run string, got matrixScore, triggers int, floor matrixScore, ceiling int) {
	t.Helper()
	t.Logf("%s, of %d cells: %d detected within 15s, %d diagnosed within 20s, %d exact suspects, %d with no spurious report; healthy job: %d triggers",
		run, len(matrixCells), got.detected, got.diagnosed, got.exact, got.clean, triggers)
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"cells detected within 15s", got.detected, floor.detected},
		{"cells diagnosed within 20s", got.diagnosed, floor.diagnosed},
		{"cells with the exact suspect", got.exact, floor.exact},
		{"cells with no spurious report", got.clean, floor.clean},
	} {
		if c.got < c.want {
			t.Errorf("%s: %s: %d, below the floor of %d", run, c.name, c.got, c.want)
		}
	}
	if triggers > ceiling {
		t.Errorf("%s: healthy job raised %d triggers, above the ceiling of %d", run, triggers, ceiling)
	}
}

// healthyTriggers counts the triggers a fault-free matrix job raises in 120
// virtual seconds with the re-arm mute off: every one of them is false.
func healthyTriggers(seed int64, jitter float64) int {
	opts := matrixJob(train.ComputeHeavy, jitter)
	opts.Backend.RearmDelay = time.Nanosecond
	h, _ := host(seed, opts, faults.Spec{}, 120*time.Second)
	return len(h.Triggers())
}

// matrixJob is a matrix cell's job: the workload mix a fault kind runs on,
// at the given compute jitter.
func matrixJob(profile train.JobProfile, jitter float64) mycroft.JobOptions {
	cfg := train.JobConfig(matrixTopo, profile)
	cfg.ComputeJitter = jitter
	return mycroft.JobOptions{Train: &cfg}
}

// matrixSpec is the fault a cell injects, as RunCase fills it in.
func matrixSpec(c matrixCell) faults.Spec {
	return faults.Spec{Kind: c.kind, Rank: c.rank, Severity: faults.SeverityFor(c.kind), At: 15 * time.Second}
}
