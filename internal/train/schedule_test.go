package train

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mycroft/internal/pystack"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

var updateSchedule = flag.Bool("update-schedule", false, "rewrite testdata/script_schedule.golden")

// scheduleCase is one configuration the schedule golden pins: a topology, an
// optional workload variant and an optional fault injected mid-run.
type scheduleCase struct {
	name   string
	cfg    Config
	inject func(eng *sim.Engine, j *Job)
}

// TestScriptScheduleGolden pins the rank scripts' schedule event for event:
// for every topology shape a script branches on (TP, PP or DP of one), plain
// and with jitter, checkpoints and the master's extra work, and for each
// fault hook, the file records the engine's event count, every iteration and
// per-rank iteration callback in the order it fired, and the final py-spy
// stacks. The builtin scenarios' digests cover none of the degenerate shapes
// or jitter. The file was recorded before the script became a state machine
// and has not been regenerated since: a diff here is a schedule change.
func TestScriptScheduleGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range scheduleCases() {
		fmt.Fprintf(&out, "### %s\n", c.name)
		eng := sim.NewEngine(1)
		j := MustNew(eng, c.cfg)
		j.OnIteration = func(i int, start, end sim.Time) {
			fmt.Fprintf(&out, "iteration %d %v..%v\n", i, start, end)
		}
		j.OnRankIteration = func(r topo.Rank, i int, at sim.Time) {
			fmt.Fprintf(&out, "rank %d iteration %d at %v\n", r, i, at)
		}
		j.Start()
		if c.inject != nil {
			eng.RunFor(3 * time.Second)
			c.inject(eng, j)
			fmt.Fprintf(&out, "injected at %v\n", eng.Now())
		}
		eng.RunUntil(sim.Time(8 * time.Second))
		fmt.Fprintf(&out, "dispatched %d\n", eng.Dispatched())
		for _, s := range j.PyStack.Dump() {
			fmt.Fprintf(&out, "stack rank %d %s since %v\n", s.Rank, s.Frame, s.Since)
		}
	}

	const path = "testdata/script_schedule.golden"
	if *updateSchedule {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	title := ""
	for i := range got {
		if strings.HasPrefix(got[i], "### ") {
			title = got[i]
		}
		if i >= len(exp) || got[i] != exp[i] {
			wantLine := "(end of file)"
			if i < len(exp) {
				wantLine = exp[i]
			}
			t.Fatalf("schedule drifted from %s at line %d, under %q:\n got  %s\n want %s", path, i+1, title, got[i], wantLine)
		}
	}
	t.Fatalf("schedule is a prefix of %s: %d lines, want %d", path, len(got), len(exp))
}

func scheduleCases() []scheduleCase {
	shapes := []topo.Config{
		{Nodes: 1, GPUsPerNode: 2, TP: 1, PP: 1, DP: 2},
		{Nodes: 1, GPUsPerNode: 2, TP: 2, PP: 1, DP: 1},
		{Nodes: 1, GPUsPerNode: 2, TP: 1, PP: 2, DP: 1},
		{Nodes: 2, GPUsPerNode: 4, TP: 2, PP: 2, DP: 2},
	}
	varied := func(c Config) Config {
		c.ComputeJitter = 0.1
		c.CheckpointEvery = 2
		c.MasterExtra = 20 * time.Millisecond
		return c
	}
	var cases []scheduleCase
	for _, s := range shapes {
		cfg := smallCfg()
		cfg.Topo = s
		shape := fmt.Sprintf("tp=%d pp=%d dp=%d", s.TP, s.PP, s.DP)
		cases = append(cases,
			scheduleCase{name: shape, cfg: cfg},
			scheduleCase{name: shape + " jitter+checkpoint+master", cfg: varied(cfg)})
	}
	faulted := varied(smallCfg())
	faults := []struct {
		name   string
		inject func(eng *sim.Engine, j *Job)
	}{
		{"stall-compute rank 1 mid-layer", func(eng *sim.Engine, j *Job) {
			// Step until rank 1 is inside a layer's compute, not at its start.
			for {
				s := j.PyStack.Dump()[1]
				if s.Frame == pystack.FrameForward && s.Since < eng.Now() {
					break
				}
				eng.Step()
			}
			j.StallCompute(1)
		}},
		{"stall-dataloader rank 2", func(_ *sim.Engine, j *Job) { j.StallDataloader(2) }},
		{"stall-checkpoint rank 5", func(_ *sim.Engine, j *Job) { j.StallCheckpoint(5) }},
		{"skip-next-dp rank 3", func(_ *sim.Engine, j *Job) { j.SkipNextDPLaunch(3) }},
		{"crash-proxy rank 2", func(_ *sim.Engine, j *Job) { j.CrashProxy(2) }},
	}
	for _, f := range faults {
		cases = append(cases, scheduleCase{name: "tp=2 pp=2 dp=2 jitter+checkpoint+master " + f.name, cfg: faulted, inject: f.inject})
	}
	return cases
}
