// mycroft-eval regenerates every table and figure of the paper's
// evaluation (the experiment index lives in internal/experiments) and
// prints them as text tables, plus the backend-knob ablations ("abl") and a
// multi-tenant service smoke table ("svc") exercising the mycroft.Service
// API. Select with -only (comma-separated ids, e.g. "e2,e4,svc"); default
// runs everything. The performance harness is a different program: bench/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mycroft"
	"mycroft/internal/experiments"
	"mycroft/internal/faults"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// table is one selectable evaluation output.
type table struct {
	id, title string
	render    func() string
}

// run is main with its process edges as parameters; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mycroft-eval", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated table ids (e1..e9, abl, svc); empty = all")
	trials := fs.Int("trials", 3, "trials per fault class in E2")
	runs := fs.Int("runs", 35, "campaign size for E3")
	fs.Parse(args) // ExitOnError: a bad flag has already exited 2

	tables := []table{
		{"e1", "Table 1 capability matrix", func() string { return experiments.RunE1(1).Table() }},
		{"e2", "fault injection (§7.1)", func() string { return experiments.RunE2(*trials).Table() }},
		{"e3", "detection/RCA latency CDFs", func() string { return experiments.RunE3(*runs).Table() }},
		{"e4", "tracing overhead", func() string { return experiments.RunE4(1).Table() }},
		{"e5", "anomaly propagation", func() string { return experiments.RunE5([]int{16, 64, 256, 512}).Table() }},
		{"e6", "trace data volume", func() string { return experiments.RunE6(1).Table() }},
		{"e7", "sampling policy", func() string { return experiments.RunE7(1).Table() }},
		{"e8", "straggler thresholds (§9)", func() string { return experiments.RunE8(1).Table() }},
		{"e9", "integration triage (Fig. 6)", func() string { return experiments.RunE9(1).Table() }},
		{"abl", "backend design-knob ablations (§9 heuristics)", ablationTables},
		{"svc", "multi-job service (one engine, 4 tenants)", serviceTable},
	}

	// Every id is checked before the first table runs: a typo must not cost
	// the wall time of the tables named before it.
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !slices.ContainsFunc(tables, func(t table) bool { return t.id == id }) {
				fmt.Fprintf(stderr, "unknown experiment id %q\n", id)
				return 2
			}
			want[id] = true
		}
	}

	for _, t := range tables {
		if len(want) > 0 && !want[t.id] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s — %s ===\n", strings.ToUpper(t.id), t.title)
		fmt.Fprintln(stdout, t.render())
		fmt.Fprintf(stdout, "(%s wall time: %v)\n\n", strings.ToUpper(t.id), time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// ablationTables renders the four knob sweeps one after another.
func ablationTables() string {
	return strings.Join([]string{
		experiments.RunAblationUploadLatency(1).Table(),
		experiments.RunAblationStatePeriod(1).Table(),
		experiments.RunAblationChannels(1).Table(),
		experiments.RunAblationChunkSize(1).Table(),
	}, "\n")
}

// serviceTable hosts four identical jobs on one Service, kills a NIC on job
// 0 at 15 s, and tabulates per-tenant outcomes: the fault must localize to
// the faulty tenant only.
func serviceTable() string {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	for i := 0; i < 4; i++ {
		svc.MustAddJob("", mycroft.JobOptions{})
	}
	svc.Start()
	lead, _ := svc.Job("job-0")
	lead.Inject(mycroft.Fault{Kind: faults.NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(45 * time.Second)
	defer svc.Stop()

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %8s %s\n", "job", "iters", "records", "triggers", "reports", "first verdict")
	for _, id := range svc.Jobs() {
		h, _ := svc.Job(id)
		reps, _ := svc.QueryReports(mycroft.ReportQuery{Jobs: []mycroft.JobID{id}})
		verdict := "-"
		if len(reps.Reports) > 0 {
			r := reps.Reports[0]
			verdict = fmt.Sprintf("rank %d %s", r.Suspect, r.Category)
		}
		fmt.Fprintf(&b, "%-8s %10d %10d %8d %8d %s\n",
			id, h.Job.IterationsDone(), h.RecordsIngested(), len(h.Triggers()), len(h.Reports()), verdict)
	}
	return b.String()
}
