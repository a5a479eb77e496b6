// mycroft-trace exercises the cloud database's "observability tool" mode
// (§6.1): interrogate a run's trace store through the unified query layer —
// store occupancy, per-rank record counts, the distributed state machine at
// the end of the run, and optionally the full record stream of one rank
// (fetched in pages, the way an operator console would).
//
// Every subcommand runs against the transport-agnostic Client interface, so
// the same code path serves two modes:
//
//   - default: build a Service in-process, run the seeded scenario locally,
//     then query it (the classic offline-analysis shape);
//   - -addr host:port: dial a live mycroft-serve daemon and query *it* —
//     no local simulation at all. The injection flags (-fault, -rank, -at,
//     -for, -seed) are ignored; the daemon's run is what it is. A daemon
//     seeded with the same flags yields byte-identical output.
//
// The "graph" subcommand (mycroft-trace graph [flags]) instead exports the
// job's live dependency graph as Graphviz dot on stdout, with the latest
// verdict's causal chain and blast radius on stderr:
//
//	mycroft-trace graph -fault nic-down -rank 5 | dot -Tsvg > deps.svg
//
// The "remedy" subcommand attaches the default self-healing policy before
// injecting (in-process mode; a daemon needs -remedy), then dumps the
// remediation audit log — every detect→act→verify attempt — through the
// query layer:
//
//	mycroft-trace remedy -fault nic-down -rank 5
//	mycroft-trace remedy -addr 127.0.0.1:7466
//
// The "status" subcommand is the operator console: per-job heartbeat health,
// ingest watermarks, store occupancy, subscription fan-out and recent
// remediation outcomes, rendered entirely from virtual-time state so the
// same run prints byte-identically in-process and against a daemon. Pass
// -watch to re-render every -every interval (live daemons only make this
// interesting):
//
//	mycroft-trace status -fault nic-down -rank 5
//	mycroft-trace status -addr 127.0.0.1:7466 -watch
//
// The "spans" subcommand renders the per-incident latency waterfall: every
// pipeline span the job recorded — ingest batches, detection, RCA, report
// publish, stream fan-out, remedy attempts and cluster replication — grouped
// into causal trees and drawn against each incident's own time window, so
// one glance shows where an incident's end-to-end latency went. Pass
// -incident to restrict to one tree:
//
//	mycroft-trace spans -fault gpu-hang -rank 9 -remedy -for 70s
//	mycroft-trace spans -addr 127.0.0.1:7466 -incident trigger-1
//
// The "channels" subcommand renders the multi-modal diagnosis surface: one
// row per channel (tracepoint / log / perf) with its native ingest count,
// published anomalies and delivered verdicts, plus the evidence-fusion
// summary — outcome counts and the latest verdict's fused confidence. Like
// status, every value derives from virtual time, so in-process and -addr
// output are byte-identical for the same run:
//
//	mycroft-trace channels -fault nic-down -rank 5 -remedy
//	mycroft-trace channels -addr 127.0.0.1:7466
//
// The "replay" subcommand re-drives a recorded incident artifact (produced
// by -record on mycroft-serve or mycroft-scenario run, or downloaded live
// from a daemon) through a fresh analysis stack — faithfully, or under
// what-if threshold/policy overrides:
//
//	mycroft-trace replay incident.mycrec -diff
//	mycroft-trace replay incident.mycrec -whatif overrides.json
//	mycroft-trace replay -addr 127.0.0.1:7466 -job trace -o incident.mycrec
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
	"mycroft/internal/seedjob"
	"mycroft/internal/sim"
)

func main() {
	var (
		faultName = flag.String("fault", "nic-down", "fault kind: "+seedjob.FaultKinds())
		rank      = flag.Int("rank", 5, "rank to inject at")
		at        = flag.Duration("at", 15*time.Second, "injection time")
		horizon   = flag.Duration("for", 40*time.Second, "virtual run time")
		dumpRank  = flag.Int("dump", -1, "dump the last -n records of this rank")
		dumpN     = flag.Int("n", 20, "records to dump with -dump")
		pageSize  = flag.Int("page", 512, "query page size for the dump")
		seed      = flag.Int64("seed", 1, "simulation seed")
		addr      = flag.String("addr", "", "query a live mycroft-serve daemon instead of simulating in-process (comma-separated list dials a cluster: job-aware routing with failover)")
		jobFlag   = flag.String("job", "", "job id to query (default: the daemon's sole job)")
		withRem   = flag.Bool("remedy", false, "status/spans mode, in-process: attach the self-healing policy (parity with a daemon started -remedy)")
		watch     = flag.Bool("watch", false, "status mode: re-render until interrupted")
		every     = flag.Duration("every", time.Second, "status mode: wall-time interval between -watch renders")
		incident  = flag.String("incident", "", "spans mode: restrict to one incident's causal tree (cause label, e.g. trigger-1)")
	)
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "replay" {
		// Replay has its own flag set: it operates on a recorded artifact
		// (file or daemon download), not on a fresh simulation.
		runReplay(args[1:])
		return
	}
	graphMode := len(args) > 0 && args[0] == "graph"
	remedyMode := len(args) > 0 && args[0] == "remedy"
	statusMode := len(args) > 0 && args[0] == "status"
	spansMode := len(args) > 0 && args[0] == "spans"
	channelsMode := len(args) > 0 && args[0] == "channels"
	if graphMode || remedyMode || statusMode || spansMode || channelsMode {
		args = args[1:]
	}
	flag.CommandLine.Parse(args)

	var c mycroft.Client
	var cc *mycroft.ClusterClient
	if strings.Contains(*addr, ",") {
		// A comma-separated -addr is a cluster: route by job, fail over to
		// replicas when a peer dies.
		var err error
		cc, err = mycroft.DialCluster(strings.Split(*addr, ","))
		if err != nil {
			die(err)
		}
		c = cc
	} else if *addr != "" {
		rc, err := mycroft.Dial(*addr)
		if err != nil {
			die(err)
		}
		if id, started := rc.ServerInfo(); id != "" {
			fmt.Fprintf(os.Stderr, "mycroft-trace: connected to %s at %s (up %v)\n",
				id, *addr, time.Since(started).Round(time.Second))
		}
		c = rc
	} else {
		svc, err := buildService(*seed, *faultName, *rank, *at, remedyMode || ((statusMode || spansMode || channelsMode) && *withRem))
		if err != nil {
			// Only the -fault and -rank flags can be wrong here: a usage error.
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		svc.Run(*horizon)
		c = svc
	}

	job := mycroft.JobID(*jobFlag)
	var err error
	switch {
	case statusMode:
		render := func() error {
			if e := dumpStatus(c, job, os.Stdout); e != nil {
				return e
			}
			if cc != nil {
				return dumpClusterStatus(cc, os.Stdout)
			}
			return nil
		}
		err = render()
		for err == nil && *watch {
			time.Sleep(*every)
			fmt.Println()
			err = render()
		}
	case remedyMode:
		err = dumpRemedy(c, job, os.Stdout)
	case spansMode:
		err = dumpSpans(c, job, *incident, os.Stdout)
	case channelsMode:
		err = dumpChannels(c, job, os.Stdout)
	case graphMode:
		err = dumpGraph(c, job, os.Stdout, os.Stderr)
	default:
		err = dumpStore(c, job, os.Stdout, *dumpRank, *dumpN, *pageSize)
	}
	if err != nil {
		die(err)
	}
}

// buildService wires the in-process run: one job (id "trace"), the
// self-healing policy in remedy mode, the fault injected after Start.
// mycroft-serve's single-job mode calls the same seedjob constructor — that
// is what makes in-process and -addr output byte-identical for the same
// flags.
func buildService(seed int64, faultName string, rank int, at time.Duration, remedyMode bool) (*mycroft.Service, error) {
	return seedjob.Build("trace", seed, faultName, rank, at, remedyMode)
}

// jobInfo resolves which hosted job to report on: the -job flag, or the
// sole job when the flag is empty. A cluster peer also lists the jobs it
// follows (Source "replica"); it does not host those, so they do not count.
func jobInfo(c mycroft.Client, job mycroft.JobID) (mycroft.JobsResult, mycroft.JobInfo, error) {
	jobs, err := c.ListJobs()
	if err != nil {
		return mycroft.JobsResult{}, mycroft.JobInfo{}, err
	}
	if job == "" {
		var hosted []mycroft.JobInfo
		for _, j := range jobs.Jobs {
			if j.Source == "" {
				hosted = append(hosted, j)
			}
		}
		if len(hosted) != 1 {
			return mycroft.JobsResult{}, mycroft.JobInfo{}, fmt.Errorf("service hosts %d jobs; pick one with -job", len(hosted))
		}
		return jobs, hosted[0], nil
	}
	for _, j := range jobs.Jobs {
		if j.ID == job {
			return jobs, j, nil
		}
	}
	return mycroft.JobsResult{}, mycroft.JobInfo{}, fmt.Errorf("no job %q", job)
}

// jobsFilter turns the -job flag into a multi-job query restriction.
func jobsFilter(job mycroft.JobID) []mycroft.JobID {
	if job == "" {
		return nil
	}
	return []mycroft.JobID{job}
}

// dumpStore renders the store occupancy, the per-rank record summary, the
// reconstructed distributed state machine, and optionally one rank's paged
// record dump — all through Client queries.
func dumpStore(c mycroft.Client, job mycroft.JobID, w io.Writer, dumpRank, dumpN, pageSize int) error {
	jobs, info, err := jobInfo(c, job)
	if err != nil {
		return err
	}
	now := jobs.Now
	st := info.Store
	fmt.Fprintf(w, "trace store after %v: %d records live, %.1f MB ingested, %d pruned\n\n",
		now, st.Records, float64(st.BytesIngested)/1e6, st.Pruned)

	// One full fetch per rank feeds both the summary table and the state
	// machine below; ranks with no records are skipped. Bounding every
	// query at the header's `now` keeps the whole report one consistent
	// snapshot even when the daemon's drive loop is still advancing.
	byRank := make(map[mycroft.Rank][]mycroft.TraceRecord)
	var ranks []mycroft.Rank
	for r := 0; r < info.WorldSize; r++ {
		res, err := c.QueryTrace(mycroft.TraceQuery{Job: job, Ranks: []mycroft.Rank{mycroft.Rank(r)}, To: now})
		if err != nil {
			return err
		}
		if len(res.Records) > 0 {
			ranks = append(ranks, mycroft.Rank(r))
			byRank[mycroft.Rank(r)] = res.Records
		}
	}

	fmt.Fprintln(w, "per-rank record summary:")
	fmt.Fprintf(w, "%6s %12s %12s %14s %s\n", "rank", "completions", "states", "last-record", "last-op")
	for _, r := range ranks {
		recs := byRank[r]
		var comp, st int
		for _, rec := range recs {
			if rec.Kind == mycroft.RecordCompletion {
				comp++
			} else {
				st++
			}
		}
		last := recs[len(recs)-1]
		fmt.Fprintf(w, "%6d %12d %12d %14v %s seq=%d\n",
			r, comp, st, last.Time, last.Op, last.OpSeq)
	}

	fmt.Fprintln(w, "\ndistributed state machine (freshest state log per rank per comm):")
	for _, r := range ranks {
		for _, commID := range commsOf(byRank[r]) {
			for _, rec := range lastStatePerChannel(byRank[r], commID, now, 10*time.Second) {
				fmt.Fprintf(w, "  rank %2d comm %2d ch %d: %3d/%3d/%3d of %3d chunks, stuck %v\n",
					r, commID, rec.Channel, rec.GPUReady, rec.RDMATransmitted, rec.RDMADone, rec.TotalChunks,
					time.Duration(rec.StuckNs).Round(time.Millisecond))
			}
		}
	}

	if dumpRank >= 0 {
		fmt.Fprintf(w, "\nlast %d records of rank %d (paged, %d per query):\n", dumpN, dumpRank, pageSize)
		var recs []mycroft.TraceRecord
		q := mycroft.TraceQuery{Job: job, Ranks: []mycroft.Rank{mycroft.Rank(dumpRank)}, To: now, Limit: pageSize}
		pages := 0
		for {
			res, err := c.QueryTrace(q)
			if err != nil {
				return err
			}
			recs = append(recs, res.Records...)
			pages++
			if res.Next == nil {
				break
			}
			q.Cursor = res.Next
		}
		if len(recs) > dumpN {
			recs = recs[len(recs)-dumpN:]
		}
		for i := range recs {
			fmt.Fprintln(w, " ", recs[i].String())
		}
		fmt.Fprintf(w, "  (%d pages)\n", pages)
	}
	return nil
}

// commsOf lists the communicators a rank's records mention, ascending.
func commsOf(recs []mycroft.TraceRecord) []uint64 {
	var out []uint64
	for _, rec := range recs {
		if !slices.Contains(out, rec.CommID) {
			out = append(out, rec.CommID)
		}
	}
	slices.Sort(out)
	return out
}

// lastStatePerChannel reconstructs the freshest state log per channel for
// one communicator, looking back at most window from now — the same
// reduction clouddb.LastStatePerChannel performs server-side, computed here
// from the wire records so remote output matches in-process output.
// Channels render in ascending order.
func lastStatePerChannel(recs []mycroft.TraceRecord, commID uint64, now time.Duration, window time.Duration) []mycroft.TraceRecord {
	last := make(map[int32]mycroft.TraceRecord)
	for _, rec := range recs {
		t := time.Duration(rec.Time)
		if rec.Kind != mycroft.RecordState || rec.CommID != commID || t <= now-window || t > now {
			continue
		}
		last[rec.Channel] = rec // records are time-ascending: last wins
	}
	channels := make([]int32, 0, len(last))
	for ch := range last {
		channels = append(channels, ch)
	}
	slices.Sort(channels)
	out := make([]mycroft.TraceRecord, 0, len(channels))
	for _, ch := range channels {
		out = append(out, last[ch])
	}
	return out
}

// dumpGraph exports the dependency graph as dot on stdout and the latest
// verdict's chain and blast radius on stderr, so the pipe stays clean.
func dumpGraph(c mycroft.Client, job mycroft.JobID, stdout, stderr io.Writer) error {
	deps, err := c.QueryDependencies(mycroft.DependencyQuery{Job: job, RenderDOT: true})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, deps.DOT)
	reps, err := c.QueryReports(mycroft.ReportQuery{Jobs: jobsFilter(job)})
	if err != nil {
		return err
	}
	if len(reps.Reports) > 0 {
		last := reps.Reports[len(reps.Reports)-1].Report
		fmt.Fprintf(stderr, "verdict: %v\n", last)
		for i, h := range last.Chain {
			fmt.Fprintf(stderr, "  hop %d: %v\n", i, h)
		}
		if br, err := c.BlastRadius(deps.Job, last.Suspect); err == nil {
			fmt.Fprintf(stderr, "blast radius now: %v\n", br)
		}
	}
	return nil
}

// dumpRemedy renders the remediation audit log through the query layer.
func dumpRemedy(c mycroft.Client, job mycroft.JobID, w io.Writer) error {
	jobs, info, err := jobInfo(c, job)
	if err != nil {
		return err
	}
	res, err := c.QueryRemediations(mycroft.RemediationQuery{Jobs: jobsFilter(job)})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "remediation audit log after %v (%d attempt(s)):\n", jobs.Now, res.Total)
	for _, a := range res.Attempts {
		fmt.Fprintf(w, "  %s\n", a.RemedyAttempt)
		fmt.Fprintf(w, "    reported %v, applied %v, resolved %v\n", a.ReportedAt, a.AppliedAt, a.ResolvedAt)
	}
	if len(info.Isolated) > 0 {
		fmt.Fprintf(w, "isolated ranks: %v\n", info.Isolated)
	}
	fmt.Fprintf(w, "iterations completed: %d\n", info.Iterations)
	return nil
}

// dumpSpans renders the per-incident latency waterfall: spans grouped into
// causal trees (children indented under their parent), each with a
// proportional bar over its tree's own time window. Only virtual timestamps
// are printed, so the same run renders byte-identically in-process and
// against a daemon; the wall-clock fields exist for profiling (see -slow-op
// on mycroft-serve) and never reach this surface.
func dumpSpans(c mycroft.Client, job mycroft.JobID, incident string, w io.Writer) error {
	jobs, info, err := jobInfo(c, job)
	if err != nil {
		return err
	}
	res, err := c.QuerySpans(mycroft.SpanQuery{Job: info.ID, Incident: incident})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline spans for job %q after %v: %d span(s)", info.ID, jobs.Now, res.Total)
	if res.Dropped > 0 {
		fmt.Fprintf(w, ", %d overwritten", res.Dropped)
	}
	fmt.Fprintln(w)

	present := make(map[mycroft.SpanID]bool, len(res.Spans))
	for _, s := range res.Spans {
		present[s.ID] = true
	}
	children := make(map[mycroft.SpanID][]mycroft.Span)
	var roots []mycroft.Span
	for _, s := range res.Spans {
		if s.Parent != 0 && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}

	rendered := 0
	for _, root := range roots {
		// Only incident-rooted trees draw; per-batch ingest spans that never
		// joined an incident are summarized below instead of spamming the
		// waterfall.
		if root.Stage != mycroft.StageIncident {
			continue
		}
		// The tree's time window: bars scale to [earliest start, latest end]
		// across the whole tree, so adopted ingest spans that began before
		// the trigger still land on the canvas.
		start, end := root.Start, root.End
		var measure func(s mycroft.Span)
		measure = func(s mycroft.Span) {
			if s.Start < start {
				start = s.Start
			}
			if s.End > end {
				end = s.End
			}
			for _, ch := range children[s.ID] {
				measure(ch)
			}
		}
		measure(root)

		fmt.Fprintf(w, "\nincident %s: %v -> ", root.Cause, root.Start)
		if root.End == 0 {
			fmt.Fprint(w, "open\n")
		} else {
			fmt.Fprintf(w, "%v (%v end-to-end)\n", root.End, root.Dur())
		}
		var walk func(s mycroft.Span, depth int)
		walk = func(s mycroft.Span, depth int) {
			rendered++
			times := fmt.Sprintf("%v -> open", s.Start)
			if s.End != 0 {
				times = fmt.Sprintf("%v -> %v (%v)", s.Start, s.End, s.Dur())
			}
			extra := ""
			if s.Peer != "" {
				extra += " peer=" + s.Peer
			}
			if s.Detail != "" {
				extra += " — " + s.Detail
			}
			fmt.Fprintf(w, "  #%-4d %-22s %s %s%s\n",
				s.ID, strings.Repeat("  ", depth)+s.Stage, spanBar(s, start, end.Sub(start)), times, extra)
			for _, ch := range children[s.ID] {
				walk(ch, depth+1)
			}
		}
		walk(root, 0)
	}
	if out := len(res.Spans) - rendered; out > 0 {
		fmt.Fprintf(w, "\n%d span(s) outside incident trees (unadopted ingest/upload batches)\n", out)
	}
	return nil
}

// spanBar draws one span's proportional bar on a fixed-width canvas scaled
// to its tree's time window: '#' for duration, '|' for an instantaneous
// span, '+' running to the edge for a span still open, '.' for empty canvas.
func spanBar(s mycroft.Span, start sim.Time, total time.Duration) string {
	const width = 24
	b := []byte(strings.Repeat(".", width))
	if total <= 0 {
		b[0] = '|'
		return string(b)
	}
	cell := func(d time.Duration) int {
		i := int(float64(d) / float64(total) * width)
		return max(0, min(width-1, i))
	}
	from := cell(s.Start.Sub(start))
	switch {
	case s.End == 0:
		for i := from; i < width; i++ {
			b[i] = '+'
		}
	case s.Dur() <= 0:
		b[from] = '|'
	default:
		to := cell(s.Start.Sub(start) + s.Dur())
		for i := from; i <= to; i++ {
			b[i] = '#'
		}
	}
	return string(b)
}

// dumpStatus renders the operator console: the service clock, subscription
// fan-out, and each job's heartbeat verdict, ingest watermark, store
// occupancy and recent remediation outcomes. Every printed value derives
// from virtual time, so the same run renders byte-identically in-process
// and against a daemon; process-scoped facts (daemon identity, wall-clock
// uptime) go to stderr at dial time instead.
func dumpStatus(c mycroft.Client, job mycroft.JobID, w io.Writer) error {
	health, err := c.Health()
	if err != nil {
		return err
	}
	jobs, err := c.ListJobs()
	if err != nil {
		return err
	}
	info := make(map[mycroft.JobID]mycroft.JobInfo, len(jobs.Jobs))
	for _, j := range jobs.Jobs {
		info[j.ID] = j
	}
	rem, err := c.QueryRemediations(mycroft.RemediationQuery{Jobs: jobsFilter(job)})
	if err != nil {
		return err
	}
	attempts := make(map[mycroft.JobID]int)
	lastAttempt := make(map[mycroft.JobID]mycroft.JobRemediation)
	for _, a := range rem.Attempts {
		attempts[a.Job]++
		lastAttempt[a.Job] = a // report-time ordered: last wins
	}

	fmt.Fprintf(w, "mycroft status at %v: %d job(s)\n", health.Now, len(health.Jobs))
	fmt.Fprintf(w, "subscriptions: %d active, %d delivered, %d dropped\n",
		health.Subs.Active, health.Subs.Delivered, health.Subs.Dropped)
	shown := 0
	for _, jh := range health.Jobs {
		if job != "" && jh.Job != job {
			continue
		}
		shown++
		ji := info[jh.Job]
		fmt.Fprintf(w, "\njob %q: %s", jh.Job, jh.State)
		if jh.Reason != "" {
			fmt.Fprintf(w, " since %v — %s", jh.Since, jh.Reason)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  last ingest %v (%v ago); %d records ingested, %d live, %d pruned\n",
			jh.LastIngest, health.Now-jh.LastIngest, ji.Records, ji.Store.Records, ji.Store.Pruned)
		fmt.Fprintf(w, "  world size %d, iterations %d", ji.WorldSize, ji.Iterations)
		if ji.Policy != "" {
			fmt.Fprintf(w, ", policy %q", ji.Policy)
		}
		if len(ji.Isolated) > 0 {
			fmt.Fprintf(w, ", isolated %v", ji.Isolated)
		}
		fmt.Fprintln(w)
		if n := attempts[jh.Job]; n > 0 {
			la := lastAttempt[jh.Job]
			fmt.Fprintf(w, "  remediation: %d attempt(s), last %s rank %d -> %s at %v\n",
				n, la.Action.Kind, la.Action.Rank, la.Outcome, la.ResolvedAt)
		}
	}
	if job != "" && shown == 0 {
		return fmt.Errorf("no job %q", job)
	}
	return nil
}

// dumpChannels renders the multi-modal diagnosis surface: per-channel ingest
// and finding counters in canonical order, then the fusion summary. Outcome
// counts print in the fixed single/corroborated/conflicted order (never map
// order) and only virtual timestamps appear, so the same run renders
// byte-identically in-process and against a daemon.
func dumpChannels(c mycroft.Client, job mycroft.JobID, w io.Writer) error {
	jobs, info, err := jobInfo(c, job)
	if err != nil {
		return err
	}
	res, err := c.ChannelStats(info.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "diagnosis channels for job %q after %v:\n", info.ID, jobs.Now)
	fmt.Fprintf(w, "  %-11s %10s %10s %8s\n", "CHANNEL", "INGESTED", "ANOMALIES", "REPORTS")
	for _, ch := range res.Channels {
		fmt.Fprintf(w, "  %-11s %10d %10d %8d", ch.Channel, ch.Ingested, ch.Anomalies, ch.Reports)
		if ch.Channel == mycroft.ModalityLog {
			fmt.Fprintf(w, "  %d template cluster(s)", ch.Templates)
		}
		fmt.Fprintln(w)
	}
	fu := res.Fusion
	var delivered uint64
	for _, n := range fu.Outcomes {
		delivered += n
	}
	fmt.Fprintf(w, "fusion (window %v): %d delivered report(s)", fu.Window, delivered)
	for _, out := range []string{mycroft.FusionSingle, mycroft.FusionCorroborated, mycroft.FusionConflicted} {
		if n := fu.Outcomes[out]; n > 0 {
			fmt.Fprintf(w, " %s=%d", out, n)
		}
	}
	fmt.Fprintln(w)
	if fu.LastOutcome != "" {
		fmt.Fprintf(w, "  last verdict: %s (confidence %.2f)\n", fu.LastOutcome, fu.LastConfidence)
	}
	return nil
}

// dumpClusterStatus renders the fleet's membership and placement under the
// per-job status: one row per peer (the client's own reachability overrides
// the gossip view — a peer nobody can dial is dead no matter what it last
// said), then one row per job showing where it lives and how far its
// replicas have caught up.
func dumpClusterStatus(cc *mycroft.ClusterClient, w io.Writer) error {
	info, err := cc.ClusterInfo()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncluster %q: %d peer(s), R=%d\n", info.ClusterID, len(info.Peers), info.Replicas)
	fmt.Fprintf(w, "  %-8s %-22s %-8s %s\n", "PEER", "ADDR", "STATE", "LAST-SEEN")
	for _, p := range info.Peers {
		last := "-"
		if p.LastSeenUnixMs > 0 {
			last = time.Since(time.UnixMilli(p.LastSeenUnixMs)).Round(time.Second).String() + " ago"
		}
		fmt.Fprintf(w, "  %-8s %-22s %-8s %s\n", p.Name, p.Addr, p.State, last)
	}
	if len(info.Jobs) > 0 {
		fmt.Fprintf(w, "  %-10s %-8s %-14s %-10s %s\n", "JOB", "PRIMARY", "REPLICAS", "WHERE", "WATERMARK")
		for _, j := range info.Jobs {
			where := "replicated"
			if j.Local {
				where = "primary"
			}
			fmt.Fprintf(w, "  %-10s %-8s %-14s %-10s %d\n",
				j.ID, j.Primary, strings.Join(j.Replicas, ","), where, j.Watermark)
		}
	}
	if s := info.Stats; s != nil {
		fmt.Fprintf(w, "  replication: %d event(s) in %d batch(es), %d failure(s)\n",
			s.ReplicatedEvents, s.ReplicationBatches, s.ReplicationFailures)
		fmt.Fprintf(w, "  tail pages served: %d primary, %d replica\n",
			s.TailPrimary, s.TailReplica)
	}
	if n := cc.Failovers(); n > 0 {
		fmt.Fprintf(w, "  failovers this session: %d\n", n)
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
