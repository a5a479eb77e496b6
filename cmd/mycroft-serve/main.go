// mycroft-serve hosts a Mycroft Service behind the versioned /v1 HTTP wire
// protocol — the production deployment shape the paper describes: one
// always-on diagnosis service that many operators and tools query
// concurrently, instead of a library linked into each consumer.
//
// Two ways to seed the daemon:
//
//	mycroft-serve -addr :7466 -fault nic-down -rank 5 -at 15s -for 40s
//	mycroft-serve -addr :7466 -scenario multi-job-shared
//
// The first hosts a single job (id "trace", matching mycroft-trace's
// in-process setup, so the same flags yield byte-identical query output
// either way); the second hosts a whole scenario fleet on one shared
// engine. Either way the daemon starts serving immediately and advances
// virtual time in the background — -step virtual time per -tick of wall
// time — until the horizon, then keeps serving the final state. Attach
// early to watch the run unfold (add -H 'Last-Event-ID: 0' to replay the
// job's event log from its first held entry):
//
//	curl -N localhost:7466/v1/jobs/trace/events
//
// SIGINT/SIGTERM shut the daemon down cleanly: live subscribers receive a
// terminal server-shutdown lifecycle event, in-flight requests finish, and
// the process exits 0.
//
// Cluster mode shards a scenario fleet across N daemons that replicate to
// each other and fail over together:
//
//	mycroft-serve -addr :7471 -scenario multi-job-shared \
//	  -cluster-id demo -self p1 -peers p1=:7471,p2=:7472,p3=:7473
//
// Every peer runs the same command with its own -self: placement is the
// shared consistent-hash ring, so each daemon hosts exactly the jobs it
// owns and follows the ones it replicates. Attach with
// mycroft-trace -addr :7471,:7472,:7473 for job-aware routing and failover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mycroft"
	"mycroft/internal/cluster"
	"mycroft/internal/scenario"
	"mycroft/internal/seedjob"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7466", "HTTP listen address")
		seed      = flag.Int64("seed", 1, "simulation seed")
		jobID     = flag.String("job", "trace", "job id for single-job mode")
		faultName = flag.String("fault", "nic-down", "fault kind to inject: "+seedjob.FaultKinds())
		rank      = flag.Int("rank", 5, "rank to inject at")
		at        = flag.Duration("at", 15*time.Second, "injection time")
		horizon   = flag.Duration("for", 40*time.Second, "virtual time to drive before idling")
		remedy    = flag.Bool("remedy", false, "attach the self-healing policy (tightens the backend re-arm like mycroft-trace remedy)")
		scen      = flag.String("scenario", "", "host a scenario fleet (builtin name or spec file) instead of a single job")
		step      = flag.Duration("step", time.Second, "virtual time advanced per tick")
		tick      = flag.Duration("tick", 20*time.Millisecond, "wall-time pause between ticks (0 = drive flat out)")
		recordDir = flag.String("record", "", "record per-job incident artifacts to this directory (download live at /v1/jobs/{id}/record)")
		pprofOn   = flag.Bool("pprof", true, "mount net/http/pprof under /debug/pprof/")
		slowOp    = flag.Duration("slow-op", 0, "log pipeline spans whose wall-clock cost exceeds this threshold (0 = off)")

		clusterID = flag.String("cluster-id", "", "enable cluster mode under this cluster name (requires -scenario, -self, -peers)")
		selfName  = flag.String("self", "", "this peer's name in -peers")
		peerList  = flag.String("peers", "", "comma-separated name=addr list of every cluster member, including self")
		replicas  = flag.Int("replicas", 1, "replication factor R: ring successors each job replicates to")
		replEvery = flag.Duration("replicate-every", 250*time.Millisecond, "wall-time between replication pushes")
		gossEvery = flag.Duration("gossip-every", time.Second, "wall-time between peer-health gossip rounds")
	)
	flag.Parse()

	var clusterCfg *mycroft.ClusterConfig
	if *clusterID != "" {
		peers, err := parsePeers(*peerList)
		if err != nil {
			die(err)
		}
		if *selfName == "" || peers[*selfName] == "" {
			die(fmt.Errorf("cluster mode needs -self naming an entry in -peers"))
		}
		if *scen == "" {
			die(fmt.Errorf("cluster mode shards a fleet; use -scenario"))
		}
		clusterCfg = &mycroft.ClusterConfig{
			ID: *clusterID, Self: *selfName, SelfAddr: peers[*selfName],
			Peers: peers, Replicas: *replicas,
		}
	}

	// Recording must attach before the first simulated instant for the
	// artifacts to replay byte-for-byte, so both seeding modes defer their
	// Start until the recorders (if any) are armed.
	var (
		svc     *mycroft.Service
		start   func()
		runFor  = *horizon
		jobDesc string
	)
	if *scen != "" {
		spec, err := scenario.Load(*scen)
		if err != nil {
			die(err)
		}
		// In cluster mode each peer hosts only the fleet members it owns on
		// the shared ring; identity is preserved, so the shards' union is
		// exactly the full fleet.
		var keep func(index int, id string) bool
		if clusterCfg != nil {
			ring := cluster.NewRing(peerNames(clusterCfg.Peers), cluster.DefaultVNodes)
			keep = func(_ int, id string) bool { return ring.Primary(id) == clusterCfg.Self }
		}
		p, err := scenario.PrepareSubset(spec, *seed, keep)
		if err != nil {
			die(err)
		}
		svc = p.Service
		start = p.Start
		runFor = p.Horizon()
		jobDesc = fmt.Sprintf("scenario %s, %d job(s)", spec.Name, len(p.Handles))
		if clusterCfg != nil {
			jobDesc = fmt.Sprintf("scenario %s, %d/%d job(s) on peer %s",
				spec.Name, len(p.Handles), spec.JobCount(), clusterCfg.Self)
		}
	} else {
		var err error
		svc, start, err = seedjob.Assemble(mycroft.JobID(*jobID), *seed, *faultName, *rank, *at, *remedy)
		if err != nil {
			// Only the -fault and -rank flags can be wrong here: a usage error.
			fmt.Fprintln(os.Stderr, "mycroft-serve:", err)
			os.Exit(2)
		}
		jobDesc = fmt.Sprintf("job %q", *jobID)
	}

	srv := mycroft.NewServer(svc)
	if clusterCfg != nil {
		if err := srv.EnableCluster(*clusterCfg); err != nil {
			die(err)
		}
	}
	if *recordDir != "" {
		if err := srv.RecordTo(*recordDir); err != nil {
			die(err)
		}
		for id, path := range srv.RecordPaths() {
			fmt.Fprintf(os.Stderr, "mycroft-serve: recording job %q to %s\n", id, path)
		}
	}
	start()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(err)
	}
	handler := srv.Handler()
	if *pprofOn {
		// Explicit mounts keep the daemon's mux self-contained instead of
		// leaning on http.DefaultServeMux. Without -pprof a request crosses
		// the daemon's one ServeMux only.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = outer
	}
	hs := newHTTPServer(handler)
	fmt.Fprintf(os.Stderr, "mycroft-serve: listening on http://%s (%s, horizon %v, seed %d)\n",
		ln.Addr(), jobDesc, runFor, *seed)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "mycroft-serve:", err)
		}
	}()

	stopCluster := func() {}
	if clusterCfg != nil {
		stopCluster = srv.StartCluster(*replEvery, *gossEvery)
		fmt.Fprintf(os.Stderr, "mycroft-serve: cluster %q peer %s (R=%d, %d peer(s))\n",
			clusterCfg.ID, clusterCfg.Self, clusterCfg.Replicas, len(clusterCfg.Peers))
	}

	// Drive loop: advance virtual time in steps so subscribers attached
	// early watch the run unfold, then idle serving the final state.
	go func() {
		scan := slowOpScanner(svc, *slowOp, os.Stderr)
		for driven := time.Duration(0); driven < runFor; {
			d := *step
			if rem := runFor - driven; d > rem {
				d = rem
			}
			srv.Advance(d)
			driven += d
			scan()
			if *tick > 0 {
				time.Sleep(*tick)
			}
		}
		scan()
		fmt.Fprintf(os.Stderr, "mycroft-serve: horizon %v reached; serving final state\n", runFor)
	}()

	<-ctx.Done()
	stopCluster()
	// One final replication round, so every reachable follower holds the log
	// so far before this peer's listener dies (a no-op outside a cluster).
	srv.ReplicateNow()
	// Subscribers get a terminal server-shutdown event before their tails
	// close — a watcher sees the daemon leave, not a silent hangup.
	srv.AnnounceShutdown()
	closed := srv.CloseSubscriptions()
	if err := srv.CloseRecorders(); err != nil {
		fmt.Fprintln(os.Stderr, "mycroft-serve: finalizing recordings:", err)
	}
	fmt.Fprintf(os.Stderr, "mycroft-serve: shutting down (%d job event log(s) closed)\n", closed)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
}

// Bounds on a slow or idle client: how long it may take to send a request's
// headers, and how long a keep-alive connection may sit between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler with the slow-client bounds.
// ReadTimeout and WriteTimeout stay unset: the SSE streams of
// GET /v1/jobs/{id}/events are meant to stay open for the daemon's lifetime,
// and in net/http an expired ReadTimeout cancels a running handler's
// context, so either would cut every live stream.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// slowOpScanner returns a closure that logs to w the pipeline spans whose
// wall-clock cost crossed the -slow-op threshold. Each call scans every job's
// recorder incrementally (spans past the last one seen) between engine
// advances, so the scan never races the simulation. Threshold 0 disables it.
func slowOpScanner(svc *mycroft.Service, threshold time.Duration, w io.Writer) func() {
	if threshold <= 0 {
		return func() {}
	}
	last := make(map[mycroft.JobID]mycroft.SpanID)
	return func() {
		for _, id := range svc.Jobs() {
			res, err := svc.QuerySpans(mycroft.SpanQuery{Job: id, AfterID: last[id]})
			if err != nil {
				continue
			}
			for _, s := range res.Spans {
				last[id] = s.ID
				// Spans still open here are waiting on virtual time (incident
				// roots, pending remedies): their wall span is dominated by
				// tick pacing, not processing cost, so only closed spans count.
				if s.WallEnd != 0 && s.WallDur() >= threshold {
					fmt.Fprintf(w, "mycroft-serve: slow-op job=%s span=%d stage=%s cause=%s wall=%v virt=%v\n",
						id, s.ID, s.Stage, s.Cause, s.WallDur(), s.Dur())
				}
			}
		}
	}
}

// parsePeers reads the -peers list: "p1=host:port,p2=host:port,...".
func parsePeers(list string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=addr)", part)
		}
		out[name] = addr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster mode needs -peers name=addr[,name=addr...]")
	}
	return out, nil
}

func peerNames(peers map[string]string) []string {
	out := make([]string, 0, len(peers))
	for name := range peers {
		out = append(out, name)
	}
	return out
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mycroft-serve:", err)
	os.Exit(1)
}
