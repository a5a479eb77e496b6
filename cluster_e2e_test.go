package mycroft

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/cluster"
)

// TestDialRetriesThenUnreachable covers both halves of the dial-backoff
// contract: a daemon that is down for every attempt yields a typed
// ErrUnreachable, and one that comes up between attempts is dialed
// successfully without the caller doing anything.
func TestDialRetriesThenUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if _, err := Dial(addr); !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "4 attempts") {
		t.Fatalf("dial to dead addr: got %v, want ErrUnreachable after 4 attempts", err)
	}
	// 4 attempts back off 50ms, 100ms and 200ms between them.
	if took := time.Since(start); took < 350*time.Millisecond {
		t.Fatalf("4 attempts finished in %v; backoff did not happen", took)
	}

	// Late-starting daemon: the listener appears while Dial is still
	// retrying the same address.
	svc := faultedService(t)
	srv := NewServer(svc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(120 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will fail loudly
		}
		go http.Serve(ln2, srv.Handler())
	}()
	rc, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial to late-starting daemon: %v", err)
	}
	if id, _ := rc.ServerInfo(); id == "" {
		t.Fatal("dial succeeded but ping metadata is empty")
	}
	<-done
}

// TestDialNonTransportErrorFailsFast: an address that answers HTTP but is
// not a mycroft daemon must fail immediately — retrying a handshake
// mismatch would just hide a misconfiguration for seconds.
func TestDialNonTransportErrorFailsFast(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	defer ts.Close()
	start := time.Now()
	_, err := Dial(ts.URL)
	if err == nil {
		t.Fatal("dial to non-daemon succeeded")
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatalf("application-level failure misreported as ErrUnreachable: %v", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("non-transport failure took %v; should not have retried", took)
	}
}

// TestShutdownAnnouncesBeforeClose: a daemon going down must tell its live
// subscribers so — the last event on every stream is the server-shutdown
// lifecycle marker, whatever the stream's filter, and the stream then ends
// cleanly rather than erroring.
func TestShutdownAnnouncesBeforeClose(t *testing.T) {
	svc := faultedService(t)
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]*Stream{
		"everything":    rc.Subscribe(EventFilter{}),
		"triggers only": rc.Subscribe(EventFilter{Kinds: []EventKind{EventTrigger}}),
	}
	for name, st := range streams {
		if err := st.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	srv.Advance(20 * time.Second) // some real traffic first

	if n := srv.AnnounceShutdown(); n != 1 {
		t.Fatalf("AnnounceShutdown reached %d job log(s), want 1", n)
	}
	srv.CloseSubscriptions()

	for name, st := range streams {
		var last Event
		got := 0
		for {
			e, ok := st.NextWait(5 * time.Second)
			if !ok {
				break
			}
			last, got = e, got+1
		}
		if !st.isClosed() {
			t.Fatalf("%s: stream still open after the daemon closed its tails", name)
		}
		if got == 0 {
			t.Fatalf("%s: stream delivered nothing", name)
		}
		if last.Kind != EventLifecycle || last.Phase != PhaseServerShutdown || last.Job != "trace" {
			t.Fatalf("%s: final event is %v, want job trace's lifecycle %q", name, last, PhaseServerShutdown)
		}
		if err := st.Err(); err != nil {
			t.Fatalf("%s: announced shutdown still errored the stream: %v", name, err)
		}
	}
}

// TestRemoteStreamSeveralJobs: one remote stream over a daemon hosting two
// jobs reads each job's log on its own tail, yet an Each handler never runs
// twice at once, and the stream ends only once both jobs' tails are closed,
// with each job's server-shutdown marker delivered.
func TestRemoteStreamSeveralJobs(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	for i, job := range []JobID{"a", "b"} {
		h, err := svc.AddJob(job, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h.Inject(Fault{Kind: NICDown, Rank: Rank(2 + i), At: 15 * time.Second})
	}
	svc.Start()
	srv := NewServer(svc)
	st := serveDaemon(t, srv, false).Subscribe(EventFilter{})
	var got []Event
	var running atomic.Int32
	var overlapped atomic.Bool
	st.Each(func(e Event) {
		if running.Add(1) > 1 {
			overlapped.Store(true)
		}
		time.Sleep(200 * time.Microsecond) // a handler that takes a while
		got = append(got, e)
		running.Add(-1)
	})
	for i := 0; i < 30; i++ {
		srv.Advance(time.Second)
	}
	srv.AnnounceShutdown()
	srv.CloseSubscriptions()
	for deadline := time.Now().Add(10 * time.Second); !st.isClosed(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stream still open after the daemon closed its tails")
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Error("the Each handler ran on two tails at once")
	}
	reports, shutdowns := map[JobID]int{}, map[JobID]int{}
	for _, e := range got {
		switch {
		case e.Kind == EventReport:
			reports[e.Job]++
		case e.Phase == PhaseServerShutdown:
			shutdowns[e.Job]++
		}
	}
	for _, job := range []JobID{"a", "b"} {
		if reports[job] == 0 || shutdowns[job] != 1 {
			t.Errorf("job %s: %d report(s), %d shutdown marker(s) in %d events", job, reports[job], shutdowns[job], len(got))
		}
	}
}

// TestLostSubscriptionTyped: when the daemon behind a live stream restarts
// at the same address, its event log starts over and the stream's cursor
// means nothing there. The stream must fail with the typed
// ErrSubscriptionLost — not go silently empty — through either client.
func TestLostSubscriptionTyped(t *testing.T) {
	for _, via := range remoteClients {
		t.Run(via.name, func(t *testing.T) {
			var handler atomic.Value
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				handler.Load().(http.Handler).ServeHTTP(w, r)
			}))
			defer ts.Close()
			boot := func() *Server {
				srv := NewServer(faultedService(t))
				if via.clustered {
					enableSolo(t, srv, ts.URL)
				}
				handler.Store(srv.Handler())
				return srv
			}
			boot().Advance(20 * time.Second)

			st := dialVia(t, ts.URL, via.clustered).Subscribe(EventFilter{})
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}

			// "Restart": same address, a fresh server whose run starts over,
			// dispatching seqs the old cursor is already past.
			boot().Advance(20 * time.Second)

			deadline := time.Now().Add(10 * time.Second)
			for st.Err() == nil && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			if err := st.Err(); !errors.Is(err, ErrSubscriptionLost) {
				t.Fatalf("stream error after restart: %v (dropped %d), want ErrSubscriptionLost", err, st.Dropped())
			}
		})
	}
}

// TestSubscribeUnknownJobFails: a subscription naming a job no daemon hosts
// or follows can never deliver, so it fails at once with the daemon's
// refusal instead of staying silently empty, through either client.
func TestSubscribeUnknownJobFails(t *testing.T) {
	for _, via := range remoteClients {
		t.Run(via.name, func(t *testing.T) {
			st := serveDaemon(t, NewServer(faultedService(t)), via.clustered).Subscribe(EventFilter{Jobs: []JobID{"ghost"}})
			if err := st.Err(); err == nil || !strings.Contains(err.Error(), "neither hosts nor follows") {
				t.Fatalf("subscription to an unknown job: err %v, want the daemon's refusal", err)
			}
			if _, ok := st.NextWait(time.Second); ok {
				t.Fatal("failed stream delivered an event")
			}
		})
	}
}

// clusterPeer is one mycroft-serve stand-in for the failover tests: a real
// Server with cluster mode enabled, listening on loopback.
type clusterPeer struct {
	name    string
	addr    string
	svc     *Service
	srv     *Server
	hs      *http.Server
	handles map[JobID]*JobHandle
}

// startCluster boots a fleet of peers sharding jobs by ring primary,
// exactly as `mycroft-serve -cluster-id` does, and returns them keyed by
// name. replicas is the R passed to every peer.
func startCluster(t *testing.T, peerNames []string, jobs []JobID, replicas int) map[string]*clusterPeer {
	t.Helper()
	addrs := make(map[string]string, len(peerNames))
	lns := make(map[string]net.Listener, len(peerNames))
	for _, name := range peerNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[name] = ln
		addrs[name] = ln.Addr().String()
	}
	ring := cluster.NewRing(peerNames, 0)
	peers := make(map[string]*clusterPeer, len(peerNames))
	for _, name := range peerNames {
		p := &clusterPeer{name: name, addr: addrs[name], handles: make(map[JobID]*JobHandle)}
		p.svc = NewService(ServiceOptions{Seed: 1})
		for _, job := range jobs {
			if ring.Primary(string(job)) != name {
				continue
			}
			h, err := p.svc.AddJob(job, JobOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p.handles[job] = h
		}
		p.srv = NewServer(p.svc)
		err := p.srv.EnableCluster(ClusterConfig{
			ID: "test", Self: name, SelfAddr: addrs[name],
			Peers: addrs, Replicas: replicas,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.svc.Start()
		p.hs = &http.Server{Handler: p.srv.Handler()}
		go p.hs.Serve(lns[name])
		peers[name] = p
		t.Cleanup(func() { p.hs.Close() })
	}
	return peers
}

// TestClusterFailover is the tentpole acceptance test: with replication
// factor 2, kill -9 the primary of a job mid-subscription and the
// DialCluster client must keep answering queries for that job from a
// replica AND resume the live event stream there, with drops bounded and
// reported via Stream.Dropped.
func TestClusterFailover(t *testing.T) {
	jobs := []JobID{"job-0", "job-1", "job-2", "job-3"}
	peers := startCluster(t, []string{"p1", "p2", "p3"}, jobs, 2)

	// Pinned placement (asserted by TestRingPinnedPlacement): job-0's
	// primary is p2 — the peer this test kills.
	primary := peers["p2"]
	h, ok := primary.handles["job-0"]
	if !ok {
		t.Fatal("placement drifted: p2 no longer hosts job-0")
	}
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})

	cc, err := DialCluster([]string{peers["p1"].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	st := cc.Subscribe(EventFilter{Jobs: []JobID{"job-0"}})
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	// Drive every engine 40 virtual seconds, replicating after each step so
	// the followers stay caught up — the daemon's replication loop, made
	// deterministic.
	for i := 0; i < 40; i++ {
		for _, p := range peers {
			p.srv.Advance(time.Second)
			if errs := p.srv.ReplicateNow(); len(errs) > 0 {
				t.Fatalf("replication: %v", errs[0])
			}
		}
	}

	// Mid-subscription: at least one live event has arrived from the
	// primary before it dies. It stays buffered for the checks below.
	for deadline := time.Now().Add(5 * time.Second); st.Len() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no events before failover")
		}
	}

	// kill -9 the primary: listener and every open connection die at once.
	primary.hs.Close()

	// Queries for job-0 must fail over to a replica and keep answering.
	trig, err := cc.QueryTriggers(TriggerQuery{Jobs: []JobID{"job-0"}})
	if err != nil {
		t.Fatalf("triggers after primary death: %v", err)
	}
	if len(trig.Triggers) == 0 {
		t.Fatal("replica served no triggers for job-0")
	}
	tri, err := cc.Triage("job-0")
	if err != nil {
		t.Fatalf("triage after primary death: %v", err)
	}
	if tri.Summary == "" {
		t.Fatal("replica triage returned an empty summary")
	}
	if cc.Failovers() == 0 {
		t.Fatal("failover happened but Failovers() is 0")
	}

	// The event stream resumes on the replica: drain what the replicated
	// log still holds and confirm the incident made it through.
	var sawTrigger, sawReport bool
	for !(sawTrigger && sawReport) {
		e, ok := st.NextWait(5 * time.Second)
		if !ok {
			break
		}
		switch e.Kind {
		case EventTrigger:
			sawTrigger = true
		case EventReport:
			sawReport = true
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream errored across failover: %v", err)
	}
	if !sawTrigger || !sawReport {
		t.Fatalf("incident lost across failover: trigger=%v report=%v dropped=%d",
			sawTrigger, sawReport, st.Dropped())
	}
	// Followers were replicated after every advance, so the bounded drop
	// count is exactly zero here; a lagging replica would surface the gap.
	if d := st.Dropped(); d != 0 {
		t.Fatalf("fully-replicated failover reported %d drops", d)
	}

	// The replica answers the raw tail endpoint for the dead primary's job
	// from seq 1 — this is the primitive the resumed subscription rides on.
	var tail api.TailResponse
	postJSON(t, "http://"+peers["p1"].addr+api.Prefix+"/tail",
		api.TailRequest{Job: "job-0", AfterSeq: 0, Max: 10}, &tail)
	if len(tail.Entries) == 0 {
		t.Fatal("replica tail returned no entries")
	}
	if tail.Source != "replica" && tail.Source != "promoted" {
		t.Fatalf("tail source %q, want replica or promoted", tail.Source)
	}
	if tail.Entries[0].Seq == 0 {
		t.Fatal("replicated entries lost their primary-assigned seqs")
	}

	// ClusterInfo reflects reality: the killed peer reads as dead.
	info, err := cc.ClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	var p2State string
	for _, p := range info.Peers {
		if p.Name == "p2" {
			p2State = p.State
		}
	}
	if p2State != api.PeerDead {
		t.Fatalf("killed peer reads %q in ClusterInfo, want dead", p2State)
	}
}

// TestClusterHandoffPromotesReplica: a clean SIGTERM path — the draining
// primary flushes replication and hands its jobs off, after which the
// follower answers as "promoted" and its triage carries the verdict.
func TestClusterHandoffPromotesReplica(t *testing.T) {
	jobs := []JobID{"job-0", "job-1", "job-2", "job-3"}
	peers := startCluster(t, []string{"p1", "p2", "p3"}, jobs, 2)
	peers["p2"].handles["job-0"].Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})

	for i := 0; i < 40; i++ {
		for _, p := range peers {
			p.srv.Advance(time.Second)
			p.srv.ReplicateNow()
		}
	}
	if n := peers["p2"].srv.HandoffAll(); n == 0 {
		t.Fatal("handoff transferred nothing")
	}
	peers["p2"].hs.Close()

	var tail api.TailResponse
	postJSON(t, "http://"+peers["p1"].addr+api.Prefix+"/tail",
		api.TailRequest{Job: "job-0", AfterSeq: 0, Max: 10}, &tail)
	if tail.Source != "promoted" {
		t.Fatalf("post-handoff tail source %q, want promoted", tail.Source)
	}
}

// TestClusterRefusesNonMembers: replicate and handoff are admitted only from
// another configured peer. A sender naming this peer itself or no member is
// refused with errNotMember, over the wire as over a direct call, and leaves
// no replica slot behind; the same batch from a member is applied.
func TestClusterRefusesNonMembers(t *testing.T) {
	peers := startCluster(t, []string{"p1", "p2"}, nil, 1)
	sv := peers["p1"].srv
	for _, from := range []string{"intruder", "p1", ""} {
		batch := api.ReplicateRequest{ClusterID: "test", From: from, Job: "ghost",
			Entries: []api.SeqEvent{{Seq: 1, Event: Event{Job: "ghost", Kind: EventHealth}}}, Watermark: 1}
		if _, err := sv.clusterReplicate(batch); !errors.Is(err, errNotMember) {
			t.Fatalf("replicate from %q: %v, want errNotMember", from, err)
		}
		handoff := api.HandoffRequest{ClusterID: "test", From: from, Job: "ghost", Watermark: 1}
		if _, err := sv.clusterHandoff(handoff); !errors.Is(err, errNotMember) {
			t.Fatalf("handoff from %q: %v, want errNotMember", from, err)
		}
		body, _ := json.Marshal(batch)
		resp, err := http.Post("http://"+peers["p1"].addr+api.Prefix+"/cluster/replicate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("replicate from %q over the wire: HTTP %d, want 400", from, resp.StatusCode)
		}
	}
	if jobs := sv.cluster.Load().store.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused senders left replica slots %v", jobs)
	}
	ack, err := sv.clusterReplicate(api.ReplicateRequest{ClusterID: "test", From: "p2", Job: "ghost",
		Entries: []api.SeqEvent{{Seq: 1, Event: Event{Job: "ghost", Kind: EventHealth}}}, Watermark: 1})
	if err != nil || ack.AckSeq != 1 {
		t.Fatalf("replicate from member p2: %+v, %v", ack, err)
	}
}

// TestClusterMultiJobQuery: a paged query naming several jobs whose primaries
// differ must answer with the union of the single-job answers — each listed
// job is placed by the ring like a single-job call, so no peer is asked about
// a mix of jobs it hosts and jobs it merely follows — and must keep doing so
// from replicas once one of the primaries is gone.
func TestClusterMultiJobQuery(t *testing.T) {
	// Pinned placement: job-0 lives on p2 and replicates to p1, job-2 the
	// other way round — each of the two hosts one job and follows the other,
	// and p3 holds neither.
	both := []JobID{"job-0", "job-2"}
	peers := startCluster(t, []string{"p1", "p2", "p3"}, both, 1)
	peers["p2"].handles["job-0"].Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	peers["p1"].handles["job-2"].Inject(Fault{Kind: GPUHang, Rank: 2, At: 20 * time.Second})
	for i := 0; i < 50; i++ {
		for _, p := range peers {
			p.srv.Advance(time.Second)
			if errs := p.srv.ReplicateNow(); len(errs) > 0 {
				t.Fatalf("replication: %v", errs[0])
			}
		}
	}
	cc, err := DialCluster([]string{peers["p3"].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	check := func(when string) {
		t.Helper()
		var trig []JobTrigger
		var reps []JobReport
		for _, job := range both {
			tr, err := cc.QueryTriggers(TriggerQuery{Jobs: []JobID{job}})
			if err != nil || tr.Total == 0 {
				t.Fatalf("%s: triggers of %s alone: %d, %v", when, job, tr.Total, err)
			}
			trig = append(trig, tr.Triggers...)
			rp, err := cc.QueryReports(ReportQuery{Jobs: []JobID{job}})
			if err != nil || rp.Total == 0 {
				t.Fatalf("%s: reports of %s alone: %d, %v", when, job, rp.Total, err)
			}
			reps = append(reps, rp.Reports...)
		}
		sort.SliceStable(trig, func(i, j int) bool { return trig[i].At < trig[j].At })
		sort.SliceStable(reps, func(i, j int) bool { return reps[i].AnalyzedAt < reps[j].AnalyzedAt })

		gotTrig, err := cc.QueryTriggers(TriggerQuery{Jobs: both})
		if err != nil {
			t.Fatalf("%s: triggers of both jobs: %v", when, err)
		}
		if gotTrig.Total != len(trig) || gotTrig.NextOffset != -1 || !reflect.DeepEqual(gotTrig.Triggers, trig) {
			t.Fatalf("%s: triggers of both jobs = %+v, want the union %+v", when, gotTrig, trig)
		}
		gotReps, err := cc.QueryReports(ReportQuery{Jobs: both})
		if err != nil {
			t.Fatalf("%s: reports of both jobs: %v", when, err)
		}
		if gotReps.Total != len(reps) || !reflect.DeepEqual(gotReps.Reports, reps) {
			t.Fatalf("%s: reports of both jobs = %+v, want the union %+v", when, gotReps, reps)
		}
		// The merged set pages like any other.
		page, err := cc.QueryTriggers(TriggerQuery{Jobs: both, Offset: 1, Limit: 1})
		if err != nil || page.Total != len(trig) || len(page.Triggers) != 1 || !reflect.DeepEqual(page.Triggers[0], trig[1]) {
			t.Fatalf("%s: second trigger of both jobs = %+v, %v", when, page, err)
		}
		if rem, err := cc.QueryRemediations(RemediationQuery{Jobs: both}); err != nil || rem.Total != 0 {
			t.Fatalf("%s: remediations of both jobs: %+v, %v", when, rem, err)
		}
	}
	check("fleet whole")
	peers["p2"].hs.Close() // kill -9 job-0's primary
	check("job-0 on a replica")
	if cc.Failovers() == 0 {
		t.Fatal("job-0 answered after its primary died, yet Failovers() is 0")
	}
}

// TestClusterHealthPrefersLive: a follower's replicated health row never
// shadows the primary's live one, even when the follower's name sorts first
// and its snapshot has gone stale.
func TestClusterHealthPrefersLive(t *testing.T) {
	// Pinned placement as in TestClusterMultiJobQuery: job-0 lives on p2 and
	// replicates to p1.
	peers := startCluster(t, []string{"p1", "p2", "p3"}, []JobID{"job-0", "job-2"}, 1)
	for _, p := range peers {
		p.srv.Advance(5 * time.Second)
		if errs := p.srv.ReplicateNow(); len(errs) > 0 {
			t.Fatalf("replication: %v", errs[0])
		}
	}
	peers["p2"].srv.Advance(20 * time.Second) // p1's snapshot of job-0 goes stale
	cc, err := DialCluster([]string{peers["p3"].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	live, err := peers["p2"].svc.Health()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cc.Health()
	if err != nil {
		t.Fatal(err)
	}
	row := func(res HealthResult) JobHealth {
		for _, j := range res.Jobs {
			if j.Job == "job-0" {
				return j
			}
		}
		t.Fatalf("no job-0 row in %+v", res.Jobs)
		return JobHealth{}
	}
	got, want := row(merged), row(live)
	got.Source = ""
	if got != want {
		t.Fatalf("cluster health row for job-0 = %+v, want the primary's live %+v", got, want)
	}
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReplicationLag measures one full replication round over loopback
// HTTP: after one virtual second of fleet activity, ship the event-log
// suffix and snapshot to the follower. The reported events/op is how much log each round moved.
func BenchmarkReplicationLag(b *testing.B) {
	names := []string{"a", "b"}
	ring := cluster.NewRing(names, 0)
	primaryName := ring.Primary("trace")

	addrs := make(map[string]string, 2)
	lns := make(map[string]net.Listener, 2)
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[name] = ln
		addrs[name] = ln.Addr().String()
	}
	var primary *Server
	for _, name := range names {
		svc := NewService(ServiceOptions{Seed: 1})
		if name == primaryName {
			h, err := svc.AddJob("trace", JobOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Stop()
		}
		srv := NewServer(svc)
		err := srv.EnableCluster(ClusterConfig{
			ID: "bench", Self: name, SelfAddr: addrs[name], Peers: addrs, Replicas: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		svc.Start()
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[name])
		defer hs.Close()
		if name == primaryName {
			primary = srv
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		primary.Advance(time.Second)
		if errs := primary.ReplicateNow(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
	b.StopTimer()
	if cl := primary.cluster.Load(); cl != nil {
		b.ReportMetric(float64(cl.mReplEvents.Value())/float64(b.N), "events/op")
	}
}
