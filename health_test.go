package mycroft

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stallIngest stops the job's training script underneath the service — the
// handle stays started, so from the heartbeat monitor's point of view a live
// job simply went quiet. This is the deterministic stand-in for a crashed
// collector or wedged host.
func stallIngest(h *JobHandle) { h.Job.Stop() }

// TestHealthTransitionsToStale walks the heartbeat ladder: a job whose
// ingest watermark goes quiet crosses healthy → degraded at half the
// staleness threshold and degraded → stale at the full threshold, emitting
// one EventHealth per transition.
func TestHealthTransitionsToStale(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob("trace", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	st := svc.Subscribe(EventFilter{Kinds: []EventKind{EventHealth}})

	svc.Run(5 * time.Second)
	if got := h.Health(); got != HealthHealthy {
		t.Fatalf("health after warmup = %v, want healthy", got)
	}
	if st.Len() != 0 {
		t.Fatalf("healthy run emitted %d health events: %v", st.Len(), st.Drain())
	}

	stallIngest(h)
	svc.Run(25 * time.Second)

	if got := h.Health(); got != HealthStale {
		t.Fatalf("health after stall = %v, want stale", got)
	}
	evs := st.Drain()
	if len(evs) != 2 {
		t.Fatalf("stalled job emitted %d health events, want 2 (degraded, stale): %v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Kind != EventHealth || e.Job != "trace" || e.Health == nil {
			t.Fatalf("event %d is not a health event for the job: %+v", i, e)
		}
	}
	if evs[0].Health.From != HealthHealthy || evs[0].Health.To != HealthDegraded {
		t.Errorf("first transition %v, want healthy -> degraded", evs[0].Health)
	}
	if evs[1].Health.From != HealthDegraded || evs[1].Health.To != HealthStale {
		t.Errorf("second transition %v, want degraded -> stale", evs[1].Health)
	}
	if evs[1].Health.Reason == "" {
		t.Error("stale transition carries no reason")
	}
	if evs[1].At <= evs[0].At {
		t.Errorf("transitions out of order: degraded at %v, stale at %v", evs[0].At, evs[1].At)
	}

	res, err := svc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if res.Server != "" || res.Uptime != 0 {
		t.Errorf("in-process Health carries daemon identity: server %q uptime %v", res.Server, res.Uptime)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("Health lists %d jobs, want 1", len(res.Jobs))
	}
	jh := res.Jobs[0]
	if jh.Job != "trace" || jh.State != HealthStale || jh.Reason == "" {
		t.Errorf("job health %+v, want stale with a reason", jh)
	}
	if jh.LastIngest != evs[1].Health.LastIngest {
		t.Errorf("watermark drifted: Health says %v, stale event said %v", jh.LastIngest, evs[1].Health.LastIngest)
	}
}

// TestHealthOverWire is the wire half: the same stalled run must deliver
// identical EventHealth events through a daemon subscription — over Dial and
// over DialCluster to a one-peer cluster — and the daemon's /v1/health
// answer must agree on the job verdict while adding the process identity the
// in-process call leaves blank.
func TestHealthOverWire(t *testing.T) {
	run := func(h *JobHandle, advance func(time.Duration)) {
		advance(5 * time.Second)
		stallIngest(h)
		advance(25 * time.Second)
	}
	filter := EventFilter{Kinds: []EventKind{EventHealth}}

	// In-process reference.
	local := NewService(ServiceOptions{Seed: 1})
	lh, err := local.AddJob("trace", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local.Start()
	stLocal := local.Subscribe(filter)
	run(lh, func(d time.Duration) { local.Run(d) })
	want := stLocal.Drain()
	if len(want) == 0 {
		t.Fatal("reference run emitted no health events")
	}
	wantRes, err := local.Health()
	if err != nil {
		t.Fatal(err)
	}

	for _, via := range remoteClients {
		t.Run(via.name, func(t *testing.T) {
			// Identical run behind a daemon.
			remote := NewService(ServiceOptions{Seed: 1})
			rh, err := remote.AddJob("trace", JobOptions{})
			if err != nil {
				t.Fatal(err)
			}
			remote.Start()
			srv := NewServer(remote)
			c := serveDaemon(t, srv, via.clustered)
			stRemote := c.Subscribe(filter)
			if err := stRemote.Err(); err != nil {
				t.Fatal(err)
			}
			run(rh, func(d time.Duration) {
				for driven := time.Duration(0); driven < d; driven += time.Second {
					srv.Advance(time.Second)
				}
			})

			var got []Event
			for len(got) < len(want) {
				e, ok := stRemote.NextWait(5 * time.Second)
				if !ok {
					break
				}
				got = append(got, e)
			}
			if len(got) != len(want) {
				t.Fatalf("remote delivered %d health events, in-process %d", len(got), len(want))
			}
			for i := range want {
				if got[i].String() != want[i].String() || *got[i].Health != *want[i].Health {
					t.Errorf("health event %d differs:\n remote: %v\n local:  %v", i, got[i], want[i])
				}
			}

			res, err := c.Health()
			if err != nil {
				t.Fatal(err)
			}
			if res.Server == "" {
				t.Error("daemon Health carries no server identity")
			}
			if res.Now != wantRes.Now || len(res.Jobs) != 1 || res.Jobs[0] != wantRes.Jobs[0] {
				t.Errorf("daemon job health differs:\n remote: %+v\n local:  %+v", res, wantRes)
			}
		})
	}
}

// TestRemoteTreatsEveryNon200Alike: the server picks a status per failure
// (400 refused, 413 oversize, 500 recovered panic), but a RemoteClient needs
// no table of them — any non-200 surfaces as an error carrying the daemon's
// message, and one without an ErrorResponse body still names the status.
func TestRemoteTreatsEveryNon200Alike(t *testing.T) {
	status, body := 0, ""
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	defer ts.Close()
	rc := &RemoteClient{wire: newWireClient(ts.URL, time.Minute)}
	for _, code := range []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusInternalServerError} {
		status, body = code, `{"error":"the daemon's own words"}`
		if _, err := rc.Health(); err == nil || err.Error() != "the daemon's own words" {
			t.Errorf("HTTP %d with an error body: %v", code, err)
		}
		status, body = code, "<html>a proxy's error page</html>"
		if _, err := rc.Health(); err == nil || !strings.Contains(err.Error(), fmt.Sprint("HTTP ", code)) {
			t.Errorf("HTTP %d without one: %v", code, err)
		}
	}
}

// TestStreamDroppedConcurrent is the slow-consumer accounting test: many
// goroutines publish through Service.dispatch into one tightly-buffered
// stream while a deliberately slow consumer drains it. Every published event
// must be consumed, still buffered, or counted dropped — and the stream's
// drop count must match the service-wide subscription counters exactly.
func TestStreamDroppedConcurrent(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	if _, err := svc.AddJob("j", JobOptions{}); err != nil {
		t.Fatal(err)
	}
	st := svc.Subscribe(EventFilter{Kinds: []EventKind{EventLifecycle}, Buffer: 8})

	const publishers, perPublisher = 8, 400
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				svc.dispatch(Event{Job: "j", Kind: EventLifecycle, Phase: "tick"})
			}
		}()
	}

	published := make(chan struct{})
	var consumed uint64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			if _, ok := st.NextWait(20 * time.Millisecond); ok {
				consumed++
				time.Sleep(50 * time.Microsecond) // deliberately too slow
				continue
			}
			select {
			case <-published: // publishers finished and the stream is dry
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(published)
	<-consumerDone

	total := uint64(publishers * perPublisher)
	dropped := st.Dropped()
	buffered := uint64(st.Len())
	if consumed+buffered+dropped != total {
		t.Errorf("event accounting leaks: consumed %d + buffered %d + dropped %d != published %d",
			consumed, buffered, dropped, total)
	}
	if dropped == 0 {
		t.Error("slow consumer with buffer 8 dropped nothing — test is not exercising overflow")
	}
	if got := svc.subDropped.Value(); got != dropped {
		t.Errorf("obs drop counter %d != stream drop count %d", got, dropped)
	}
	if got := svc.subDelivered.Value(); got != total {
		t.Errorf("obs delivered counter %d != published %d", got, total)
	}
}
