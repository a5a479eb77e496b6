package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"mycroft"
)

// dialTestDaemon builds the server half of the acceptance setup: a Service
// seeded exactly like buildService, exposed over real HTTP, driven to the
// horizon in daemon-sized steps.
func dialTestDaemon(t *testing.T, seed int64, fault string, rank int, at, horizon time.Duration, remedyMode bool) *mycroft.RemoteClient {
	t.Helper()
	svc, err := buildService(seed, fault, rank, at, remedyMode)
	if err != nil {
		t.Fatal(err)
	}
	srv := mycroft.NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for driven := time.Duration(0); driven < horizon; driven += time.Second {
		srv.Advance(time.Second)
	}
	rc, err := mycroft.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// listing is a Client whose job listing is fixed.
type listing struct {
	mycroft.Client
	jobs mycroft.JobsResult
}

func (l listing) ListJobs() (mycroft.JobsResult, error) { return l.jobs, nil }

// TestJobInfoSkipsFollowedJobs: with no -job, a cluster peer that hosts one
// job and follows another reports on the one it hosts; a followed job is
// still reachable by name.
func TestJobInfoSkipsFollowedJobs(t *testing.T) {
	c := listing{jobs: mycroft.JobsResult{Jobs: []mycroft.JobInfo{
		{ID: "followed", Source: "replica"},
		{ID: "hosted"},
	}}}
	if _, info, err := jobInfo(c, ""); err != nil || info.ID != "hosted" {
		t.Fatalf("jobInfo without -job = %q, %v; want the hosted job", info.ID, err)
	}
	if _, info, err := jobInfo(c, "followed"); err != nil || info.ID != "followed" {
		t.Fatalf("jobInfo -job followed = %q, %v", info.ID, err)
	}
	c.jobs.Jobs = append(c.jobs.Jobs, mycroft.JobInfo{ID: "second"})
	if _, _, err := jobInfo(c, ""); err == nil {
		t.Fatal("jobInfo without -job picked one of two hosted jobs")
	}
}

// TestRemoteOutputByteIdentical is the PR's acceptance criterion: every
// mycroft-trace subcommand must render byte-identical output for the same
// seeded run whether it queries an in-process Service or a mycroft-serve
// daemon over the wire.
func TestRemoteOutputByteIdentical(t *testing.T) {
	const (
		seed    = int64(1)
		fault   = "nic-down"
		rank    = 5
		at      = 15 * time.Second
		horizon = 40 * time.Second
	)

	t.Run("store", func(t *testing.T) {
		local, err := buildService(seed, fault, rank, at, false)
		if err != nil {
			t.Fatal(err)
		}
		local.Run(horizon)
		remote := dialTestDaemon(t, seed, fault, rank, at, horizon, false)

		var inproc, overWire bytes.Buffer
		if err := dumpStore(local, "", &inproc, rank, 10, 256); err != nil {
			t.Fatal(err)
		}
		if err := dumpStore(remote, "", &overWire, rank, 10, 256); err != nil {
			t.Fatal(err)
		}
		if inproc.String() != overWire.String() {
			t.Errorf("store dump differs in-process vs -addr:\n--- in-process ---\n%s\n--- over wire ---\n%s", inproc.String(), overWire.String())
		}
		if inproc.Len() == 0 {
			t.Error("store dump is empty")
		}
	})

	t.Run("graph", func(t *testing.T) {
		local, err := buildService(seed, fault, rank, at, false)
		if err != nil {
			t.Fatal(err)
		}
		local.Run(horizon)
		remote := dialTestDaemon(t, seed, fault, rank, at, horizon, false)

		var lo, le, ro, re bytes.Buffer
		if err := dumpGraph(local, "", &lo, &le); err != nil {
			t.Fatal(err)
		}
		if err := dumpGraph(remote, "", &ro, &re); err != nil {
			t.Fatal(err)
		}
		if lo.String() != ro.String() {
			t.Errorf("graph dot differs:\n--- in-process ---\n%s\n--- over wire ---\n%s", lo.String(), ro.String())
		}
		if le.String() != re.String() {
			t.Errorf("graph verdict differs:\n--- in-process ---\n%s\n--- over wire ---\n%s", le.String(), re.String())
		}
		if lo.Len() == 0 || le.Len() == 0 {
			t.Errorf("graph output empty: dot %d bytes, verdict %d bytes", lo.Len(), le.Len())
		}
	})

	t.Run("status", func(t *testing.T) {
		// Remedy mode so the console's remediation footer renders too.
		const statusHorizon = 70 * time.Second
		local, err := buildService(seed, fault, rank, at, true)
		if err != nil {
			t.Fatal(err)
		}
		local.Run(statusHorizon)
		remote := dialTestDaemon(t, seed, fault, rank, at, statusHorizon, true)

		var inproc, overWire bytes.Buffer
		if err := dumpStatus(local, "", &inproc); err != nil {
			t.Fatal(err)
		}
		if err := dumpStatus(remote, "", &overWire); err != nil {
			t.Fatal(err)
		}
		if inproc.String() != overWire.String() {
			t.Errorf("status differs in-process vs -addr:\n--- in-process ---\n%s\n--- over wire ---\n%s", inproc.String(), overWire.String())
		}
		for _, want := range []string{"mycroft status at", "subscriptions:", `job "trace"`, "remediation:"} {
			if !bytes.Contains(inproc.Bytes(), []byte(want)) {
				t.Errorf("status output missing %q:\n%s", want, inproc.String())
			}
		}
	})

	t.Run("spans", func(t *testing.T) {
		// Remedy mode over the full horizon so the waterfall covers the whole
		// pipeline: ingest -> detect -> rca -> publish -> remedy -> verified.
		const spansHorizon = 70 * time.Second
		local, err := buildService(seed, fault, rank, at, true)
		if err != nil {
			t.Fatal(err)
		}
		local.Run(spansHorizon)
		remote := dialTestDaemon(t, seed, fault, rank, at, spansHorizon, true)

		for _, incident := range []string{"", "trigger-1"} {
			var inproc, overWire bytes.Buffer
			if err := dumpSpans(local, "", incident, &inproc); err != nil {
				t.Fatal(err)
			}
			if err := dumpSpans(remote, "", incident, &overWire); err != nil {
				t.Fatal(err)
			}
			if inproc.String() != overWire.String() {
				t.Errorf("spans waterfall (incident=%q) differs in-process vs -addr:\n--- in-process ---\n%s\n--- over wire ---\n%s",
					incident, inproc.String(), overWire.String())
			}
			for _, want := range []string{"incident trigger-1", "rca", "remedy-verify"} {
				if !bytes.Contains(inproc.Bytes(), []byte(want)) {
					t.Errorf("spans output (incident=%q) missing %q:\n%s", incident, want, inproc.String())
				}
			}
		}
	})

	// Two views of the same self-healing run: the audit log and the
	// per-channel counters with the fusion summary.
	for name, view := range map[string]struct {
		dump func(mycroft.Client, mycroft.JobID, io.Writer) error
		want []string
	}{
		"remedy":   {dumpRemedy, []string{"remedy #"}},
		"channels": {dumpChannels, []string{"tracepoint", "fusion (window", "last verdict: single"}},
	} {
		t.Run(name, func(t *testing.T) {
			const remedyHorizon = 70 * time.Second
			local, err := buildService(seed, fault, rank, at, true)
			if err != nil {
				t.Fatal(err)
			}
			local.Run(remedyHorizon)
			remote := dialTestDaemon(t, seed, fault, rank, at, remedyHorizon, true)

			var inproc, overWire bytes.Buffer
			if err := view.dump(local, "", &inproc); err != nil {
				t.Fatal(err)
			}
			if err := view.dump(remote, "", &overWire); err != nil {
				t.Fatal(err)
			}
			if inproc.String() != overWire.String() {
				t.Errorf("%s dump differs:\n--- in-process ---\n%s\n--- over wire ---\n%s", name, inproc.String(), overWire.String())
			}
			for _, want := range view.want {
				if !bytes.Contains(inproc.Bytes(), []byte(want)) {
					t.Errorf("%s dump missing %q:\n%s", name, want, inproc.String())
				}
			}
		})
	}
}
