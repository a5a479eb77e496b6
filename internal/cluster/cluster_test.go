package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/remedy"
)

func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing([]string{"alpha", "beta", "gamma"}, 64)
	b := NewRing([]string{"gamma", "alpha", "beta", "alpha"}, 64) // order + dups must not matter
	if a.Size() != 3 || b.Size() != 3 {
		t.Fatalf("size: %d / %d", a.Size(), b.Size())
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("job-%d", i)
		ca, cb := a.Candidates(key, 3), b.Candidates(key, 3)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("placement diverged for %s: %v vs %v", key, ca, cb)
		}
		if len(ca) != 3 {
			t.Fatalf("want 3 distinct candidates, got %v", ca)
		}
		seen := map[string]bool{}
		for _, p := range ca {
			if seen[p] {
				t.Fatalf("duplicate candidate in %v", ca)
			}
			seen[p] = true
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	r := NewRing([]string{"alpha", "beta", "gamma"}, 64)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[r.Primary(fmt.Sprintf("job-%d", i))]++
	}
	for _, p := range r.Peers() {
		if counts[p] == 0 {
			t.Fatalf("peer %s owns nothing: %v", p, counts)
		}
	}
}

// TestRingPinnedPlacement pins the FNV-1a placement for the exact peer
// names and job ids the CI 3-peer smoke uses. If this test's expectations
// ever change, .github/workflows/ci.yml's cluster-smoke step (which
// hardcodes the primary it kills) must change with it.
func TestRingPinnedPlacement(t *testing.T) {
	r := NewRing([]string{"p1", "p2", "p3"}, DefaultVNodes)
	want := map[string][]string{
		"job-0": {"p2", "p1"},
		"job-1": {"p2", "p3"},
		"job-2": {"p1", "p2"},
		"job-3": {"p3", "p2"},
	}
	for key, exp := range want {
		if got := r.Candidates(key, 2); !reflect.DeepEqual(got, exp) {
			t.Fatalf("placement moved: %s -> %v (CI expects %v)", key, got, exp)
		}
	}
	if p := r.Primary("job-0"); p != "p2" {
		t.Fatalf("job-0 primary moved: %s (CI kills p2)", p)
	}
}

func TestEventLogAppendAndTail(t *testing.T) {
	l := NewEventLog()
	for i := 0; i < 10; i++ {
		seq := l.Append(api.Event{Job: "j", Kind: core.EventTrigger, At: time.Duration(i)})
		if seq != uint64(i+1) {
			t.Fatalf("seq %d != %d", seq, i+1)
		}
	}
	out, wm := l.TailAfter(7, 100)
	if wm != 10 || len(out) != 3 || out[0].Seq != 8 {
		t.Fatalf("tail: wm=%d out=%v", wm, out)
	}
	out, _ = l.TailAfter(0, 2)
	if len(out) != 2 || out[1].Seq != 2 {
		t.Fatalf("max clamp: %v", out)
	}
}

func TestEventLogTrimSurfacesAsSeqJump(t *testing.T) {
	l := NewEventLog()
	const n = DefaultLogCap + 6
	for i := 0; i < n; i++ {
		l.Append(api.Event{Job: "j", At: time.Duration(i)})
	}
	if l.Len() != DefaultLogCap || l.Trimmed() != 6 {
		t.Fatalf("len=%d trimmed=%d", l.Len(), l.Trimmed())
	}
	// A reader whose cursor predates the trim sees the jump, never a lie.
	out, wm := l.TailAfter(2, n)
	if wm != n || len(out) != DefaultLogCap || out[0].Seq != 7 {
		t.Fatalf("post-trim tail: wm=%d out=%v", wm, out)
	}
}

func TestEventLogAppendEntriesGapAccounting(t *testing.T) {
	l := NewEventLog()
	gap := l.AppendEntries([]api.SeqEvent{{Seq: 1}, {Seq: 2}, {Seq: 3}})
	if gap != 0 || l.Watermark() != 3 {
		t.Fatalf("clean apply: gap=%d wm=%d", gap, l.Watermark())
	}
	// Duplicate redelivery is idempotent.
	if gap := l.AppendEntries([]api.SeqEvent{{Seq: 2}, {Seq: 3}}); gap != 0 || l.Len() != 3 {
		t.Fatalf("dup apply: gap=%d len=%d", gap, l.Len())
	}
	// A lost batch shows up as an exact gap count.
	if gap := l.AppendEntries([]api.SeqEvent{{Seq: 7}}); gap != 3 {
		t.Fatalf("want gap 3 (seqs 4,5,6), got %d", gap)
	}
	// A fresh follower joining late counts the missed prefix.
	l2 := NewEventLog()
	if gap := l2.AppendEntries([]api.SeqEvent{{Seq: 5}}); gap != 4 {
		t.Fatalf("late join: want gap 4, got %d", gap)
	}
}

func TestEventLogTailWait(t *testing.T) {
	l := NewEventLog()
	done := make(chan []api.SeqEvent, 1)
	go func() {
		out, _ := l.TailWait(0, 10, 2*time.Second, nil)
		done <- out
	}()
	time.Sleep(20 * time.Millisecond)
	l.Append(api.Event{Job: "j", Kind: core.EventTrigger})
	select {
	case out := <-done:
		if len(out) != 1 || out[0].Seq != 1 {
			t.Fatalf("woke with %v", out)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("TailWait never woke")
	}
	// Expired wait returns empty, not an error.
	out, wm := l.TailWait(5, 10, 10*time.Millisecond, nil)
	if len(out) != 0 || wm != 1 {
		t.Fatalf("expired wait: %v wm=%d", out, wm)
	}
	// A closed stop releases a parked reader long before its timeout.
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if out, _ := l.TailWait(5, 10, time.Minute, stop); len(out) != 0 || time.Since(start) > time.Second {
		t.Fatalf("stopped wait: %v after %v", out, time.Since(start))
	}
}

// TestReplicaStoreApplyAndQueries: a batch is acked, its verdicts are what
// the root package's shared query functions read (their
// filter and page rules are pinned there, in TestPagedQueriesShareFilters),
// redeliveries add nothing, an attempt's later transition overwrites its row,
// and a batch naming an enum value this peer does not know never decodes into
// a request at all.
func TestReplicaStoreApplyAndQueries(t *testing.T) {
	attempt := func(outcome remedy.Outcome) *remedy.Attempt {
		return &remedy.Attempt{ID: 1, Action: remedy.Action{Kind: remedy.ActIsolateRank, Rank: 5}, Outcome: outcome, ReportedAt: 300}
	}
	rs := NewReplicaStore()
	req := api.ReplicateRequest{
		From: "p1", Job: "job-0",
		Entries: []api.SeqEvent{
			{Seq: 1, Event: api.Event{Job: "job-0", Kind: core.EventTrigger, At: 100, Trigger: &core.Trigger{Kind: core.TriggerFailure, Rank: 5, At: 100}}},
			{Seq: 2, Event: api.Event{Job: "job-0", Kind: core.EventReport, At: 200, Report: &core.Report{Trigger: core.Trigger{Kind: core.TriggerFailure}, Suspect: 5, Category: "nic", AnalyzedAt: 200}}},
			{Seq: 3, Event: api.Event{Job: "job-0", Kind: core.EventAction, At: 300, Action: attempt(remedy.OutcomePending)}},
			{Seq: 4, Event: api.Event{Job: "job-0", Kind: core.EventHealth, At: 350}},
		},
		Snapshot:  &api.ClusterSnapshot{NowNs: 400, Job: api.JobInfo{ID: "job-0", WorldSize: 8}},
		Watermark: 4,
	}
	resp := rs.Apply(req)
	if resp.AckSeq != 4 || resp.Gap != 0 {
		t.Fatalf("ack: %+v", resp)
	}
	rj := rs.Job("job-0")
	if rj == nil {
		t.Fatal("job not stored")
	}
	if s := rj.Snapshot(); s == nil || s.Job.WorldSize != 8 {
		t.Fatalf("snapshot: %+v", s)
	}
	check := func(when string, logged int) {
		t.Helper()
		if tr := rj.Triggers(); len(tr) != 1 || tr[0].Kind != core.TriggerFailure || tr[0].Rank != 5 || tr[0].At != 100 {
			t.Fatalf("%s: triggers: %+v", when, tr)
		}
		if rp := rj.Reports(); len(rp) != 1 || rp[0].Suspect != 5 || rp[0].Category != "nic" {
			t.Fatalf("%s: reports: %+v", when, rp)
		}
		if tail, _ := rj.Log.TailAfter(0, 10); len(tail) != logged {
			t.Fatalf("%s: verbatim log holds %d entries, want %d", when, len(tail), logged)
		}
	}
	check("first batch", 4)
	if rm := rj.RemediationLog(); len(rm) != 1 || rm[0].Outcome != remedy.OutcomePending {
		t.Fatalf("remediations: %+v", rm)
	}

	// A redelivered batch (its ack was lost) changes nothing; the attempt's
	// next transition replaces its row instead of adding one.
	req.Snapshot = nil
	req.Entries = append(req.Entries, api.SeqEvent{Seq: 5, Event: api.Event{Job: "job-0", Kind: core.EventAction, At: 400, Action: attempt(remedy.OutcomeSucceeded)}})
	if resp := rs.Apply(req); resp.AckSeq != 5 || resp.Gap != 0 {
		t.Fatalf("redelivery: %+v", resp)
	}
	if rm := rj.RemediationLog(); len(rm) != 1 || rm[0].Outcome != remedy.OutcomeSucceeded {
		t.Fatalf("attempt transition: %+v", rm)
	}

	// An entry this peer cannot decode refuses the whole batch: the request
	// fails its JSON decode, so the handler never reaches Apply.
	good, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded api.ReplicateRequest
	if err := json.Unmarshal(good, &decoded); err != nil || !reflect.DeepEqual(decoded, req) {
		t.Fatalf("batch does not survive its own encoding: %v\n got  %+v\n want %+v", err, decoded, req)
	}
	bad := bytes.Replace(good, []byte(`"kind":"failure"`), []byte(`"kind":"from-the-future"`), 1)
	if err := json.Unmarshal(bad, &decoded); err == nil || !strings.Contains(err.Error(), "from-the-future") {
		t.Fatalf("batch with an unknown trigger kind decoded: %v", err)
	}
	check("after redelivery and refusal", 5)
}

func TestNodePlacementAndHealthLadder(t *testing.T) {
	peers := map[string]string{"p1": "127.0.0.1:1", "p2": "127.0.0.1:2", "p3": "127.0.0.1:3"}
	n, err := NewNode("c1", "p2", "127.0.0.1:2", peers, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, reps := n.Placement("job-0")
	if p == "" || len(reps) != 1 || reps[0] == p {
		t.Fatalf("placement: %s %v", p, reps)
	}
	if n.Owns("job-0") != (p == "p2") {
		t.Fatal("Owns disagrees with Placement")
	}

	// Ladder: alive → suspect on one miss → dead on the third → alive on success.
	if n.State("p1") != api.PeerAlive {
		t.Fatalf("initial: %s", n.State("p1"))
	}
	n.MarkContact("p1", false)
	if n.State("p1") != api.PeerSuspect {
		t.Fatalf("after 1 miss: %s", n.State("p1"))
	}
	n.MarkContact("p1", false)
	n.MarkContact("p1", false)
	if n.State("p1") != api.PeerDead {
		t.Fatalf("after 3 misses: %s", n.State("p1"))
	}
	n.MarkContact("p1", true)
	if n.State("p1") != api.PeerAlive {
		t.Fatalf("after recovery: %s", n.State("p1"))
	}
	if n.State("p2") != api.PeerAlive { // self
		t.Fatal("self must read alive")
	}
}

func TestNodeGossipMergeByFreshness(t *testing.T) {
	peers := map[string]string{"p1": "a", "p2": "b", "p3": "c"}
	n, _ := NewNode("c1", "p1", "a", peers, 1)
	n.MarkContact("p3", false)
	n.MarkContact("p3", false)
	n.MarkContact("p3", false)
	if n.State("p3") != api.PeerDead {
		t.Fatal("setup: p3 should be dead")
	}
	// A fresher gossip row saying p3 recovered wins.
	n.Merge([]api.ClusterPeer{{Name: "p3", State: api.PeerAlive, LastSeenUnixMs: time.Now().Add(time.Second).UnixMilli()}})
	if n.State("p3") != api.PeerAlive {
		t.Fatalf("merge did not revive: %s", n.State("p3"))
	}
	// A stale row (LastSeen zero or older) is ignored.
	n.Merge([]api.ClusterPeer{{Name: "p3", State: api.PeerDead}})
	if n.State("p3") != api.PeerAlive {
		t.Fatal("stale row overwrote fresh state")
	}
	// Rows about self or strangers are ignored.
	n.Merge([]api.ClusterPeer{
		{Name: "p1", State: api.PeerDead, LastSeenUnixMs: time.Now().UnixMilli()},
		{Name: "nobody", State: api.PeerDead, LastSeenUnixMs: time.Now().UnixMilli()},
	})
	if n.State("p1") != api.PeerAlive {
		t.Fatal("self row applied")
	}
}

func TestNodeReplicasClamped(t *testing.T) {
	n, _ := NewNode("c1", "solo", "a", map[string]string{"solo": "a"}, 2)
	if n.Replicas != 0 {
		t.Fatalf("solo cluster must clamp R to 0, got %d", n.Replicas)
	}
	_, reps := n.Placement("job-0")
	if len(reps) != 0 {
		t.Fatalf("solo replicas: %v", reps)
	}
}

func BenchmarkClusterRoute(b *testing.B) {
	r := NewRing([]string{"p1", "p2", "p3", "p4", "p5"}, DefaultVNodes)
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Candidates(keys[i%len(keys)], 3)
	}
}

// BenchmarkEventLogAppendFull prices one Append to a log already holding
// DefaultLogCap entries, so every append also ages the oldest out.
func BenchmarkEventLogAppendFull(b *testing.B) {
	l := NewEventLog()
	for i := 0; i < DefaultLogCap; i++ {
		l.Append(api.Event{Job: "j", Kind: core.EventHealth})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(api.Event{Job: "j", Kind: core.EventHealth})
	}
}
