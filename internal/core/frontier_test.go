package core_test

import (
	"slices"
	"testing"
	"time"

	"mycroft"
	"mycroft/internal/clouddb"
	"mycroft/internal/depgraph"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// TestFrontierMatchesStore hosts a 64-rank job through faults that make its
// trace stream irregular: a NIC flap, a GPU straggler, a sync mismatch whose
// rank skips an op, and a proxy crash that silences a rank mid-op. Failure
// analysis reads the dependency graph's frontier in place of the store's
// newest records, so every ingested batch must keep the two stream
// invariants that make them equal (see depgraph.Member), and at every
// evaluation instant the graph's frontier must equal what a scan of the
// store finds: per (rank, communicator) the newest record's op seq, kind and
// time, and per rank the newest record's communicator and whether any record
// is a completion.
func TestFrontierMatchesStore(t *testing.T) {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	h := svc.MustAddJob("", mycroft.JobOptions{Topo: topo.Config{Nodes: 8, GPUsPerNode: 8, TP: 8, PP: 4, DP: 2}})
	db, g := h.Job.DB, h.Backend.Graph()

	type pair struct {
		rank topo.Rank
		comm uint64
	}
	type progress struct {
		seq  uint64
		done bool // the rank has logged the completion of seq
	}
	stream := map[pair]progress{}
	db.AddIngestObserver(func(batch []trace.Record) {
		for _, rec := range batch {
			p := pair{rec.Rank, rec.CommID}
			prev, ok := stream[p]
			switch {
			case ok && rec.OpSeq < prev.seq:
				t.Fatalf("rank %d comm %d: op seq %d after %d", rec.Rank, rec.CommID, rec.OpSeq, prev.seq)
			case ok && rec.OpSeq == prev.seq && prev.done && rec.Kind == trace.KindState:
				t.Fatalf("rank %d comm %d: state log for op %d after its completion", rec.Rank, rec.CommID, rec.OpSeq)
			case ok && rec.OpSeq == prev.seq:
				prev.done = prev.done || rec.Kind == trace.KindCompletion
			default:
				prev = progress{seq: rec.OpSeq, done: rec.Kind == trace.KindCompletion}
			}
			stream[p] = prev
		}
	})

	checks := 0
	h.Backend.SetEvalObserver(func(now sim.Time) {
		checks++
		newest := map[pair]trace.Record{}
		ranks := map[topo.Rank]depgraph.RankFrontier{}
		// Records come in (rank, time) order, so the last one seen wins.
		for _, rec := range db.Query(clouddb.Query{To: now}).Records {
			newest[pair{rec.Rank, rec.CommID}] = rec
			f := ranks[rec.Rank]
			ranks[rec.Rank] = depgraph.RankFrontier{Comm: rec.CommID, Completed: f.Completed || rec.Kind == trace.KindCompletion}
		}
		pairs := 0
		for _, comm := range g.Comms() {
			for _, m := range g.Members(comm) {
				rec, ok := newest[pair{m.Rank, comm}]
				want := depgraph.Member{Rank: rec.Rank, Seq: rec.OpSeq, Kind: rec.Kind, Last: rec.Time}
				if !ok || m != want {
					t.Fatalf("at %v, rank %d comm %d: graph frontier %+v, store's newest record %+v (found %v)", now, m.Rank, comm, m, want, ok)
				}
				pairs++
			}
		}
		if pairs != len(newest) {
			t.Fatalf("at %v: the graph holds %d (rank, comm) frontiers, the store %d", now, pairs, len(newest))
		}
		for r := topo.Rank(0); int(r) < h.WorldSize(); r++ {
			got, ok := g.Rank(r)
			want, wantOK := ranks[r]
			if got != want || ok != wantOK {
				t.Fatalf("at %v, rank %d: graph %+v %v, store %+v %v", now, r, got, ok, want, wantOK)
			}
		}
	})

	for _, f := range []faults.Spec{
		{Kind: faults.NICFlap, Rank: 5, At: 8 * time.Second},
		{Kind: faults.GPUSlow, Rank: 20, Severity: 4, At: 8 * time.Second},
		{Kind: faults.SyncMismatch, Rank: 41, At: 20 * time.Second},
		{Kind: faults.ProxyCrash, Rank: 27, At: 20 * time.Second},
	} {
		h.Inject(f)
	}
	svc.Start()
	svc.Run(40 * time.Second)
	if checks < 30 {
		t.Fatalf("%d evaluation instants checked", checks)
	}
	// The faults shaped the stream: the crashed proxy's rank stopped logging
	// mid-op, and the mismatched rank ran ahead of its DP peers.
	crashed, skipped := false, false
	for _, comm := range g.Comms() {
		members := g.Members(comm)
		for _, m := range members {
			crashed = crashed || (m.Rank == 27 && m.Kind == trace.KindState && m.Last < sim.Time(21*time.Second))
			ahead := m.Rank == 41
			for _, o := range members {
				ahead = ahead && (o.Rank == m.Rank || o.Seq < m.Seq)
			}
			skipped = skipped || ahead
		}
	}
	if !crashed || !skipped {
		t.Fatalf("proxy crash seen %v, sync mismatch seen %v", crashed, skipped)
	}
}

// TestRankStateMatchesStore holds what Algorithm 1 keeps of each sampled rank
// as records ingest to the store, on a 64-rank job whose sampled ranks
// straggle, stall and fall silent. At every evaluation instant t from Window
// on (Algorithm 1 reads nothing before the window fills) the store
// must hold no record of a sampled rank newer than t, and a Query over
// (t−Window, t] must find the kept completions (time and size, in order),
// a state log exactly when the kept state says one falls in the window, and
// one stuck over Window/2 exactly when the kept state says so.
func TestRankStateMatchesStore(t *testing.T) {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: 1})
	h := svc.MustAddJob("", mycroft.JobOptions{Topo: topo.Config{Nodes: 8, GPUsPerNode: 8, TP: 8, PP: 4, DP: 2}})
	db, b := h.Job.DB, h.Backend
	sampled, window := b.Sampled(), b.Config().Window

	var checks, paced, stuckOnly, silent int
	b.SetEvalObserver(func(now sim.Time) {
		if now < sim.Time(window) {
			return // the window is not yet full: Algorithm 1 reads nothing
		}
		for _, r := range sampled {
			if late := db.Query(clouddb.Query{Ranks: []topo.Rank{r}, From: now}).Records; len(late) > 0 {
				t.Fatalf("at %v, rank %d: the store holds a record at %v", now, r, late[0].Time)
			}
			var times []sim.Time
			var bytes []int64
			var states, stuck bool
			for _, rec := range db.Query(clouddb.Query{Ranks: []topo.Rank{r}, From: now.Add(-window), To: now}).Records {
				switch rec.Kind {
				case trace.KindCompletion:
					times, bytes = append(times, rec.Time), append(bytes, rec.MsgSize)
				case trace.KindState:
					states = true
					stuck = stuck || rec.StuckNs > int64(window)/2
				}
			}
			keptTimes, keptBytes, keptStates, keptStuck := b.KeptWindow(r, now)
			if !slices.Equal(keptTimes, times) || !slices.Equal(keptBytes, bytes) || keptStates != states || keptStuck != stuck {
				t.Fatalf("at %v, rank %d: kept completions %v sized %v, state log %v, stuck %v; the store's %v sized %v, %v, %v",
					now, r, keptTimes, keptBytes, keptStates, keptStuck, times, bytes, states, stuck)
			}
			checks++
			switch {
			case len(times) >= 2:
				paced++
			case len(times) == 0 && stuck:
				stuckOnly++
			case len(times) == 0 && !states:
				silent++
			}
		}
	})

	for _, f := range []faults.Spec{
		{Kind: faults.NICDegrade, Rank: 5, Severity: 4, At: 8 * time.Second},
		{Kind: faults.ProxyCrash, Rank: sampled[1], At: 20 * time.Second},
		{Kind: faults.GPUHang, Rank: 20, At: 30 * time.Second},
	} {
		h.Inject(f)
	}
	svc.Start()
	svc.Run(50 * time.Second)
	t.Logf("%d rank windows checked: %d with ≥ 2 completions, %d stuck without one, %d silent", checks, paced, stuckOnly, silent)
	if paced == 0 || stuckOnly == 0 || silent == 0 {
		t.Fatalf("the job never reached every case")
	}
}
