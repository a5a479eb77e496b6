package depgraph

import (
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// FuzzFrontier decodes arbitrary bytes into a record stream that keeps the
// collective library's two trace-stream invariants (per rank and
// communicator, op seqs never decrease, and no state log for op k follows the
// completion of k), feeds it to a graph in batches, and after every batch
// holds Members, Comms and Rank to what a brute-force scan of the stream so
// far gives: per (rank, communicator) the newest record's op seq, kind and
// time, and per rank the newest record's communicator and whether any record
// is a completion.
//
// Each record takes two bytes. The first picks the rank (of 4), the
// communicator (of 3) and whether a batch ends after it; the second the kind,
// how far the op seq advances (0–3; a state log that would follow its op's
// completion advances one more) and how far time moves.
func FuzzFrontier(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x04, 0x01, 0x00, 0x03, 0x80, 0x02})
	f.Add([]byte{0x01, 0x01, 0x01, 0x00, 0x05, 0x0a, 0x09, 0x11, 0x85, 0x00, 0x02, 0x21})
	f.Add([]byte{0x8f, 0xff, 0x0c, 0x10, 0x0c, 0x11, 0x0c, 0x10, 0x83, 0x06})

	f.Fuzz(func(t *testing.T, data []byte) {
		type pair struct {
			rank topo.Rank
			comm uint64
		}
		type progress struct {
			seq  uint64
			done bool
		}
		g := New()
		var stream []trace.Record
		ops := map[pair]progress{}
		clock := map[topo.Rank]sim.Time{}
		batch := 0
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			rank, comm := topo.Rank(a&3), 1+uint64(a>>2&3)%3
			kind := trace.KindState
			if b&1 == 1 {
				kind = trace.KindCompletion
			}
			p := pair{rank, comm}
			op, seen := ops[p]
			advance := uint64(b >> 1 & 3)
			if seen && advance == 0 && op.done && kind == trace.KindState {
				advance = 1
			}
			if advance > 0 {
				op = progress{seq: op.seq + advance}
			}
			op.done = op.done || kind == trace.KindCompletion
			ops[p] = op
			clock[rank] += sim.Time(b>>3) * sim.Time(time.Millisecond)
			stream = append(stream, trace.Record{
				Kind: kind, Time: clock[rank], Rank: rank, CommID: comm, OpSeq: op.seq,
				Op: trace.OpAllReduce, StuckNs: int64(b >> 3),
			})
			if a&0x80 != 0 || i+3 >= len(data) {
				g.ObserveBatch(stream[batch:])
				batch = len(stream)
				checkFrontier(t, g, stream)
			}
		}
	})
}

// checkFrontier compares the graph's frontier reads with a scan of every
// record it has observed.
func checkFrontier(t *testing.T, g *Graph, stream []trace.Record) {
	t.Helper()
	newest := map[uint64]map[topo.Rank]trace.Record{}
	ranks := map[topo.Rank]RankFrontier{}
	for _, rec := range stream {
		if newest[rec.CommID] == nil {
			newest[rec.CommID] = map[topo.Rank]trace.Record{}
		}
		newest[rec.CommID][rec.Rank] = rec
		f := ranks[rec.Rank]
		ranks[rec.Rank] = RankFrontier{Comm: rec.CommID, Completed: f.Completed || rec.Kind == trace.KindCompletion}
	}
	comms := g.Comms()
	if len(comms) != len(newest) {
		t.Fatalf("graph knows comms %v, the stream %d", comms, len(newest))
	}
	for _, comm := range comms {
		members := g.Members(comm)
		if len(members) != len(newest[comm]) {
			t.Fatalf("comm %d: graph members %+v, stream members %d", comm, members, len(newest[comm]))
		}
		for i, m := range members {
			rec, ok := newest[comm][m.Rank]
			want := Member{Rank: rec.Rank, Seq: rec.OpSeq, Kind: rec.Kind, Last: rec.Time}
			if !ok || m != want || (i > 0 && members[i-1].Rank >= m.Rank) {
				t.Fatalf("comm %d member %d: graph %+v, newest record %+v (found %v)", comm, i, m, want, ok)
			}
		}
	}
	for r := topo.Rank(-1); r <= 4; r++ {
		got, ok := g.Rank(r)
		want, wantOK := ranks[r]
		if got != want || ok != wantOK {
			t.Fatalf("rank %d: graph %+v %v, stream %+v %v", r, got, ok, want, wantOK)
		}
	}
}
