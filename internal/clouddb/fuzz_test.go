package clouddb

import (
	"slices"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// fuzzBytes hands out a fuzz input a few bytes at a time, little-endian, and
// zeros once it runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) uint64 {
	var v uint64
	for i := 0; i < n && len(*b) > 0; i++ {
		v |= uint64((*b)[0]) << (8 * i)
		*b = (*b)[1:]
	}
	return v
}

// roundTripSeeds are FuzzStoreRoundTrip's seed corpus. The last two reach
// the cases sealing must get right (TestRoundTripSeedsReachSealing): the
// third spans 2^37 ns in one narrow segment; the fourth seals a segment of
// 256 rows, then one that jumps 2^40 ns and so is wide, and cuts on the
// boundary between that one and the open segment.
var roundTripSeeds = [][]byte{
	{0x80, 0x00, 0x01, 0x84, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x40},
	{0x40, 0xa1, 0x00, 0xff, 0x25, 0x02, 0xfe, 0xc6, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80},
	{0xff, 0xfd, 0x05, 0x01, 0x02, 0x03, 0x9e, 0x00, 0xff, 0xf8, 0x03, 0x33, 0x57, 0x64},
	{0x00, 0x00, 0x01, 0x00, 0xf8},
	{0xff, 0x80, 0x01, 0xff, 0x01, 0x00, 0x01, 0x80, 0xff, 0xfe, 0x00, 0x00, 0x01},
}

// sealing is what a round trip reached of the cases sealing must get right:
// a narrow segment whose offsets need their fifth byte, a wide sealed
// segment, a sealed segment with more than segRows rows, and a retention cut
// that releases every sealed segment of a rank and keeps all of its open one.
type sealing struct{ fifth, wide, grown, boundary bool }

// FuzzStoreRoundTrip: whatever per-rank time-ordered stream is ingested,
// Query gives back every field of every record, and after a retention
// cut every field of every record the cut keeps.
func FuzzStoreRoundTrip(f *testing.F) {
	for _, seed := range roundTripSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { roundTrip(t, data) })
}

// TestRoundTripSeedsReachSealing: FuzzStoreRoundTrip's seeds reach every case
// sealing must get right, so plain go test runs each.
func TestRoundTripSeedsReachSealing(t *testing.T) {
	var all sealing
	for _, seed := range roundTripSeeds {
		got := roundTrip(t, seed)
		all.fifth, all.wide = all.fifth || got.fifth, all.wide || got.wide
		all.grown, all.boundary = all.grown || got.grown, all.boundary || got.boundary
	}
	if all != (sealing{true, true, true, true}) {
		t.Fatalf("the seeds reach %+v of the sealing cases, want all", all)
	}
}

// roundTrip ingests the stream data describes, checks it back before and
// after a retention cut, and reports which sealing cases it reached. Each
// step's control byte picks the rank, and which of the stuck time, the flow,
// the operation and the counters the record takes afresh from the input
// instead of repeating its rank's last record — a repeated stuck time grows
// with the clock, as a waiting channel's does — and may repeat the record up
// to 255 times, each time bumping one counter or none. Its step byte moves
// the clock 10 ms a unit, or from 0xf8 up (byte − 0xf7) × 2^37 ns. So one
// stream both shares rows and needs one per record, fills segments, and
// grows and widens their open buffers, and reaches any counter and any stuck time, the extremes
// where Time − StuckNs wraps included.
func roundTrip(t *testing.T, data []byte) (reached sealing) {
	in := fuzzBytes(data)
	cutAt := in.next(1) // where in the stream the retention cut falls, in 255ths
	eng := sim.NewEngine(1)
	db := New(eng, time.Second)
	var stream []trace.Record
	last := map[topo.Rank]trace.Record{}
	batch := 0
	check := func(cut sim.Time) {
		t.Helper()
		for r := topo.Rank(0); r < 4; r++ {
			var want []trace.Record
			for _, rc := range stream {
				if rc.Rank == r && rc.Time >= cut {
					want = append(want, rc)
				}
			}
			if got := db.Query(Query{Ranks: []topo.Rank{r}, From: -1}).Records; !slices.Equal(got, want) {
				t.Fatalf("rank %d after a cut at %v: %d records back, want %d\n got %+v\nwant %+v", r, cut, len(got), len(want), got, want)
			}
		}
	}
	for len(in) > 0 && len(stream) < 16*segLen {
		c := in.next(1)
		r := topo.Rank(c & 3)
		rc, seen := last[r]
		if !seen {
			rc = trace.Record{Kind: trace.KindState, Rank: r, IP: "10.0.0.1", Op: trace.OpAllReduce}
		}
		step := sim.Time(in.next(1))
		if step >= 0xf8 {
			step = (step - 0xf7) << 37
		} else {
			step *= sim.Time(10 * time.Millisecond)
		}
		rc.Time += step
		rc.StuckNs += int64(step)
		if c&4 != 0 {
			rc.StuckNs = int64(in.next(8))
		}
		if c&8 != 0 {
			rc.Channel, rc.CommID, rc.Kind = int32(in.next(1)&3), 1+in.next(1)%3, trace.Kind(1+in.next(1)&1)
		}
		if c&16 != 0 {
			rc.OpSeq, rc.Start, rc.End = in.next(8), sim.Time(in.next(8)), sim.Time(in.next(8))
		}
		if c&32 != 0 {
			rc.GPUReady, rc.RDMATransmitted, rc.RDMADone = uint32(in.next(4)), uint32(in.next(4)), uint32(in.next(4))
		}
		stream = append(stream, rc)
		if c&128 != 0 {
			for n, bump := in.next(1), in.next(1)%4; n > 0; n-- {
				switch bump {
				case 1:
					rc.GPUReady++
				case 2:
					rc.RDMATransmitted++
				case 3:
					rc.RDMADone++
				}
				stream = append(stream, rc)
			}
		}
		last[r] = rc
		if c&64 != 0 {
			db.Ingest(slices.Clone(stream[batch:]))
			batch = len(stream)
		}
	}
	if len(stream) == 0 {
		return reached
	}
	db.Ingest(slices.Clone(stream[batch:]))
	check(0)
	var sealed [4]int
	for r := range topo.Rank(4) {
		if s := db.series(r); s != nil {
			l := &s.log
			sealed[r] = len(l.sealed)
			fifth := func(b block, n int) bool { return b.width() == narrow && b.time(n-1)-b.base() >= 1<<32 }
			for _, b := range l.sealed {
				reached.fifth = reached.fifth || fifth(b, segLen)
				reached.wide = reached.wide || b.width() == wide
				reached.grown = reached.grown || b.room() > segRows
			}
			if open := l.head + l.n - len(l.sealed)*segLen; open > 0 {
				reached.fifth = reached.fifth || fifth(l.open, open)
			}
		}
	}
	var newest sim.Time
	for _, rc := range stream {
		newest = max(newest, rc.Time)
	}
	cut := newest / 255 * sim.Time(cutAt)
	eng.RunUntil(cut.Add(time.Second))
	// A record of another rank prunes the store; check reads only
	// ranks 0–3.
	db.Ingest([]trace.Record{{Kind: trace.KindState, Time: eng.Now(), Rank: 4, IP: "10.0.0.2"}})
	check(cut)
	for r := range topo.Rank(4) {
		if s := db.series(r); s != nil && sealed[r] > 0 {
			l := &s.log
			reached.boundary = reached.boundary || len(l.sealed) == 0 && l.head == 0 && l.n > 0
		}
	}
	return reached
}
