package replay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/trace"
)

// pagedFixture encodes a 16-rank artifact several read-ahead pages long: runs
// of 64-record batches with an eval every tenth, one batch larger than a
// page's record buffer, and a run of events longer than a page's entry cap.
// Every record's operation, counters and stuck time are drawn at random, so
// no field repeats its flow's previous record and a record encodes to ~80 B.
// It spans 37 chunks and 9 pages.
func pagedFixture(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	at := int64(0)
	batch := func(n int) {
		recs := make([]trace.Record, n)
		for i := range recs {
			r := fixtureRecord(i%16, at+int64(i/16))
			r.GPUID, r.QPID = rng.Int31(), rng.Int31()
			r.OpSeq, r.MsgSize = rng.Uint64(), rng.Int63()
			r.Start, r.End, r.StuckNs = sim.Time(rng.Int63()), sim.Time(rng.Int63()), rng.Int63()
			r.TotalChunks, r.GPUReady, r.RDMATransmitted, r.RDMADone = rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()
			recs[i] = r
		}
		at += int64(n/16) + 1
		if err := enc.WriteBatch(at, recs); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 400; b++ {
		at += 10_000_000
		batch(64)
		if b%10 == 9 {
			if err := enc.WriteEval(at); err != nil {
				t.Fatal(err)
			}
		}
		switch b {
		case 150:
			batch(pageRecords + 904)
		case 250:
			for range pageEntries + 200 {
				if err := enc.WriteEvent(at, fixtureEvent(at)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := enc.Close(at); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkSpans returns each chunk's [start, end) in data, frame included.
func chunkSpans(t testing.TB, data []byte) [][2]int {
	t.Helper()
	off := 12 + int(binary.LittleEndian.Uint32(data[8:12]))
	var spans [][2]int
	for off < len(data) {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		spans = append(spans, [2]int{off, end})
		off = end
	}
	return spans
}

// brokenCase is an artifact broken in one way, and the class of error
// decoding it must end in.
type brokenCase struct {
	name string
	data []byte
	want error
}

// brokenIn returns the fixture broken inside its k-th chunk (from 1) in each
// of the ways a decode fails there.
func brokenIn(t testing.TB, k int) []brokenCase {
	good := pagedFixture(t)
	c := chunkSpans(t, good)[k-1]
	crc := bytes.Clone(good)
	crc[c[0]+8+100] ^= 0xff
	// The chunk's first entry stamped at 0 ns, under a recomputed CRC.
	order := bytes.Clone(good)
	binary.LittleEndian.PutUint64(order[c[0]+8+1:], 0)
	binary.LittleEndian.PutUint32(order[c[0]+4:], crc32.ChecksumIEEE(order[c[0]+8:c[1]]))
	at := fmt.Sprintf(" in chunk %d", k)
	return []brokenCase{
		{"crc mismatch" + at, crc, ErrCorrupt},
		{"truncated" + at, good[:(c[0]+c[1])/2], ErrTruncated},
		{"out of order" + at, order, ErrOutOfOrder},
	}
}

// serialEntries decodes data with Next, keeping a copy of every entry, and
// returns them with the terminal error (io.EOF at a clean end).
func serialEntries(t testing.TB, data []byte) ([]Entry, error) {
	t.Helper()
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []Entry
	for {
		e, err := dec.Next()
		if err != nil {
			return out, err
		}
		e.Batch = slices.Clone(e.Batch)
		out = append(out, e)
	}
}

// drainAhead is drain through the read-ahead.
func drainAhead(data []byte) error {
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return err
	}
	ra := startReadAhead(dec)
	defer ra.close()
	for {
		p := ra.next()
		err := p.err
		ra.release(p)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// settle waits for the goroutine count to fall back to want.
func settle(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a decoding goroutine outlived its replay", runtime.NumGoroutine(), want)
		}
	}
}

// TestReadAheadMatchesNext: the pages the read-ahead hands over carry exactly
// the entries Next yields, in order, then the same terminal error, on a
// whole artifact and on one broken in its third or its thirtieth chunk.
// Pages are reused, and one outgrows its record buffer.
func TestReadAheadMatchesNext(t *testing.T) {
	// Chunk 3 breaks inside the first page; chunk 30 several pages in.
	cases := append(brokenIn(t, 3), brokenIn(t, 30)...)
	cases = append(cases, brokenCase{"whole", pagedFixture(t), io.EOF})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := serialEntries(t, tc.data)
			if !errors.Is(wantErr, tc.want) {
				t.Fatalf("Next ended in %v, want %v", wantErr, tc.want)
			}
			start := runtime.NumGoroutine()
			dec, err := NewDecoder(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			ra := startReadAhead(dec)
			var got []Entry
			var pagesSeen int
			for {
				p := ra.next()
				pagesSeen++
				for _, e := range p.entries {
					e.Batch = slices.Clone(e.Batch)
					got = append(got, e)
				}
				err = p.err
				ra.release(p)
				if err != nil {
					break
				}
			}
			ra.close()
			settle(t, start)
			if err.Error() != wantErr.Error() {
				t.Fatalf("read-ahead ended in %v, Next in %v", err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("read-ahead yielded %d entries, Next %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("entry %d: read-ahead %+v, Next %+v", i, got[i], want[i])
				}
			}
			if tc.want == io.EOF && pagesSeen <= pages {
				t.Fatalf("the whole fixture filled %d pages; it should have reused some of the %d", pagesSeen, pages)
			}
		})
	}
}

// gatedReader serves its first left bytes, then holds every Read until gate
// is closed. The first Read it holds closes held.
type gatedReader struct {
	r          io.Reader
	left       int
	held, gate chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.left <= 0 {
		if g.held != nil {
			close(g.held)
			g.held = nil
		}
		<-g.gate
	} else if len(p) > g.left {
		p = p[:g.left]
	}
	n, err := g.r.Read(p)
	g.left -= n
	return n, err
}

// TestReadAheadCloseEarly: a caller that stops after one page — a failing
// apply, say — leaves no decoding goroutine behind, and close does not
// return while that goroutine may still read the artifact, here held inside
// a Read of a page not yet handed over.
func TestReadAheadCloseEarly(t *testing.T) {
	start := runtime.NumGoroutine()
	// The first page is ~330 kB: the Read held is one of the second's.
	held := make(chan struct{})
	r := &gatedReader{r: bytes.NewReader(pagedFixture(t)), left: 600 << 10, held: held, gate: make(chan struct{})}
	dec, err := NewDecoder(r)
	if err != nil {
		t.Fatal(err)
	}
	ra := startReadAhead(dec)
	if p := ra.next(); p.err != nil {
		t.Fatalf("first page ended the stream: %v", p.err)
	}
	<-held
	closed := make(chan struct{})
	go func() {
		ra.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while the decoding goroutine was inside a Read")
	case <-time.After(20 * time.Millisecond):
	}
	close(r.gate)
	<-closed
	settle(t, start)
}

// TestReplayReadAheadErrors: Replay over an artifact broken in its third
// chunk returns the class of error the decoder finds there, and the early
// refusals (an overridden evaluation interval or sample cap, a header with no
// sampled ranks) still refuse; after each, no decoding goroutine is left.
// Not skipped under -short, so the race job crosses pages on it.
func TestReplayReadAheadErrors(t *testing.T) {
	start := runtime.NumGoroutine()
	good := pagedFixture(t)
	res, err := Replay(bytes.NewReader(good), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.RecordsIngested != res.Footer.Records || res.Evals != res.Footer.Evals {
		t.Fatalf("whole fixture replayed to %+v", res)
	}
	settle(t, start)

	for _, tc := range brokenIn(t, 3) {
		if _, err := Replay(bytes.NewReader(tc.data), Options{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: Replay returned %v, want %v", tc.name, err, tc.want)
		}
		settle(t, start)
	}

	for _, change := range []func(*Options){
		func(o *Options) { o.Backend.Interval *= 2 },
		func(o *Options) { o.Backend.MaxSampled++ },
	} {
		cfg := fixtureHeader().Backend
		opts := Options{Backend: &cfg}
		change(&opts)
		if _, err := Replay(bytes.NewReader(good), opts); err == nil {
			t.Errorf("Replay accepted an overridden recorded fact: %+v", cfg)
		}
		settle(t, start)
	}

	h := fixtureHeader()
	h.SampledRanks = nil
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(0); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(&buf, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a header with no sampled ranks: Replay returned %v, want %v", err, ErrCorrupt)
	}
	settle(t, start)
}

// panicReader serves its first left bytes, then panics.
type panicReader struct {
	r    io.Reader
	left int
}

func (p *panicReader) Read(b []byte) (int, error) {
	if p.left <= 0 {
		panic("reader gone")
	}
	if len(b) > p.left {
		b = b[:p.left]
	}
	n, err := p.r.Read(b)
	p.left -= n
	return n, err
}

// TestReplayPanicsOnCaller: a panic while decoding — here the caller's own
// reader's — is raised on the goroutine that called Replay, as it was when
// Replay decoded there, and leaves no decoding goroutine behind.
func TestReplayPanicsOnCaller(t *testing.T) {
	start := runtime.NumGoroutine()
	r := &panicReader{r: bytes.NewReader(pagedFixture(t)), left: 600 << 10}
	func() {
		defer func() {
			if v := recover(); v != "reader gone" {
				t.Fatalf("Replay raised %v, want the reader's panic", v)
			}
		}()
		Replay(r, Options{})
		t.Fatal("Replay returned over a reader that panicked")
	}()
	settle(t, start)
}
