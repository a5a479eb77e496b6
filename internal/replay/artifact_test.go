package replay

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden artifact files")

// Fixed fixtures: the golden artifact is byte-pinned, so every value here is
// deliberate — changing any of them (or the wire layout) must show up as a
// golden diff.

func fixtureHeader() Header {
	return Header{
		Job: "job-0", CreatedBy: "replay-test", Seed: 42, WorldSize: 16,
		Topo:         topo.Config{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 4, DP: 2},
		SampledRanks: []int{0, 2, 4, 6, 8, 10, 12, 14},
		Backend: core.Config{
			Interval: time.Second, Window: 5 * time.Second,
			ThroughputDrop: 0.3, IntervalGrow: 2.0,
			StragglerLate: 300 * time.Millisecond, LateCount: 3, MaxSampled: 8,
			StateFresh: 10 * time.Second, StragglerWindow: 5 * time.Second,
			StragglerSettle: 6 * time.Second, RearmDelay: 30 * time.Second,
			MinBaselineSamples: 4, BadWindows: 3, BadWindowSpan: 5,
			FlowPressureFrac: 0.5, ChaseDepth: 4,
		},
		StartNs: 0,
	}
}

func fixtureRecord(rank int, atNs int64) trace.Record {
	return trace.Record{
		Kind: trace.KindState, Time: sim.Time(atNs),
		IP: "10.0.0.1", CommID: 7, Rank: topo.Rank(rank), GPUID: 1, Channel: 0, QPID: 9,
		Op: trace.OpAllReduce, OpSeq: 3, MsgSize: 1 << 20,
		Start:       sim.Time(atNs - 200_000_000),
		TotalChunks: 32, GPUReady: 20, RDMATransmitted: 16, RDMADone: 16, StuckNs: 50_000_000,
	}
}

func fixtureEvent(atNs int64) api.Event {
	return api.Event{Job: "job-0", Kind: core.EventLifecycle, At: time.Duration(atNs), Phase: "start"}
}

// buildFixture encodes the small golden incident: two batches, two evals,
// one event, footer at 2s.
func buildFixture(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		enc.WriteEvent(0, fixtureEvent(0)),
		enc.WriteBatch(100_000_000, []trace.Record{
			fixtureRecord(0, 90_000_000),
			fixtureRecord(2, 95_000_000),
		}),
		enc.WriteEval(1_000_000_000),
		enc.WriteBatch(1_100_000_000, []trace.Record{fixtureRecord(0, 1_090_000_000)}),
		enc.WriteEval(2_000_000_000),
		enc.Close(2_000_000_000),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("fixture step %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// golden compares got against testdata/<name>, rewriting under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -update ./internal/replay` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d bytes vs %d); if the format change is intentional, bump FormatVersion and re-run with -update", name, len(got), len(want))
	}
}

// TestHeaderGolden pins the header's JSON schema: a field rename or type
// change breaks old artifacts, so it must be a conscious golden update.
func TestHeaderGolden(t *testing.T) {
	h := fixtureHeader()
	h.FormatVersion = FormatVersion
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "header.golden.json", append(data, '\n'))
}

// TestArtifactGolden pins the complete binary layout of a small incident.
func TestArtifactGolden(t *testing.T) {
	golden(t, "small.golden.mycrec", buildFixture(t))
}

// TestDecodeRoundTrip checks the golden incident decodes back to exactly
// what was written.
func TestDecodeRoundTrip(t *testing.T) {
	dec, err := NewDecoder(bytes.NewReader(buildFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Header(), fixtureHeader(); !headerEqual(got, want) {
		t.Fatalf("header round-trip:\n got %+v\nwant %+v", got, want)
	}
	var kinds []EntryKind
	var ats []int64
	var records int
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, e.Kind)
		ats = append(ats, e.At)
		records += len(e.Batch)
		if e.Kind == EntryBatch {
			for _, r := range e.Batch {
				if r.CommID != 7 || r.Op != trace.OpAllReduce {
					t.Fatalf("record fields mangled: %+v", r)
				}
			}
		}
	}
	wantKinds := []EntryKind{EntryEvent, EntryBatch, EntryEval, EntryBatch, EntryEval}
	wantAts := []int64{0, 100_000_000, 1_000_000_000, 1_100_000_000, 2_000_000_000}
	if !reflect.DeepEqual(kinds, wantKinds) || !reflect.DeepEqual(ats, wantAts) {
		t.Fatalf("entry stream: kinds %v ats %v", kinds, ats)
	}
	if records != 3 {
		t.Fatalf("decoded %d records, want 3", records)
	}
	f, ok := dec.Footer()
	if !ok || !dec.Complete() {
		t.Fatal("complete artifact reported incomplete")
	}
	if f.EndNs != 2_000_000_000 || f.Records != 3 || f.Evals != 2 || f.Events != 1 {
		t.Fatalf("footer %+v", f)
	}
}

// headerEqual ignores FormatVersion, which NewEncoder stamps itself.
func headerEqual(a, b Header) bool {
	a.FormatVersion, b.FormatVersion = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestIncompleteArtifact: a Sync'd but unclosed capture — the live-download
// snapshot — must decode cleanly and report incomplete.
func TestIncompleteArtifact(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	enc.WriteEval(500_000_000)
	enc.WriteBatch(600_000_000, []trace.Record{fixtureRecord(0, 590_000_000)})
	if err := enc.Sync(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 || dec.Complete() {
		t.Fatalf("incomplete artifact: %d entries, complete=%v", n, dec.Complete())
	}
}

// frame wraps a payload in the chunk framing (length + CRC).
func frame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// prefixOnly returns a valid artifact prefix+header with no chunks.
func prefixOnly(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := NewEncoder(&buf, fixtureHeader()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixWith returns an artifact prefix+header carrying h as given, which
// NewEncoder would refuse to write for a header out of bounds.
func prefixWith(h Header) []byte {
	h.FormatVersion = FormatVersion
	hdr, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	out := append(bytes.Clone(magic[:]), FormatVersion, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(hdr)))
	return append(out, hdr...)
}

// worldPrefix is prefixWith the fixture header resized to world ranks.
func worldPrefix(world int) []byte {
	h := fixtureHeader()
	h.WorldSize = world
	return prefixWith(h)
}

// batchEntry renders one 'B' entry as the first of a stream, whatever its
// records' ranks.
func batchEntry(atNs int64, recs ...trace.Record) []byte {
	e := &Encoder{flowIDs: make(map[flowKey]uint32)}
	out := make([]byte, 13)
	out[0] = byte(EntryBatch)
	binary.LittleEndian.PutUint64(out[1:], uint64(atNs))
	binary.LittleEndian.PutUint32(out[9:], uint32(len(recs)))
	last := map[topo.Rank]int64{}
	for i := range recs {
		l, ok := last[recs[i].Rank]
		if !ok {
			l = math.MinInt64
		}
		out = e.appendRecord(out, &recs[i], l)
		last[recs[i].Rank] = int64(recs[i].Time)
	}
	return out
}

// outOfWorld returns the fixture (16 ranks) with one more batch holding a
// record of the given rank.
func outOfWorld(t testing.TB, rank int) []byte {
	return append(prefixOnly(t), frame(batchEntry(100, fixtureRecord(0, 80), fixtureRecord(rank, 90)))...)
}

// evalEntry renders one 'V' entry.
func evalEntry(atNs int64) []byte {
	out := make([]byte, 9)
	out[0] = byte(EntryEval)
	binary.LittleEndian.PutUint64(out[1:], uint64(atNs))
	return out
}

// TestCorruptInputs maps every malformed-input class onto its typed error,
// through Next and through Replay's read-ahead alike. None of these may
// panic — the decoder fronts untrusted downloads.
func TestCorruptInputs(t *testing.T) {
	good := buildFixture(t)
	hdrEnd := len(prefixOnly(t))
	withVersion := func(v uint16) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint16(b[6:8], v)
		return b
	}
	flipInChunk := func() []byte {
		b := bytes.Clone(good)
		b[hdrEnd+8] ^= 0xff // first payload byte of the first chunk
		return b
	}
	outOfOrder := append(prefixOnly(t), frame(append(evalEntry(200), evalEntry(100)...))...)
	unknownTag := append(prefixOnly(t), frame([]byte{'X', 0, 0, 0, 0, 0, 0, 0, 0})...)
	badFooter := func() []byte {
		f := make([]byte, 33)
		f[0] = byte(entryFooter)
		binary.LittleEndian.PutUint64(f[9:], 99) // claims 99 records, stream has none
		return append(prefixOnly(t), frame(f)...)
	}()

	cases := []brokenCase{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOTANARTIFACT___"), ErrBadMagic},
		{"short prefix", good[:4], ErrBadMagic},
		{"future version", withVersion(99), ErrUnsupportedVersion},
		{"version 1", withVersion(1), ErrUnsupportedVersion},
		{"truncated header", good[:hdrEnd/2], ErrTruncated},
		{"truncated mid-chunk", good[:hdrEnd+12], ErrTruncated},
		{"crc mismatch", flipInChunk(), ErrCorrupt},
		{"data after footer", append(bytes.Clone(good), 0x00), ErrCorrupt},
		{"unknown entry tag", unknownTag, ErrCorrupt},
		{"out-of-order entries", outOfOrder, ErrOutOfOrder},
		{"footer count mismatch", badFooter, ErrCorrupt},
		{"negative rank", outOfWorld(t, -1), ErrCorrupt},
		{"rank equal to the world size", outOfWorld(t, 16), ErrCorrupt},
		{"world size 0", worldPrefix(0), ErrCorrupt},
		{"world size 2^31", worldPrefix(1 << 31), ErrCorrupt},
		{"world size above the bound", worldPrefix(maxWorld + 1), ErrCorrupt},
	}
	for _, tc := range append(cases, recordCases(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			err := drain(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if ahead := drainAhead(tc.data); ahead == nil || ahead.Error() != err.Error() {
				t.Fatalf("the read-ahead ended in %v, Next in %v", ahead, err)
			}
		})
	}
}

// drain decodes data to completion and returns the terminal error (nil for a
// clean EOF).
func drain(data []byte) error {
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := dec.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// TestEncoderRejectsOutOfOrder: the write path enforces the same invariants
// the decoder checks, so every produced artifact decodes.
func TestEncoderRejectsOutOfOrder(t *testing.T) {
	enc, err := NewEncoder(io.Discard, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEval(200); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEval(100); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("backwards entry: got %v", err)
	}
	if err := enc.WriteEval(300); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("encoder did not latch: got %v", err)
	}

	enc2, err := NewEncoder(io.Discard, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc2.WriteBatch(100, []trace.Record{fixtureRecord(0, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := enc2.WriteBatch(200, []trace.Record{fixtureRecord(0, 50)}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("per-rank regression: got %v", err)
	}
}

// TestEncoderRejectsOutOfWorld: the encoder refuses a header world size and a
// record rank the decoder would refuse, so nothing it writes fails to decode.
func TestEncoderRejectsOutOfWorld(t *testing.T) {
	for _, world := range []int{0, -1, maxWorld + 1} {
		h := fixtureHeader()
		h.WorldSize = world
		if _, err := NewEncoder(io.Discard, h); !errors.Is(err, ErrCorrupt) {
			t.Errorf("world size %d: got %v, want ErrCorrupt", world, err)
		}
	}
	if _, err := NewEncoder(io.Discard, func() Header { h := fixtureHeader(); h.WorldSize = maxWorld; return h }()); err != nil {
		t.Errorf("world size %d refused: %v", maxWorld, err)
	}
	for _, rank := range []int{-1, 16, 1 << 20} {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, fixtureHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteBatch(100, []trace.Record{fixtureRecord(0, 80), fixtureRecord(rank, 90)}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("rank %d of 16: got %v, want ErrCorrupt", rank, err)
		}
		if err := enc.Close(200); !errors.Is(err, ErrCorrupt) {
			t.Errorf("rank %d of 16: Close after the refusal: got %v", rank, err)
		}
		if err := drain(buf.Bytes()); err != nil {
			t.Errorf("rank %d of 16: what was written does not decode: %v", rank, err)
		}
	}
}

// FuzzDecodeArtifact: arbitrary bytes must produce a typed error or a clean
// decode — never a panic, never an unbounded allocation.
func FuzzDecodeArtifact(f *testing.F) {
	good := buildFixture(f)
	f.Add([]byte(nil))
	f.Add(good)
	f.Add(prefixOnly(f))
	for _, cut := range []int{3, 7, 11, len(good) / 2, len(good) - 1} {
		if cut < len(good) {
			f.Add(good[:cut])
		}
	}
	f.Add(append(bytes.Clone(good), good...))
	f.Add(outOfWorld(f, -1))
	f.Add(outOfWorld(f, 16))
	f.Add(worldPrefix(0))
	f.Add(worldPrefix(1 << 31))
	f.Add(rawBatch(f, 1, newFlowLiteral...))
	for _, c := range recordCases(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := drain(data)
		if err != nil &&
			!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrUnsupportedVersion) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
			!errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}

// TestChunkClaimCostsItsInput: a chunk frame is only a claim, so 20 bytes
// of input whose frame claims the 64 MiB cap fail ErrTruncated having
// allocated a fraction of a MiB, not the claim.
func TestChunkClaimCostsItsInput(t *testing.T) {
	data := prefixOnly(t)
	frame := binary.LittleEndian.AppendUint32(nil, maxChunk)
	frame = binary.LittleEndian.AppendUint32(frame, 0)
	data = append(append(data, frame...), make([]byte, 12)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := drain(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("drain = %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("a 64 MiB claim on 20 bytes allocated %d bytes, want under 1 MiB", n)
	}
}

// TestDecodeBatchReused: a batch lives in the decoder's buffer until the next
// Next, which overwrites it in place; compared before that call, every batch
// is exactly what was encoded, through a shrink and a regrow of the buffer.
func TestDecodeBatchReused(t *testing.T) {
	sizes := []int{48, 16, 16, 96, 8}
	var want [][]trace.Record
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	at := int64(0)
	for b, n := range sizes {
		batch := make([]trace.Record, n)
		for i := range batch {
			at++
			batch[i] = fixtureRecord((b+i)%16, at)
			batch[i].OpSeq = uint64(at)
		}
		if err := enc.WriteBatch(at, batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch)
	}
	if err := enc.Close(at); err != nil {
		t.Fatal(err)
	}

	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var retained []trace.Record
	for b := range sizes {
		e, err := dec.Next()
		if err != nil || e.Kind != EntryBatch {
			t.Fatalf("batch %d: kind %q, err %v", b, e.Kind, err)
		}
		if !reflect.DeepEqual(e.Batch, want[b]) {
			t.Fatalf("batch %d decoded to\n%+v\nwant\n%+v", b, e.Batch, want[b])
		}
		if b == 1 {
			// Batch 0 was held across this call: batch 1 now sits in its
			// first 16 records.
			if &retained[0] != &e.Batch[0] {
				t.Fatal("a smaller batch did not reuse the buffer")
			}
			if !reflect.DeepEqual(retained[:len(e.Batch)], want[1]) || reflect.DeepEqual(retained, want[0]) {
				t.Fatal("the retained batch was not overwritten by the next one")
			}
		}
		retained = e.Batch
	}
	if _, err := dec.Next(); err != io.EOF || !dec.Complete() {
		t.Fatalf("after the last batch: err %v, complete %v", err, dec.Complete())
	}
}

// TestDecodeInternsIP: a record is decoded over the IP its rank last reported
// from, so with ranks on two hosts whose batches alternate the steady-state
// decode allocates nothing: no record slice, no chunk payload and no IP
// string. What it yields is still exactly what was encoded, and a rank's
// order is still checked across the batches of an interleaved second host.
func TestDecodeInternsIP(t *testing.T) {
	const batches, perBatch = 64, 128 // 8 ranks per host, 16 records each, per batch
	hosts := []topo.IP{"10.0.0.1", "10.0.0.2"}
	var want [][]trace.Record
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		at := int64(b+1) * 1_000_000
		batch := make([]trace.Record, perBatch)
		for i := range batch {
			batch[i] = fixtureRecord(8*(b%2)+i/16, at+int64(i%16))
			batch[i].IP = hosts[b%2]
		}
		if err := enc.WriteBatch(at+16, batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch)
	}
	if err := enc.Close(int64(batches+1) * 1_000_000); err != nil {
		t.Fatal(err)
	}

	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	one := func() {
		e, err := dec.Next()
		if err != nil || e.Kind != EntryBatch {
			t.Fatalf("batch %d: kind %q, err %v", next, e.Kind, err)
		}
		if !slices.Equal(e.Batch, want[next]) {
			t.Fatalf("batch %d decoded to\n%+v\nwant\n%+v", next, e.Batch, want[next])
		}
		next++
	}
	one() // both hosts and the first chunk seen: steady state from here
	one()
	if perBatch := testing.AllocsPerRun(batches-3, one); perBatch != 0 {
		t.Errorf("%.3f allocations per decoded batch, want 0", perBatch)
	}
	if _, err := dec.Next(); err != io.EOF || !dec.Complete() {
		t.Fatalf("after the last batch: err %v, complete %v", err, dec.Complete())
	}
}
