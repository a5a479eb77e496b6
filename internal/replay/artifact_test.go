package replay

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
		Topo:         TopoInfo{Nodes: 4, GPUsPerNode: 4, TP: 2, PP: 4, DP: 2},
		SampledRanks: []int{0, 2, 4, 6, 8, 10, 12, 14},
		Backend: FromBackendConfig(BackendConfig{
			IntervalNs: 1_000_000_000, WindowNs: 5_000_000_000,
			ThroughputDrop: 0.3, IntervalGrow: 2.0,
			StragglerLateNs: 300_000_000, LateCount: 3, MaxSampled: 8,
			StateFreshNs: 10_000_000_000, StragglerWindowNs: 5_000_000_000,
			StragglerSettleNs: 6_000_000_000, RearmNs: 30_000_000_000,
			MinBaselineSamples: 4, BadWindows: 3, BadWindowSpan: 5,
			FlowPressureFrac: 0.5, ChaseDepth: 4,
		}.Config()),
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

// evalEntry renders one 'V' entry.
func evalEntry(atNs int64) []byte {
	out := make([]byte, 9)
	out[0] = byte(EntryEval)
	binary.LittleEndian.PutUint64(out[1:], uint64(atNs))
	return out
}

// TestCorruptInputs maps every malformed-input class onto its typed error.
// None of these may panic — the decoder fronts untrusted downloads.
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

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOTANARTIFACT___"), ErrBadMagic},
		{"short prefix", good[:4], ErrBadMagic},
		{"future version", withVersion(99), ErrUnsupportedVersion},
		{"truncated header", good[:hdrEnd/2], ErrTruncated},
		{"truncated mid-chunk", good[:hdrEnd+12], ErrTruncated},
		{"crc mismatch", flipInChunk(), ErrCorrupt},
		{"data after footer", append(bytes.Clone(good), 0x00), ErrCorrupt},
		{"unknown entry tag", unknownTag, ErrCorrupt},
		{"out-of-order entries", outOfOrder, ErrOutOfOrder},
		{"footer count mismatch", badFooter, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := drain(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
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

// TestDecodeInternsIP: batches are per host, so the decoder allocates an IP
// string when the host changes, not once per record; what it yields is still
// exactly what was encoded, and a rank's order is still checked across the
// batches of an interleaved second host.
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
		if !reflect.DeepEqual(e.Batch, want[next]) {
			t.Fatalf("batch %d decoded to\n%+v\nwant\n%+v", next, e.Batch, want[next])
		}
		next++
	}
	one() // both hosts seen once: steady state from here
	one()
	// Per batch: the record slice, a chunk payload every few batches, and one
	// IP string because the host alternates.
	perRecord := testing.AllocsPerRun(batches-3, one) / perBatch
	if perRecord >= 0.05 {
		t.Errorf("%.3f allocations per decoded record, want < 0.05", perRecord)
	}
	if _, err := dec.Next(); err != io.EOF || !dec.Complete() {
		t.Fatalf("after the last batch: err %v, complete %v", err, dec.Complete())
	}
}
