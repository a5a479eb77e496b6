package replay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// rawBatch renders one 'B' entry at 100 ns claiming count records, encoded
// as body, as the first entry of an artifact over the fixture header.
func rawBatch(t testing.TB, count uint32, body ...byte) []byte {
	out := make([]byte, 13, 13+len(body))
	out[0] = byte(EntryBatch)
	binary.LittleEndian.PutUint64(out[1:], 100)
	binary.LittleEndian.PutUint32(out[9:], count)
	return append(prefixOnly(t), frame(append(out, body...))...)
}

// newFlowLiteral is a record opening flow 0: rank 0, comm 7, channel 0, at
// math.MinInt64 + 1, every other field zero.
var newFlowLiteral = []byte{0, 0, 7, 0, 1, 0}

// recordCases are artifacts whose one batch breaks the record encoding, and
// the class of error each must end in.
func recordCases(t testing.TB) []brokenCase {
	atMax := binary.AppendUvarint([]byte{0, 0, 7, 0}, math.MaxUint64) // flow 0 at math.MaxInt64
	return []brokenCase{
		{"unknown flow id", rawBatch(t, 1, 1, 1, 0), ErrCorrupt},
		{"truncated varint", rawBatch(t, 1, 0, 0, 7, 0, 0x80), ErrCorrupt},
		{"time delta that wraps", rawBatch(t, 2, append(append(atMax, 0), 0, 1, 0)...), ErrOutOfOrder},
		{"field mask past the IP bit", rawBatch(t, 1, 0, 0, 7, 0, 1, 0x80, 0x80, 0x01), ErrCorrupt},
		{"IP longer than the slot's", rawBatch(t, 1, append([]byte{0, 0, 7, 0, 1, 0x80, 0x40, 16}, "255.255.255.2555"...)...), ErrCorrupt},
		{"channel past int32", rawBatch(t, 1, append(binary.AppendUvarint([]byte{0, 0, 7}, 1<<32), 1, 0)...), ErrCorrupt},
		{"count over the cap", rawBatch(t, maxBatch+1, newFlowLiteral...), ErrCorrupt},
		{"count over the chunk", rawBatch(t, 3, newFlowLiteral...), ErrCorrupt},
	}
}

// TestRecordLayout pins the record encoding on one flow: a literal opening
// it, a record repeating it, and one moving its op, progress instant and IP.
func TestRecordLayout(t *testing.T) {
	r := trace.Record{Kind: trace.KindState, Time: 5, IP: "10.0.0.1", CommID: 7, Rank: 2, Channel: 1, OpSeq: 3}
	e := &Encoder{flowIDs: make(map[flowKey]uint32)}
	got := e.appendRecord(nil, &r, math.MinInt64)
	want := append([]byte{0, 2, 7, 2}, binary.AppendUvarint(nil, 5-math.MinInt64)...)
	// mask: op seq, progress (5 − 0), kind and IP; then their deltas.
	want = append(want, 0x89, 0x42, 6, 10, 4, 8)
	want = append(want, "10.0.0.1"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("a new flow's literal encodes to\n%v\nwant\n%v", got, want)
	}
	r.Time, r.StuckNs = 9, 4 // still waiting: the progress instant holds
	if got, want := e.appendRecord(nil, &r, 5), []byte{0, 4, 0}; !bytes.Equal(got, want) {
		t.Fatalf("a repeating record encodes to %v, want %v", got, want)
	}
	r.Time, r.OpSeq, r.StuckNs, r.IP = 12, 4, 0, "10.0.0.2"
	// op seq +1 and progress +7; the IP in full.
	want = append([]byte{0, 3, 0x89, 0x40, 2, 14, 8}, "10.0.0.2"...)
	if got := e.appendRecord(nil, &r, 9); !bytes.Equal(got, want) {
		t.Fatalf("a moving record encodes to\n%v\nwant\n%v", got, want)
	}

	dec, err := NewDecoder(bytes.NewReader(rawBatch(t, 1, newFlowLiteral...)))
	if err != nil {
		t.Fatal(err)
	}
	lit := trace.Record{Time: math.MinInt64 + 1, CommID: 7, StuckNs: math.MinInt64 + 1}
	if e, err := dec.Next(); err != nil || len(e.Batch) != 1 || e.Batch[0] != lit {
		t.Fatalf("a bare literal decoded to %+v, err %v; want %+v", e.Batch, err, lit)
	}
}

// roundTrip writes batches, the i-th at i ns, and requires Next to yield
// each field for field.
func roundTrip(t *testing.T, batches [][]trace.Record) {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fuzzHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if err := enc.WriteBatch(int64(i), b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := enc.Close(int64(len(batches))); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range batches {
		if len(want) == 0 {
			continue
		}
		e, err := dec.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j := range want {
			if !reflect.DeepEqual(e.Batch[j], want[j]) {
				t.Fatalf("batch %d record %d decoded to\n%+v\nwant\n%+v", i, j, e.Batch[j], want[j])
			}
		}
	}
	if _, err := dec.Next(); err != io.EOF || !dec.Complete() {
		t.Fatalf("after the last batch: err %v, complete %v", err, dec.Complete())
	}
}

// fuzzHeader is the fixture header over fuzzRanks ranks.
func fuzzHeader() Header {
	h := fixtureHeader()
	h.WorldSize = fuzzRanks
	return h
}

const fuzzRanks = 4

// TestCodecRoundTrip: one flow whose every field moves mid-flow, to extremes
// and back, including the ones a flow normally keeps.
func TestCodecRoundTrip(t *testing.T) {
	r := fixtureRecord(1, 10)
	var batch []trace.Record
	step := func(move func(*trace.Record)) {
		r.Time++
		move(&r)
		batch = append(batch, r)
	}
	step(func(r *trace.Record) {})
	step(func(r *trace.Record) { r.StuckNs = math.MinInt64 })
	step(func(r *trace.Record) { r.StuckNs = math.MaxInt64 })
	step(func(r *trace.Record) {
		r.TotalChunks, r.GPUReady, r.RDMATransmitted, r.RDMADone = math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32
	})
	step(func(r *trace.Record) { r.GPUReady, r.RDMADone = 0, 0 })
	step(func(r *trace.Record) { r.IP = "10.0.0.2" })
	step(func(r *trace.Record) { r.IP = "" })
	step(func(r *trace.Record) { r.IP = "255.255.255.255" })
	step(func(r *trace.Record) { r.Kind, r.Op = trace.KindCompletion, trace.OpBarrier })
	step(func(r *trace.Record) { r.Kind, r.Op = 255, 0 })
	step(func(r *trace.Record) { r.GPUID, r.QPID = math.MinInt32, math.MaxInt32 })
	step(func(r *trace.Record) { r.MsgSize, r.OpSeq = math.MinInt64, math.MaxUint64 })
	step(func(r *trace.Record) { r.Start, r.End = math.MinInt64, math.MaxInt64 })
	step(func(r *trace.Record) { r.Time = math.MaxInt64 })
	roundTrip(t, [][]trace.Record{batch[:7], batch[7:]})
}

// FuzzArtifactRoundTrip: any stream whose records keep each rank's times in
// order comes back from WriteBatch through Next field for field.
func FuzzArtifactRoundTrip(f *testing.F) {
	for k := range fuzzExtremes {
		f.Add(bytes.Repeat([]byte{byte(128 + k)}, 400))
	}
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		seed := make([]byte, 2048)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, fuzzStream(data))
	})
}

// fuzzExtremes are the values a fuzzed field may jump to, widened to 64 bits.
var fuzzExtremes = [...]uint64{0, 1, math.MaxUint32, math.MaxInt64, 1 << 63, math.MaxUint64}

// fuzzIPs are the IPs a fuzzed record may carry.
var fuzzIPs = [...]topo.IP{"", "10.0.0.1", "10.0.0.2", "255.255.255.255"}

// fuzzStream turns data into batches over fuzzRanks ranks, two comms and
// two channels, each rank's times in order. Each field keeps its value from
// the record before, jumps to an extreme, steps a little or takes eight
// bytes of data.
func fuzzStream(data []byte) [][]trace.Record {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	word := func(prev uint64) uint64 {
		switch c := next(); {
		case c < 128:
			return prev
		case int(c) < 128+len(fuzzExtremes):
			return fuzzExtremes[c-128]
		case c < 192:
			return prev + uint64(c&7) - 4
		default:
			var v uint64
			for range 8 {
				v = v<<8 | uint64(next())
			}
			return v
		}
	}
	var last [fuzzRanks]int64
	for i := range last {
		last[i] = int64(word(0))
	}
	var batches [][]trace.Record
	var batch []trace.Record
	var r trace.Record
	for n := 0; len(data) > 0 && n < 4096; n++ {
		r.Rank = topo.Rank(next() % fuzzRanks)
		r.CommID, r.Channel = uint64(next()%2), int32(next()%2)
		room := uint64(math.MaxInt64) - uint64(last[r.Rank])
		dt := word(0)
		if room < math.MaxUint64 {
			dt %= room + 1
		}
		last[r.Rank] = int64(uint64(last[r.Rank]) + dt)
		r.Time = sim.Time(last[r.Rank])
		r.Kind, r.Op = trace.Kind(word(uint64(r.Kind))), trace.OpKind(word(uint64(r.Op)))
		r.IP = fuzzIPs[next()%uint8(len(fuzzIPs))]
		r.GPUID, r.QPID = int32(word(uint64(r.GPUID))), int32(word(uint64(r.QPID)))
		r.OpSeq, r.MsgSize = word(r.OpSeq), int64(word(uint64(r.MsgSize)))
		r.Start, r.End = sim.Time(word(uint64(r.Start))), sim.Time(word(uint64(r.End)))
		r.TotalChunks, r.GPUReady = uint32(word(uint64(r.TotalChunks))), uint32(word(uint64(r.GPUReady)))
		r.RDMATransmitted, r.RDMADone = uint32(word(uint64(r.RDMATransmitted))), uint32(word(uint64(r.RDMADone)))
		r.StuckNs = int64(word(uint64(r.StuckNs)))
		batch = append(batch, r)
		if next()%8 == 0 {
			batches, batch = append(batches, batch), nil
		}
	}
	return append(batches, batch)
}

// TestBatchCap: a batch of maxBatch records writes and decodes; one more is
// refused at write time, leaving what was written decodable, and a count
// over the cap is refused before the decoder sizes a buffer by it.
func TestBatchCap(t *testing.T) {
	recs := make([]trace.Record, maxBatch+1)
	for i := range recs {
		recs[i] = fixtureRecord(i%16, int64(i/16))
	}
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, fixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteBatch(1, recs[:maxBatch]); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteBatch(2, recs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a batch of %d records: got %v, want ErrCorrupt", len(recs), err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if e, err := dec.Next(); err != nil || len(e.Batch) != maxBatch {
		t.Fatalf("the batch at the cap decoded to %d records, err %v", len(e.Batch), err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after the batch at the cap: %v", err)
	}
	recs = nil

	// Enough bytes that only the cap refuses the count.
	data := rawBatch(t, maxBatch+1, make([]byte, minRecord*(maxBatch+1))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = drain(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a count of %d: got %v, want ErrCorrupt", maxBatch+1, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(data)) {
		t.Fatalf("refusing a count over the cap allocated %d B for a %d-B artifact", grew, len(data))
	}
}
