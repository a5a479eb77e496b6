package mycroft

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// tracePage is a 256-rank daemon's answer to one rank's trace page: n records
// from one host, with counters and timestamps of realistic width.
func tracePage(n int) TraceResult {
	res := TraceResult{Job: "trace", Records: make([]TraceRecord, n), Total: 4 * n,
		Next: &TraceCursor{Rank: 117, Time: 59_900_000_000, Emitted: n}}
	for i := range res.Records {
		t := sim.Time(40_000_000_000 + int64(i)*100_000_000)
		res.Records[i] = TraceRecord{
			Kind: trace.KindState, Time: t, IP: "10.0.14.5", CommID: 36, Rank: 117, GPUID: 5,
			Channel: int32(i % 4), QPID: 3_600_117, Op: trace.OpAllReduce, OpSeq: uint64(400 + i/8),
			MsgSize: 268_435_456, Start: t - 73_456_789, TotalChunks: 512, GPUReady: 384,
			RDMATransmitted: 320, RDMADone: 256, StuckNs: 1_234_567,
		}
		if i%8 == 7 {
			res.Records[i].Kind, res.Records[i].End = trace.KindCompletion, t
		}
	}
	return res
}

// encoderBytes is the reference encoding of v: what json.Encoder writes.
func encoderBytes(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenTracePages are the /trace/query answers testdata/wire_bodies.golden
// holds, each with the newline json.Encoder ends it with.
func goldenTracePages(t testing.TB) [][]byte {
	raw, err := os.ReadFile("testdata/wire_bodies.golden")
	if err != nil {
		t.Fatal(err)
	}
	var pages [][]byte
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "### ") && strings.Contains(line, " POST /trace/query") {
			pages = append(pages, []byte(lines[i+1]+"\n"))
		}
	}
	if len(pages) < 3 {
		t.Fatalf("wire_bodies.golden holds %d trace pages, want at least 3", len(pages))
	}
	return pages
}

// plainString reports whether encoding/json writes s between quotes as it is.
func plainString(s string) bool {
	return !strings.ContainsFunc(s, func(c rune) bool { return c < 0x20 || c > 0x7e || strings.ContainsRune(`"\<>&`, c) })
}

// FuzzTracePageWire holds the trace page's hand-written codec to
// encoding/json. A page built from the fuzz input — any job and IP strings,
// kinds and ops in and out of their sets, extreme integers, nil, empty and
// full record lists — is written by appendWire exactly as json.Encoder writes
// it whenever appendWire takes it, which it must whenever every string is
// plain and every enum in its set, and parseWire reads those bytes back to an
// equal page. And any body parseWire accepts, json.Unmarshal reads as the same
// page. The seeds are the golden trace pages.
func FuzzTracePageWire(f *testing.F) {
	for _, page := range goldenTracePages(f) {
		f.Add(page, "trace", "10.0.0.1", "10.0.0.2", uint8(trace.KindState), uint8(trace.OpSendRecv), int64(700_000_000), uint64(16_777_216), uint8(5))
	}
	f.Add([]byte(`{"job":"a","records":[],"total":-1}`+"\n"), "a<b&c", "10.0.0.1 ", "\x7f", uint8(0), uint8(200), int64(math.MinInt64), uint64(math.MaxUint64), uint8(2))
	f.Add([]byte(`{"job":"a","records":null,"total":01}`+"\n"), "", "", "10.0.0.1", uint8(3), uint8(7), int64(math.MaxInt64), uint64(math.MaxUint32)+1, uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, job, ip1, ip2 string, kind, op uint8, i int64, u uint64, shape uint8) {
		res := TraceResult{Job: JobID(job), Total: int(i)}
		canonical := plainString(job)
		switch n := int(shape % 8); {
		case shape%3 == 0:
		case shape%3 == 1:
			res.Records = []TraceRecord{}
		default:
			for k := 0; k <= n; k++ {
				r := TraceRecord{
					Kind: trace.Kind(int(kind) + k%2), Time: sim.Time(i - int64(k)), IP: topo.IP(ip1), CommID: u,
					Rank: Rank(i ^ int64(k)), GPUID: int32(i), Channel: int32(u), QPID: int32(i >> 32),
					Op: trace.OpKind(int(op) + k), OpSeq: u - uint64(k), MsgSize: -i, Start: sim.Time(i / 2),
					End: sim.Time(u), TotalChunks: uint32(u), GPUReady: uint32(u >> 32), RDMATransmitted: uint32(i),
					RDMADone: uint32(k), StuckNs: i >> 1,
				}
				if k%3 == 2 {
					r.IP = topo.IP(ip2)
				}
				res.Records = append(res.Records, r)
				canonical = canonical && plainString(string(r.IP)) && r.Kind >= trace.KindCompletion && r.Kind <= trace.KindState && r.Op <= trace.OpBarrier
			}
		}
		if shape&0x80 != 0 {
			res.Next = &TraceCursor{Rank: Rank(u), Time: sim.Time(i), Emitted: int(i) ^ 3}
		}

		got, ok := res.appendWire(nil)
		if ok != canonical {
			t.Fatalf("appendWire took = %v, want %v for %+v", ok, canonical, res)
		}
		if ok {
			if want := encoderBytes(t, &res); !bytes.Equal(got, want) {
				t.Fatalf("appendWire wrote\n%s\njson.Encoder writes\n%s", got, want)
			}
			var back TraceResult
			if !back.parseWire(got) || !reflect.DeepEqual(back, res) {
				t.Fatalf("parseWire did not read back its own page:\n%s\nread %+v", got, back)
			}
		}

		var fast TraceResult
		if fast.parseWire(body) {
			var slow TraceResult
			if err := json.Unmarshal(body, &slow); err != nil {
				t.Fatalf("parseWire took a body json.Unmarshal refuses (%v):\n%s", err, body)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("parseWire read\n%+v\njson.Unmarshal reads\n%+v\nfrom\n%s", fast, slow, body)
			}
		}
	})
}

// TestTracePageDecodeAllocs: a 256-record page from one host decodes in a
// fixed handful of allocations — the record slice, the job and the one IP
// string, the cursor — where json.Unmarshal makes one or more per record.
func TestTracePageDecodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count; -short is how the race job runs")
	}
	page := tracePage(256)
	body := encoderBytes(t, &page)
	var res TraceResult
	allocs := testing.AllocsPerRun(20, func() {
		if !res.parseWire(body) {
			t.Fatal("parseWire declined a canonical page")
		}
	})
	if !reflect.DeepEqual(res, page) {
		t.Fatal("parseWire read a different page")
	}
	t.Logf("%.0f allocations to decode a %d-byte page", allocs, len(body))
	if allocs > 8 {
		t.Errorf("%.0f allocations to decode a 256-record page, want at most 8", allocs)
	}
}

// BenchmarkTracePageWire prices a 256-record page through encoding/json and
// through the trace page's own codec, each way.
func BenchmarkTracePageWire(b *testing.B) {
	page := tracePage(256)
	body := encoderBytes(b, &page)
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if out, err := json.Marshal(&page); err != nil || len(out)+1 != len(body) {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/canonical", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if out, ok := page.appendWire(nil); !ok || len(out) != len(body) {
				b.Fatal("appendWire declined")
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var res TraceResult
			if err := json.Unmarshal(body, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/canonical", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var res TraceResult
			if !res.parseWire(body) {
				b.Fatal("parseWire declined")
			}
		}
	})
}
