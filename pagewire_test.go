package mycroft

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"mycroft/internal/core"
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

// depsPage is a 256-rank job's dependency page: n wait edges across its
// pipeline and data-parallel communicators.
func depsPage(n int) DependencyResult {
	res := DependencyResult{Job: "trace", Edges: make([]DependencyEdge, n)}
	kinds := []DependencyEdgeKind{EdgeBarrier, EdgePipeline, EdgeBarrier, EdgeNested}
	for i := range res.Edges {
		comm := uint64(i/8 + 1)
		res.Edges[i] = DependencyEdge{
			From: DependencyNode{Rank: Rank(i % 256), Comm: comm, Seq: uint64(412 + i%3)},
			To:   DependencyNode{Rank: Rank((i + 8) % 256), Comm: comm, Seq: 411},
			Kind: kinds[i%len(kinds)],
		}
	}
	return res
}

// verdictTrigger is the i-th trigger of a faulted 256-rank job, from one of
// 32 hosts, with the reasons Algorithm 1 writes.
func verdictTrigger(i int) Trigger {
	tr := Trigger{Kind: TriggerFailure, Rank: Rank(i * 37 % 256), At: sim.Time(15_000_000_000 + int64(i)*1_000_000_000),
		CommID: uint64(i%12 + 1), Reason: "no CollOp completed in window"}
	tr.IP = topo.IP(fmt.Sprintf("10.0.%d.%d", tr.Rank/8, tr.Rank%8))
	if i%3 == 0 {
		tr.Kind = TriggerStraggler
		tr.Reason = "throughput 1.7e+07 B/s below 50% of baseline 9.7e+07 B/s in 3 of 5 windows"
	}
	return tr
}

// triggerPage is a page of n triggers from one job.
func triggerPage(n int) TriggerResult {
	res := TriggerResult{Triggers: make([]JobTrigger, n), Total: n, NextOffset: -1}
	for i := range res.Triggers {
		res.Triggers[i] = JobTrigger{Job: "trace", Trigger: verdictTrigger(i)}
	}
	return res
}

// reportPage is a page of n verdicts from one job, each with a two-hop chain,
// a blast radius and one channel's evidence.
func reportPage(n int) ReportResult {
	res := ReportResult{Reports: make([]JobReport, n), Total: n, NextOffset: -1}
	for i := range res.Reports {
		tr := verdictTrigger(i)
		res.Reports[i] = JobReport{Job: "trace", Report: Report{
			Trigger: tr, Suspect: 5, SuspectIP: "10.0.0.5", CommID: 10,
			Category: CatNetworkSendPath, Via: core.ViaMinData, AnalyzedAt: tr.At + 2_000_000_000,
			Details: "ch 0: chunks 4/4/0 of 32, stuck 33.118309306s — outstanding WRs frozen at NIC",
			Chain: []Hop{{Comm: tr.CommID, Suspect: tr.Rank, Via: core.ViaMinOp, Edge: EdgeNested},
				{Comm: 10, Suspect: 5, Via: core.ViaMinData}},
			Victims:    []Rank{0, 1, 2, 3, 4, 6, 7},
			Evidence:   []Evidence{{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, Weight: 0.75, At: tr.At + 2_000_000_000, Detail: "min-data"}},
			Confidence: 0.75,
		}}
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

// goldenBodies are the answers testdata/wire_bodies.golden holds to one
// route, each with the newline json.Encoder ends it with.
func goldenBodies(t testing.TB, route string) [][]byte {
	raw, err := os.ReadFile("testdata/wire_bodies.golden")
	if err != nil {
		t.Fatal(err)
	}
	var pages [][]byte
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "### ") && strings.Contains(line, " 200 POST "+route) {
			pages = append(pages, []byte(lines[i+1]+"\n"))
		}
	}
	if len(pages) < 2 {
		t.Fatalf("wire_bodies.golden holds %d %s answers, want at least 2", len(pages), route)
	}
	return pages
}

// checkWire holds one page's codec to encoding/json. When appendWire takes
// the page, which it must exactly when take is set, it writes json.Encoder's
// bytes, and parseWire reads them back as json.Unmarshal does: as the page
// itself when exact is set, which a caller sets unless a string in the page is
// not valid UTF-8 (both codecs read such a string back with U+FFFD in it).
// And any body parseWire accepts, json.Unmarshal reads as the same page.
func checkWire[P any, PT interface {
	*P
	wireCodec
}](t *testing.T, page PT, take, exact bool, body []byte) {
	t.Helper()
	got, ok := page.appendWire(nil)
	if ok != take {
		t.Fatalf("appendWire took = %v, want %v for %+v", ok, take, *page)
	}
	if ok {
		if want := encoderBytes(t, page); !bytes.Equal(got, want) {
			t.Fatalf("appendWire wrote\n%s\njson.Encoder writes\n%s", got, want)
		}
		want := page
		if !exact {
			want = new(P)
			if err := json.Unmarshal(got, want); err != nil {
				t.Fatalf("json.Unmarshal refuses appendWire's page (%v):\n%s", err, got)
			}
		}
		if back := PT(new(P)); !back.parseWire(got) || !reflect.DeepEqual(back, want) {
			t.Fatalf("parseWire did not read back its own page:\n%s\nread %+v\nwant %+v", got, *back, *want)
		}
	}
	if fast := PT(new(P)); fast.parseWire(body) {
		slow := new(P)
		if err := json.Unmarshal(body, slow); err != nil {
			t.Fatalf("parseWire took a body json.Unmarshal refuses (%v):\n%s", err, body)
		}
		if !reflect.DeepEqual(fast, PT(slow)) {
			t.Fatalf("parseWire read\n%+v\njson.Unmarshal reads\n%+v\nfrom\n%s", *fast, *slow, body)
		}
	}
}

// FuzzTracePageWire holds the trace page's codec to encoding/json (see
// checkWire). A page built from the fuzz input has any job and IP strings,
// kinds and ops in and out of their sets, extreme integers, and nil, empty and
// full record lists; appendWire must take it whenever every kind and op is in
// its set. The seeds are the golden trace pages.
func FuzzTracePageWire(f *testing.F) {
	for _, page := range goldenBodies(f, "/trace/query") {
		f.Add(page, "trace", "10.0.0.1", "10.0.0.2", uint8(trace.KindState), uint8(trace.OpSendRecv), int64(700_000_000), uint64(16_777_216), uint8(5))
	}
	f.Add([]byte(`{"job":"a","records":[],"total":-1}`+"\n"), "a<b&c", "10.0.0.1 ", "\x7f", uint8(0), uint8(200), int64(math.MinInt64), uint64(math.MaxUint64), uint8(2))
	f.Add([]byte(`{"job":"a","records":null,"total":01}`+"\n"), "", "", "10.0.0.1", uint8(3), uint8(7), int64(math.MaxInt64), uint64(math.MaxUint32)+1, uint8(1))
	f.Add([]byte(`{"job":"a<b","records":null,"total":1}`+"\n"), "\xff—", "\u2028", "10.0.0.1", uint8(1), uint8(1), int64(-1), uint64(1), uint8(5))
	f.Fuzz(func(t *testing.T, body []byte, job, ip1, ip2 string, kind, op uint8, i int64, u uint64, shape uint8) {
		res := TraceResult{Job: JobID(job), Total: int(i)}
		inSet := true
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
				inSet = inSet && r.Kind >= trace.KindCompletion && r.Kind <= trace.KindState && r.Op <= trace.OpBarrier
			}
		}
		if shape&0x80 != 0 {
			res.Next = &TraceCursor{Rank: Rank(u), Time: sim.Time(i), Emitted: int(i) ^ 3}
		}
		exact := utf8.ValidString(job) && utf8.ValidString(ip1) && utf8.ValidString(ip2)
		checkWire(t, &res, inSet, exact, body)
	})
}

// list is a fuzzed page's list: nil, empty, or n elements made by mk.
func list[T any](shape uint8, n int, mk func(int) T) []T {
	switch shape % 3 {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	out := make([]T, n)
	for i := range out {
		out[i] = mk(i)
	}
	return out
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// FuzzVerdictPageWire holds the trigger, report and dependency pages' codecs
// to encoding/json (see checkWire). Pages built from the fuzz input carry any
// strings (the seeds hold `<`, `&`, `—`, U+2028 and invalid UTF-8), any
// floats (NaN, ±Inf, -0, 1e-7, 1e21), every enum in its set and out of it,
// and nil, empty and full lists; appendWire must take a page whenever its
// floats are finite and its enums in their sets, as their UnmarshalText
// decides. The seeds are the golden trigger, report and dependency pages.
func FuzzVerdictPageWire(f *testing.F) {
	for _, route := range []string{"/triggers/query", "/reports/query", "/dependencies/query"} {
		for _, page := range goldenBodies(f, route) {
			f.Add(page, "trace", "10.0.0.1", 0.75, 0.5, uint8(1), int64(22_000_000_000), uint64(10), uint8(0xc5))
		}
	}
	f.Add([]byte(`{"triggers":[],"total":0,"next_offset":-1}`+"\n"), "a<b&c — \u2028", "\xff\xfe", math.NaN(), math.Inf(1), uint8(0), int64(-1), uint64(math.MaxUint64), uint8(0xc2))
	f.Add([]byte(`{"job":"a<b","edges":[],"dot":"x\n"}`+"\n"), "", "\u2029", math.Copysign(0, -1), 1e-7, uint8(22), int64(math.MinInt64), uint64(0), uint8(0xc2))
	f.Add([]byte(`{"reports":[],"total":0,"next_offset":-1}`+"\n"), "x<y —", "\xff\xfe", 0.75, 1e-7, uint8(1), int64(7), uint64(3), uint8(0xc2))
	f.Add([]byte(`{"reports":null,"total":1,"next_offset":2}`+"\n"), "log", "perf", 1e21, math.Inf(-1), uint8(63), int64(1), uint64(1), uint8(0x8b))
	f.Fuzz(func(t *testing.T, body []byte, s1, s2 string, f1, f2 float64, k uint8, i int64, u uint64, shape uint8) {
		n := int(shape/3%4) + 1
		exact := utf8.ValidString(s1) && utf8.ValidString(s2)

		kind := TriggerKind(k % 4)
		kindText, _ := kind.MarshalText()
		edge := []DependencyEdgeKind{EdgeBarrier, EdgePipeline, EdgeNested, "", DependencyEdgeKind(s1)}[k/4%5]
		channel := []Modality{ModalityTracepoint, ModalityLog, ModalityPerf, Modality(s2)}[k/20%4]
		kindOK := new(TriggerKind).UnmarshalText(kindText) == nil
		edgeOK := new(DependencyEdgeKind).UnmarshalText([]byte(edge)) == nil
		channelOK := new(Modality).UnmarshalText([]byte(channel)) == nil

		tr := Trigger{Kind: kind, Rank: Rank(i), IP: topo.IP(s1), At: sim.Time(i), CommID: u, Reason: s2}
		triggers := TriggerResult{Total: int(i), NextOffset: int(u),
			Triggers: list(shape, n, func(j int) JobTrigger { return JobTrigger{Job: JobID(s2), Trigger: tr} })}
		checkWire(t, &triggers, len(triggers.Triggers) == 0 || kindOK, exact, body)

		rep := Report{Trigger: tr, Suspect: Rank(u), SuspectIP: topo.IP(s2), CommID: u, Category: Category(s1),
			Via: core.Via(s2), AnalyzedAt: sim.Time(-i), Details: s1 + s2, Confidence: f1}
		repOK := kindOK && finite(f1)
		if shape&0x40 != 0 {
			rep.Chain = []Hop{{Comm: u, Suspect: Rank(i), Via: core.Via(s1), Edge: edge}, {Comm: 1, Suspect: 2, Via: core.ViaMinOp}}
			rep.Victims = []Rank{Rank(i), 0, -1}
			repOK = repOK && edgeOK
		}
		if shape&0x80 != 0 {
			rep.Evidence = []Evidence{{Channel: channel, Rank: Rank(i), Category: Category(s2), Weight: f2, Score: f1,
				At: sim.Time(i), Detail: s1, Conflict: i%2 == 0}}
			repOK = repOK && channelOK && finite(f2)
		}
		reports := ReportResult{Total: int(u), NextOffset: int(i),
			Reports: list(shape, n, func(j int) JobReport { return JobReport{Job: JobID(s1), Report: rep} })}
		checkWire(t, &reports, len(reports.Reports) == 0 || repOK, exact, body)

		deps := DependencyResult{Job: JobID(s1), DOT: s2,
			Edges: list(shape, n, func(j int) DependencyEdge {
				return DependencyEdge{From: DependencyNode{Rank: Rank(i), Comm: u, Seq: u >> j},
					To: DependencyNode{Rank: Rank(j), Comm: u + 1, Seq: uint64(j)}, Kind: edge}
			})}
		checkWire(t, &deps, len(deps.Edges) == 0 || edgeOK, exact, body)
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

// decodeAllocs counts the allocations of parseWire and of json.Unmarshal
// decoding page's canonical body, after checking both read it as page.
func decodeAllocs[P any, PT interface {
	*P
	wireCodec
}](t *testing.T, page PT) (canonical, reference float64, size int) {
	t.Helper()
	body := encoderBytes(t, page)
	fast, slow := PT(new(P)), new(P)
	canonical = testing.AllocsPerRun(20, func() {
		if !fast.parseWire(body) {
			t.Fatal("parseWire declined a canonical page")
		}
	})
	reference = testing.AllocsPerRun(20, func() {
		*slow = *new(P)
		if err := json.Unmarshal(body, slow); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(fast, page) || !reflect.DeepEqual(slow, (*P)(page)) {
		t.Fatal("a decoder read a different page")
	}
	return canonical, reference, len(body)
}

// TestVerdictPageDecodeAllocs: a 256-edge dependency page decodes in a fixed
// handful of allocations — the edge slice and the job — where json.Unmarshal
// makes about one per doubling of the slice, and trigger and report pages,
// whose strings repeat, decode in fewer than json.Unmarshal makes.
func TestVerdictPageDecodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count; -short is how the race job runs")
	}
	deps, ref, size := decodeAllocs(t, ptr(depsPage(256)))
	t.Logf("deps: %.0f allocations to decode a %d-byte page (json.Unmarshal: %.0f)", deps, size, ref)
	if deps > 4 {
		t.Errorf("%.0f allocations to decode a 256-edge page, want at most 4", deps)
	}
	trs, ref, size := decodeAllocs(t, ptr(triggerPage(40)))
	t.Logf("triggers: %.0f allocations to decode a %d-byte page (json.Unmarshal: %.0f)", trs, size, ref)
	if trs >= ref {
		t.Errorf("%.0f allocations to decode a 40-trigger page, json.Unmarshal makes %.0f", trs, ref)
	}
	reps, ref, size := decodeAllocs(t, ptr(reportPage(40)))
	t.Logf("reports: %.0f allocations to decode a %d-byte page (json.Unmarshal: %.0f)", reps, size, ref)
	if reps >= ref {
		t.Errorf("%.0f allocations to decode a 40-report page, json.Unmarshal makes %.0f", reps, ref)
	}
}

func ptr[T any](v T) *T { return &v }

// BenchmarkPageWire prices each page with a codec of its own — a 256-record
// trace page, a 256-edge dependency page and 40-entry trigger and report
// pages — through encoding/json and through that codec, each way.
func BenchmarkPageWire(b *testing.B) {
	benchPage(b, "trace", ptr(tracePage(256)))
	benchPage(b, "deps", ptr(depsPage(256)))
	benchPage(b, "triggers", ptr(triggerPage(40)))
	benchPage(b, "reports", ptr(reportPage(40)))
}

func benchPage[P any, PT interface {
	*P
	wireCodec
}](b *testing.B, name string, page PT) {
	body := encoderBytes(b, page)
	b.Run(name+"/encode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if out, err := json.Marshal(page); err != nil || len(out)+1 != len(body) {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/encode/canonical", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if out, ok := page.appendWire(nil); !ok || len(out) != len(body) {
				b.Fatal("appendWire declined")
			}
		}
	})
	b.Run(name+"/decode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(body, new(P)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/decode/canonical", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !PT(new(P)).parseWire(body) {
				b.Fatal("parseWire declined")
			}
		}
	})
}
