package mycroft

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"mycroft/internal/faults"
)

// TestRecordReplayRoundTrip: record a faulted run through the root API and
// replay it faithfully — the fresh engine must reproduce the recorded
// triggers and reports exactly.
func TestRecordReplayRoundTrip(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 11})
	h, err := svc.AddJob("rec", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := svc.Record("rec", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Recording(); !ok || got != rec {
		t.Fatal("Recording() does not expose the live recorder")
	}
	svc.Start()
	h.Inject(Fault{Kind: faults.NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(40 * time.Second)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Recording(); ok {
		t.Fatal("recorder still attached after Close")
	}

	res, err := Replay(&buf, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("closed recording decoded incomplete")
	}
	if res.Header.Job != "rec" || res.Header.Seed != 11 || res.Header.WorldSize != h.WorldSize() {
		t.Fatalf("header misdescribes the run: %+v", res.Header)
	}
	if len(res.Recorded.Triggers) == 0 || len(res.Recorded.Reports) == 0 {
		t.Fatalf("faulted run recorded no conclusions: %d triggers, %d reports",
			len(res.Recorded.Triggers), len(res.Recorded.Reports))
	}
	if d := DiffOutcomes(res.Recorded, res.Replayed); !d.Zero() {
		t.Fatalf("replay drifted:\n%s", d.Render())
	}
}

// healArtifact records a 64-rank self-healing job (TP8 PP4 DP2, a nic-down
// at 15 s healed by the policy, 120 virtual seconds) to memory and returns
// the artifact with the count of records the job ingested.
func healArtifact(tb testing.TB) ([]byte, uint64) {
	tb.Helper()
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob("heal", JobOptions{
		Topo:    TopoConfig{Nodes: 8, GPUsPerNode: 8, TP: 8, PP: 4, DP: 2},
		Backend: BackendConfig{RearmDelay: 10 * time.Second},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.AttachPolicy("heal", SelfHealPolicy()); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := svc.Record("heal", &buf)
	if err != nil {
		tb.Fatal(err)
	}
	svc.Start()
	h.Inject(Fault{Kind: faults.NICDown, Rank: 21, At: 15 * time.Second})
	svc.Run(120 * time.Second)
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	svc.Stop()
	if log := h.RemediationLog(); len(log) == 0 || log[len(log)-1].Outcome != RemedySucceeded {
		tb.Fatalf("the job did not heal: %+v", log)
	}
	return buf.Bytes(), h.RecordsIngested()
}

// TestReplayAllocBudget holds a replay of healArtifact's job to its
// allocations per replayed record. The decoder reuses its buffers, and the
// store and the dependency graph index ranks with tables, so what is left is
// mostly the backend's window reads and the store's segments. It reads 0.057
// per record; it read 0.212 while the decoder allocated every batch and
// chunk and the store and the graph kept their ranks in maps.
func TestReplayAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count; -short is how the race job runs")
	}
	data, records := healArtifact(t)

	if _, err := Replay(bytes.NewReader(data), ReplayOptions{}); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Replay(bytes.NewReader(data), ReplayOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsIngested != records {
		t.Fatalf("replayed %d records, the job ingested %d", res.RecordsIngested, records)
	}
	if len(res.Replayed.Reports) == 0 {
		t.Fatal("the replay concluded nothing: the budget would price an idle job")
	}
	if d := DiffOutcomes(res.Recorded, res.Replayed); !d.Zero() {
		t.Fatalf("replay drifted:\n%s", d.Render())
	}
	mallocs := after.Mallocs - before.Mallocs
	perRecord := float64(mallocs) / float64(res.RecordsIngested)
	t.Logf("%d mallocs over %d replayed records: %.4f per record", mallocs, res.RecordsIngested, perRecord)
	if perRecord >= 0.08 {
		t.Errorf("%.4f mallocs per replayed record, want < 0.08", perRecord)
	}
}

// BenchmarkReplay prices a replay of healArtifact's job per replayed record,
// in wall time and mallocs.
func BenchmarkReplay(b *testing.B) {
	data, records := healArtifact(b)
	if _, err := Replay(bytes.NewReader(data), ReplayOptions{}); err != nil { // warm-up
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(bytes.NewReader(data), ReplayOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

// TestRecordErrors covers the attachment preconditions.
func TestRecordErrors(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	if _, err := svc.AddJob("a", JobOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Record("ghost", io.Discard); err == nil {
		t.Fatal("recording an unknown job did not error")
	}
	rec, err := svc.Record("a", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Record("a", io.Discard); err == nil {
		t.Fatal("double-record did not error")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	// After Close the slot frees up.
	if _, err := svc.Record("a", io.Discard); err != nil {
		t.Fatalf("re-record after Close: %v", err)
	}
}

// TestRecordRefusedAfterFirstRecord: a job whose store already holds records
// is refused with ErrRecordTooLate, and nothing is written, by Record and by
// the server's RecordTo alike. A job added to the running service and
// recorded before its first record replays with zero drift.
func TestRecordRefusedAfterFirstRecord(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 5})
	early := svc.MustAddJob("early", JobOptions{})
	svc.Start()
	svc.Run(10 * time.Second)
	var refused bytes.Buffer
	if _, err := svc.Record("early", &refused); !errors.Is(err, ErrRecordTooLate) {
		t.Fatalf("recording a job with %d stored records: err = %v, want ErrRecordTooLate", early.RecordsIngested(), err)
	}
	if refused.Len() != 0 {
		t.Fatalf("a refused recorder wrote %d bytes", refused.Len())
	}
	if _, ok := early.Recording(); ok {
		t.Fatal("a refused recorder is attached")
	}
	dir := t.TempDir()
	if err := NewServer(svc).RecordTo(dir); !errors.Is(err, ErrRecordTooLate) {
		t.Fatalf("RecordTo: err = %v, want ErrRecordTooLate", err)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("a refused RecordTo left %v (%v)", files, err)
	}

	late := svc.MustAddJob("late", JobOptions{})
	var buf bytes.Buffer
	rec, err := svc.Record("late", &buf)
	if err != nil {
		t.Fatal(err)
	}
	late.Inject(Fault{Kind: faults.NICDown, Rank: 5, At: 15 * time.Second})
	svc.Run(40 * time.Second)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(&buf, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.StartNs != int64(10*time.Second) || res.RecordsIngested != late.RecordsIngested() {
		t.Fatalf("artifact starts at %dns with %d records; want 10s and all %d", res.Header.StartNs, res.RecordsIngested, late.RecordsIngested())
	}
	if len(res.Recorded.Triggers) == 0 || len(res.Recorded.Reports) == 0 {
		t.Fatalf("faulted late job recorded no conclusions: %d triggers, %d reports",
			len(res.Recorded.Triggers), len(res.Recorded.Reports))
	}
	if d := DiffOutcomes(res.Recorded, res.Replayed); !d.Zero() {
		t.Fatalf("replay drifted:\n%s", d.Render())
	}
}

// BenchmarkRecordIngest measures the recorder's tax on a live run: the same
// seeded 30s job driven bare and with an attached recorder, which writes to
// a counter of the artifact's bytes. The delta between the two
// sub-benchmarks is the recording overhead; artifact_B/record is what the
// artifact costs a record.
func BenchmarkRecordIngest(b *testing.B) {
	run := func(b *testing.B, record bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc := NewService(ServiceOptions{Seed: 1})
			h, err := svc.AddJob("bench", JobOptions{})
			if err != nil {
				b.Fatal(err)
			}
			var rec *Recorder
			var artifact byteCounter
			if record {
				if rec, err = svc.Record("bench", &artifact); err != nil {
					b.Fatal(err)
				}
			}
			svc.Start()
			svc.Run(30 * time.Second)
			if record {
				if err := rec.Close(); err != nil {
					b.Fatal(err)
				}
			}
			svc.Stop()
			if i == 0 {
				b.ReportMetric(float64(h.RecordsIngested()), "records/run")
				if record {
					b.ReportMetric(float64(artifact)/float64(h.RecordsIngested()), "artifact_B/record")
				}
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("recorded", func(b *testing.B) { run(b, true) })
}

// byteCounter is an io.Writer that counts what it is given and keeps none.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}
