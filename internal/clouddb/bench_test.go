package clouddb

import (
	"testing"

	"mycroft/internal/obs"
	"mycroft/internal/otrace"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// BenchmarkIngestInstrumented prices the observability hooks on the ingest
// path: identical 64-record batch ingest bare, with metrics instruments on
// the store, and with the pipeline span tracer attached on top. The
// acceptance budget for each instrumented path is a ≤5% regression over
// bare. (bench/'s clouddb.ingest_ns_per_record row prices the bare path
// only; this is the one place the three are compared.)
func BenchmarkIngestInstrumented(b *testing.B) {
	run := func(b *testing.B, instrumented, spanned bool) {
		eng := sim.NewEngine(1)
		db := New(eng, 0)
		if instrumented {
			reg := obs.New()
			db.SetMetrics(&Metrics{
				Records:      reg.Counter("mycroft_ingest_records_total", "Records ingested."),
				Bytes:        reg.Counter("mycroft_ingest_bytes_total", "Bytes ingested."),
				Batches:      reg.Counter("mycroft_ingest_batches_total", "Batches accepted."),
				Pruned:       reg.Counter("mycroft_store_pruned_records_total", "Records pruned."),
				Queries:      reg.Counter("mycroft_queries_total", "Queries served."),
				QueryLatency: reg.Histogram("mycroft_query_latency_seconds", "Query latency.", obs.LatencyBuckets),
			})
		}
		if spanned {
			spans := otrace.NewRecorder(otrace.DefaultCapacity, eng.Now)
			spans.Job = "bench"
			db.SetTracer(spans)
		}
		batch := make([]trace.Record, 64)
		ts := sim.Time(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range batch {
				ts += 1000
				batch[j] = trace.Record{Kind: trace.KindState, Time: ts, Rank: topo.Rank(j % 8), CommID: 1, IP: "10.0.0.1"}
			}
			db.Ingest(batch)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true, false) })
	b.Run("instrumented+spans", func(b *testing.B) { run(b, true, true) })
}
