// Package collector implements the per-host read-only agent of §4.2: it
// asynchronously drains the host's shared-memory trace ring and uploads
// batches to the cloud database with a configurable pipeline latency
// (standing in for the Kafka hop). The agent never applies back pressure to
// the tracepoints — if it falls behind, the ring overwrites and the loss is
// counted.
package collector

import (
	"fmt"
	"time"

	"mycroft/internal/otrace"
	"mycroft/internal/sim"
	"mycroft/internal/trace"
)

// Ingester is the downstream the agent uploads batches into. The production
// store is *clouddb.DB; tests can substitute a capture. An Ingester must not
// retain the batch slice: the agent reuses it once Ingest has returned.
type Ingester interface {
	Ingest(batch []trace.Record)
}

// Config tunes an agent.
type Config struct {
	// DrainPeriod is how often the agent polls the ring. Default 50 ms.
	DrainPeriod time.Duration
	// UploadLatency is the tracepoint-to-queryable delay through the
	// pipeline. Default 1 s. This latency dominates Mycroft's detection
	// time, so E3 sweeps it.
	UploadLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.DrainPeriod < 0 {
		panic(fmt.Sprintf("collector: negative drain period %v", c.DrainPeriod))
	}
	if c.DrainPeriod == 0 {
		c.DrainPeriod = 50 * time.Millisecond
	}
	if c.UploadLatency < 0 {
		panic(fmt.Sprintf("collector: negative upload latency %v", c.UploadLatency))
	}
	if c.UploadLatency == 0 {
		c.UploadLatency = time.Second
	}
	return c
}

// Agent drains one host's ring into the DB.
type Agent struct {
	eng    *sim.Engine
	db     Ingester
	reader *trace.Reader
	cfg    Config
	ticker *sim.Ticker

	// uploads holds the batches in flight through the pipeline, addressed
	// by slot: the upload event carries the slot number, and a delivered
	// slot (listed in idle) keeps its buffer for the next drain.
	uploads []upload
	idle    []int32

	batches     uint64
	recordsSent uint64
	spans       *otrace.Recorder
}

// upload is one drained batch on its way to the store.
type upload struct {
	batch []trace.Record
	span  otrace.SpanID
}

// SetTracer attaches the job's span recorder: each drained batch records one
// StageUpload span covering the drain→ingest pipeline hop, whose virtual
// width is exactly the configured UploadLatency. Nil detaches.
func (a *Agent) SetTracer(r *otrace.Recorder) { a.spans = r }

// NewAgent starts an agent over the host ring. It begins draining
// immediately.
func NewAgent(eng *sim.Engine, ring *trace.Ring, db Ingester, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{eng: eng, db: db, reader: ring.NewReader(), cfg: cfg}
	a.ticker = eng.NewTicker(cfg.DrainPeriod, func(sim.Time) { a.drain() })
	return a
}

func (a *Agent) drain() {
	// Drain into the buffer of a delivered slot when there is one.
	slot, buf := int32(-1), []trace.Record(nil)
	if k := len(a.idle); k > 0 {
		slot = a.idle[k-1]
		buf = a.uploads[slot].batch[:0]
	}
	batch := a.reader.DrainInto(buf)
	if len(batch) == 0 {
		return
	}
	if slot < 0 {
		slot = int32(len(a.uploads))
		a.uploads = append(a.uploads, upload{})
	} else {
		a.idle = a.idle[:len(a.idle)-1]
	}
	a.batches++
	a.recordsSent += uint64(len(batch))
	a.uploads[slot] = upload{batch: batch, span: a.spans.Batch(otrace.StageUpload)}
	a.eng.ScheduleAfter(a.cfg.UploadLatency, a, slot)
}

// Fire implements sim.Handler: the batch in slot reaches the store.
func (a *Agent) Fire(slot int32) {
	u := a.uploads[slot]
	a.db.Ingest(u.batch)
	a.spans.End(u.span)
	a.idle = append(a.idle, slot)
}

// Stop halts the drain loop (host decommissioned).
func (a *Agent) Stop() { a.ticker.Stop() }

// Flush drains once immediately (tests and shutdown paths).
func (a *Agent) Flush() { a.drain() }

// Stats reports the agent's lifetime counters.
func (a *Agent) Stats() (batches, records, lost uint64) {
	return a.batches, a.recordsSent, a.reader.Lost()
}
