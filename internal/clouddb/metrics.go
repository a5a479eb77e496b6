package clouddb

import "mycroft/internal/obs"

// Metrics is the instrument set a DB updates when one is attached with
// SetMetrics. Every field is optional-as-a-whole: a nil Metrics (the
// default) costs one pointer check per batch, so library users who never
// scrape pay nothing. The instruments are plain obs handles — the hosting
// layer owns registration and labeling (typically one set per job).
type Metrics struct {
	Records      *obs.Counter   // records stored, lifetime
	Bytes        *obs.Counter   // trace.WireSize bytes a record ingested, lifetime
	Batches      *obs.Counter   // ingest batches accepted
	Pruned       *obs.Counter   // records dropped by the retention horizon
	Queries      *obs.Counter   // unified Query pages served
	QueryLatency *obs.Histogram // wall-clock seconds per Query page
}

// SetMetrics attaches (or with nil, detaches) an instrument set. Not safe
// to call concurrently with Ingest/Query; wire it up before the run starts,
// like observers.
func (db *DB) SetMetrics(m *Metrics) { db.metrics = m }

// LiveRecords returns the live (unpruned) record count, for the scrape-time
// occupancy gauge.
func (db *DB) LiveRecords() int { return db.Stats().Records }

// StoreBytes returns the bytes the store holds: every sealed block and open
// buffer at its allocator size class, and the flow tables. It is a running
// count, moved as segments seal and are released, for the scrape-time
// footprint gauge.
func (db *DB) StoreBytes() int { return db.held }
