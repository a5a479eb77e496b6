package clouddb

import "mycroft/internal/obs"

// Metrics is the instrument set a DB updates when one is attached with
// SetMetrics. Every field is optional-as-a-whole: a nil Metrics (the
// default) costs one pointer check per batch, so library users who never
// scrape pay nothing. The instruments are plain obs handles — the hosting
// layer owns registration and labeling (typically one set per job).
type Metrics struct {
	Records      *obs.Counter   // records stored, lifetime
	Bytes        *obs.Counter   // encoded bytes stored, lifetime
	Batches      *obs.Counter   // ingest batches accepted
	Pruned       *obs.Counter   // records dropped by the retention horizon
	Queries      *obs.Counter   // unified Query pages served
	QueryLatency *obs.Histogram // wall-clock seconds per Query page
}

// SetMetrics attaches (or with nil, detaches) an instrument set. Not safe
// to call concurrently with Ingest/Query; wire it up before the run starts,
// like observers.
func (db *DB) SetMetrics(m *Metrics) { db.metrics = m }

// ShardRecords returns the live (unpruned) record count of one shard, for
// scrape-time occupancy gauges — cheaper than a full Stats walk when the
// caller wants a single shard.
func (db *DB) ShardRecords(i int) int {
	n := 0
	for _, s := range db.shards[i].series {
		n += s.log.n
	}
	return n
}

// LiveRecords returns the live record count across all shards.
func (db *DB) LiveRecords() int {
	n := 0
	for i := range db.shards {
		n += db.ShardRecords(i)
	}
	return n
}
