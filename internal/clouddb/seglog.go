package clouddb

import (
	"sort"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// row is what a run of one flow's records repeats within a segment: the
// operation they describe, the chunk counters, the instant the channel last
// progressed and the index of the flow. A stored record is its time and the
// index of its row. A rank's state logs for one op share a row while the
// channel waits — the counters hold still and Time − StuckNs is the fixed
// instant it last moved — so a segment of 256 records needs a few dozen rows:
// at most 38 in sim-512 and 41 in serve-live at seed 1. A channel that moves
// every tick, as on a degraded link, needs a row a record and spills.
type row struct {
	opSeq                               uint64
	start, end                          sim.Time
	progress                            sim.Time // Time − StuckNs, wrapping
	flow                                uint32   // index into rankSeries.flows
	gpuReady, rdmaTransmitted, rdmaDone uint32
}

// names reports whether rw holds every field of r a row keeps.
func (rw *row) names(r *trace.Record) bool {
	return rw.progress == r.Time-sim.Time(r.StuckNs) && rw.opSeq == r.OpSeq &&
		rw.start == r.Start && rw.end == r.End && rw.gpuReady == r.GPUReady &&
		rw.rdmaTransmitted == r.RDMATransmitted && rw.rdmaDone == r.RDMADone
}

// flow is what every record of one (rank, channel) stream repeats: the
// metadata and operation rows of Table 2 and the record kind. A rank's state
// logs for one channel of one op shape share a flow, so a series holds a
// handful — at most 8 per rank in a 512-rank job — however many records
// point at them. A flow also caches the row its last record used and the
// sequence number of the segment that row sits in.
type flow struct {
	ip                   topo.IP
	commID               uint64
	msgSize              int64
	gpuID, channel, qpID int32
	totalChunks          uint32
	kind                 trace.Kind
	op                   trace.OpKind

	seg uint64 // recLog.seq of the segment holding row; 0 when none does
	row uint8
}

// is reports whether r belongs to f, testing the channel first: it is the
// field that tells apart the flows a rank alternates between.
func (f *flow) is(r *trace.Record) bool {
	return f.channel == r.Channel && f.commID == r.CommID && f.qpID == r.QPID &&
		f.gpuID == r.GPUID && f.msgSize == r.MsgSize && f.totalChunks == r.TotalChunks &&
		f.kind == r.Kind && f.op == r.Op && f.ip == r.IP
}

// segLen is the fixed number of records in a segment and segRows the rows it
// holds beside them: 256 × 8 B of times + 256 row bytes + 53 × 48 B of rows =
// 4,848 B, in Go's 4,864-byte size class. A segment whose records name more
// than segRows distinct rows spills the rest into its log's side table.
const (
	segLen  = 256
	segRows = 53
)

// A push adds at most one row, so a segment's row indices fit a byte.
const _ uint8 = segLen - 1

// segment is the unit of allocation and of release. It holds no pointer, so
// the collector allocates it from a no-scan span and never looks inside.
type segment struct {
	times [segLen]sim.Time
	rowOf [segLen]uint8 // index into rows, then recLog.spill
	rows  [segRows]row
}

// recLog is one rank's records, oldest first, in fixed-length segments.
// Appending writes a time and a row index, and a row when the record's flow
// has none for it in the last segment; it allocates only when the last
// segment is full. A record, once written, is never copied or cleared again.
// Retention advances head and hands whole segments, and their spilled rows,
// back to the collector.
type recLog struct {
	segs []*segment
	head int    // records of segs[0] that retention has dropped
	n    int    // live records
	rows int    // rows the last segment uses, spilled ones included
	seq  uint64 // sequence number of the last segment, from 1, never reused
	// spill holds the rows past segRows of each segment that needed them.
	spill  map[*segment][]row
	newest sim.Time // time of the newest live record, when n > 0
}

// at returns the time and row of live record i, 0 ≤ i < n, oldest first.
func (l *recLog) at(i int) (sim.Time, *row) {
	p := uint(l.head + i)
	seg := l.segs[p/segLen]
	return seg.times[p%segLen], l.rowAt(seg, seg.rowOf[p%segLen])
}

// timeAt is the time of live record i, for the searches, which need no row.
func (l *recLog) timeAt(i int) sim.Time {
	p := uint(l.head + i)
	return l.segs[p/segLen].times[p%segLen]
}

// rowAt returns row i of seg.
func (l *recLog) rowAt(seg *segment, i uint8) *row {
	if i < segRows {
		return &seg.rows[i]
	}
	return &l.spill[seg][i-segRows]
}

// push appends r, whose flow f has index fi. The record reuses the row of
// f's previous record when that row sits in the same segment and holds the
// same fields; otherwise it takes the segment's next row. The log keeps r's
// time beside its bookkeeping, so the order check on the next push reads no
// segment.
func (l *recLog) push(r *trace.Record, f *flow, fi uint32) {
	p := uint(l.head + l.n)
	if p == uint(len(l.segs))*segLen {
		l.segs = append(l.segs, new(segment))
		l.rows = 0
		l.seq++
	}
	seg := l.segs[len(l.segs)-1]
	if f.seg != l.seq || !l.rowAt(seg, f.row).names(r) {
		f.seg, f.row = l.seq, l.addRow(seg, p%segLen, row{
			opSeq: r.OpSeq, start: r.Start, end: r.End, progress: r.Time - sim.Time(r.StuckNs), flow: fi,
			gpuReady: r.GPUReady, rdmaTransmitted: r.RDMATransmitted, rdmaDone: r.RDMADone,
		})
	}
	seg.times[p%segLen], seg.rowOf[p%segLen] = r.Time, f.row
	l.newest = r.Time
	l.n++
}

// addRow appends rw, the row of the record at position pos of seg, the last
// segment, and returns its index. Each record adds at most one row, so a
// segment's first spilled row sizes its spill for every record it has left.
func (l *recLog) addRow(seg *segment, pos uint, rw row) uint8 {
	i := uint8(l.rows)
	l.rows++
	if i < segRows {
		seg.rows[i] = rw
		return i
	}
	if l.spill == nil {
		l.spill = make(map[*segment][]row)
	}
	sp := l.spill[seg]
	if sp == nil {
		sp = make([]row, 0, segLen-pos)
	}
	l.spill[seg] = append(sp, rw)
	return i
}

// firstAfter returns the index of the first live record with time > t (n
// when there is none); records are in non-decreasing time order.
func (l *recLog) firstAfter(t sim.Time) int {
	return sort.Search(l.n, func(i int) bool { return l.timeAt(i) > t })
}

// firstFrom is firstAfter for time ≥ t.
func (l *recLog) firstFrom(t sim.Time) int {
	return sort.Search(l.n, func(i int) bool { return l.timeAt(i) >= t })
}

// window returns the half-open index range of records with time in (from, to].
func (l *recLog) window(from, to sim.Time) (lo, hi int) {
	return l.firstAfter(from), l.firstAfter(to)
}

// dropFront discards the k oldest records and releases every segment that no
// longer holds a live one, with its spilled rows — including, when the log
// empties, the partly filled last one, so a rank that falls silent keeps
// nothing.
func (l *recLog) dropFront(k int) {
	l.head += k
	l.n -= k
	if l.n == 0 {
		*l = recLog{seq: l.seq}
		return
	}
	if gone := l.head / segLen; gone > 0 {
		if len(l.spill) > 0 {
			for _, seg := range l.segs[:gone] {
				delete(l.spill, seg)
			}
		}
		live := copy(l.segs, l.segs[gone:])
		clear(l.segs[live:])
		l.segs = l.segs[:live]
		l.head -= gone * segLen
	}
}

// flowOf returns the index of r's flow in the series' flow table, adding the
// flow — and indexing its communicator — if the table lacks it, and makes it
// the most recently used. A rank's records alternate between two channels, so
// nearly every record matches one of the two flows last used; the rest scan
// the table newest first.
func (s *rankSeries) flowOf(db *DB, r *trace.Record) uint32 {
	if len(s.flows) > 0 {
		if s.flows[s.recent[0]].is(r) {
			return s.recent[0]
		}
		if s.flows[s.recent[1]].is(r) {
			s.recent = [2]uint32{s.recent[1], s.recent[0]}
			return s.recent[0]
		}
	}
	i := len(s.flows) - 1
	for i >= 0 && !s.flows[i].is(r) {
		i--
	}
	if i < 0 {
		i = len(s.flows)
		s.flows = append(s.flows, flow{
			ip: r.IP, commID: r.CommID, msgSize: r.MsgSize,
			gpuID: r.GPUID, channel: r.Channel, qpID: r.QPID,
			totalChunks: r.TotalChunks, kind: r.Kind, op: r.Op,
		})
		s.noteComm(db, r.CommID)
	}
	s.recent = [2]uint32{uint32(i), s.recent[0]}
	return s.recent[0]
}

// load rebuilds in dst the record that was pushed at time t with row rw,
// every field; the wrapping subtraction undoes push's exactly.
func (s *rankSeries) load(dst *trace.Record, t sim.Time, rw *row) {
	f := &s.flows[rw.flow]
	dst.Kind, dst.Time = f.kind, t
	dst.IP, dst.CommID, dst.Rank = f.ip, f.commID, s.rank
	dst.GPUID, dst.Channel, dst.QPID = f.gpuID, f.channel, f.qpID
	dst.Op, dst.OpSeq, dst.MsgSize = f.op, rw.opSeq, f.msgSize
	dst.Start, dst.End = rw.start, rw.end
	dst.TotalChunks, dst.GPUReady = f.totalChunks, rw.gpuReady
	dst.RDMATransmitted, dst.RDMADone, dst.StuckNs = rw.rdmaTransmitted, rw.rdmaDone, int64(t-rw.progress)
}

// record is load by value, for the single-record reads.
func (s *rankSeries) record(t sim.Time, rw *row) trace.Record {
	var r trace.Record
	s.load(&r, t, rw)
	return r
}

// appendTo appends the record at t with row rw to out, rebuilt in place.
func (s *rankSeries) appendTo(out []trace.Record, t sim.Time, rw *row) []trace.Record {
	out = append(out, trace.Record{})
	s.load(&out[len(out)-1], t, rw)
	return out
}

// records materialises live records [lo, hi) in order; nil when empty.
func (s *rankSeries) records(lo, hi int) []trace.Record {
	if lo >= hi {
		return nil
	}
	out := make([]trace.Record, hi-lo)
	for i := range out {
		t, rw := s.log.at(lo + i)
		s.load(&out[i], t, rw)
	}
	return out
}
