package clouddb

import (
	"sort"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// slot is one stored record: the trace.Record fields that change from one
// record to the next, and the index of its row in its segment's row table,
// which holds the rest a run of records repeats. A slot is 32 bytes against
// the record's 128 and holds no pointer, so the collector allocates segments
// from no-scan spans and never looks inside one.
type slot struct {
	time    sim.Time
	stuckNs int64

	gpuReady, rdmaTransmitted, rdmaDone uint32
	row                                 uint32 // index into segment.rows, then recLog.spill
}

// row is what a run of one flow's records repeats within a segment: the
// operation they describe and the index of the flow. A rank's state logs for
// one op share a row until the op completes, so a segment of 256 slots needs
// a few dozen rows: at most 38 in sim-512 and serve-live at seed 1.
type row struct {
	opSeq      uint64
	start, end sim.Time
	flow       uint32 // index into rankSeries.flows
}

// names reports whether r describes the operation rw holds.
func (rw *row) names(r *trace.Record) bool {
	return rw.opSeq == r.OpSeq && rw.start == r.Start && rw.end == r.End
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
	row uint32
}

// is reports whether r belongs to f, testing the channel first: it is the
// field that tells apart the flows a rank alternates between.
func (f *flow) is(r *trace.Record) bool {
	return f.channel == r.Channel && f.commID == r.CommID && f.qpID == r.QPID &&
		f.gpuID == r.GPUID && f.msgSize == r.MsgSize && f.totalChunks == r.TotalChunks &&
		f.kind == r.Kind && f.op == r.Op && f.ip == r.IP
}

// segLen is the fixed number of slots in a segment and segRows the rows it
// holds beside them: 256 × 32 B + 40 × 32 B = 9,472 B, exactly one of Go's
// size classes. A segment whose records name more than segRows distinct rows
// spills the rest into its log's side table.
const (
	segLen  = 256
	segRows = 40
)

// segment is the unit of allocation and of release.
type segment struct {
	slots [segLen]slot
	rows  [segRows]row
}

// recLog is one rank's records, oldest first, in fixed-length segments.
// Appending writes one slot, and a row when the record's flow has none for its
// operation in the last segment; it allocates only when the last segment is
// full. A slot, once written, is never copied or cleared again. Retention
// advances head and hands whole segments, and their spilled rows, back to the
// collector.
type recLog struct {
	segs []*segment
	head int    // slots of segs[0] that retention has dropped
	n    int    // live slots
	free []slot // the unwritten rest of the last segment
	rows uint32 // rows the last segment uses, spilled ones included
	seq  uint64 // sequence number of the last segment, from 1, never reused
	// spill holds the rows past segRows of each segment that needed them.
	spill  map[*segment][]row
	newest sim.Time // time of the newest live slot, when n > 0
}

// at returns live slot i, 0 ≤ i < n, oldest first, and its row.
func (l *recLog) at(i int) (*slot, *row) {
	p := uint(l.head + i)
	seg := l.segs[p/segLen]
	sl := &seg.slots[p%segLen]
	return sl, l.rowOf(seg, sl.row)
}

// timeAt is the time of live slot i, for the searches, which need no row.
func (l *recLog) timeAt(i int) sim.Time {
	p := uint(l.head + i)
	return l.segs[p/segLen].slots[p%segLen].time
}

// rowOf returns row i of seg.
func (l *recLog) rowOf(seg *segment, i uint32) *row {
	if i < segRows {
		return &seg.rows[i]
	}
	return &l.spill[seg][i-segRows]
}

// push appends r, whose flow f has index fi. The slot reuses the row of f's
// previous record when that row sits in the same segment and names the same
// operation; otherwise it takes the segment's next row. The log keeps r's
// time beside its bookkeeping, so the order check on the next push reads no
// slot.
func (l *recLog) push(r *trace.Record, f *flow, fi uint32) {
	if len(l.free) == 0 {
		seg := new(segment)
		l.segs = append(l.segs, seg)
		l.free, l.rows = seg.slots[:], 0
		l.seq++
	}
	if seg := l.segs[len(l.segs)-1]; f.seg != l.seq || !l.rowOf(seg, f.row).names(r) {
		f.seg, f.row = l.seq, l.addRow(seg, row{opSeq: r.OpSeq, start: r.Start, end: r.End, flow: fi})
	}
	// Field by field: a composite literal is built on the stack and copied over.
	sl := &l.free[0]
	sl.time, sl.stuckNs = r.Time, r.StuckNs
	sl.gpuReady, sl.rdmaTransmitted, sl.rdmaDone = r.GPUReady, r.RDMATransmitted, r.RDMADone
	sl.row = f.row
	l.free, l.newest = l.free[1:], r.Time
	l.n++
}

// addRow appends rw to seg, the last segment, and returns its index.
func (l *recLog) addRow(seg *segment, rw row) uint32 {
	i := l.rows
	l.rows++
	if i < segRows {
		seg.rows[i] = rw
		return i
	}
	if l.spill == nil {
		l.spill = make(map[*segment][]row)
	}
	l.spill[seg] = append(l.spill[seg], rw)
	return i
}

// firstAfter returns the index of the first live slot with time > t (n when
// there is none); slots are in non-decreasing time order.
func (l *recLog) firstAfter(t sim.Time) int {
	return sort.Search(l.n, func(i int) bool { return l.timeAt(i) > t })
}

// firstFrom is firstAfter for time ≥ t.
func (l *recLog) firstFrom(t sim.Time) int {
	return sort.Search(l.n, func(i int) bool { return l.timeAt(i) >= t })
}

// window returns the half-open index range of slots with time in (from, to].
func (l *recLog) window(from, to sim.Time) (lo, hi int) {
	return l.firstAfter(from), l.firstAfter(to)
}

// dropFront discards the k oldest slots and releases every segment that no
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

// load rebuilds in dst the record that was pushed for sl, whose row is rw,
// every field.
func (s *rankSeries) load(dst *trace.Record, sl *slot, rw *row) {
	f := &s.flows[rw.flow]
	dst.Kind, dst.Time = f.kind, sl.time
	dst.IP, dst.CommID, dst.Rank = f.ip, f.commID, s.rank
	dst.GPUID, dst.Channel, dst.QPID = f.gpuID, f.channel, f.qpID
	dst.Op, dst.OpSeq, dst.MsgSize = f.op, rw.opSeq, f.msgSize
	dst.Start, dst.End = rw.start, rw.end
	dst.TotalChunks, dst.GPUReady = f.totalChunks, sl.gpuReady
	dst.RDMATransmitted, dst.RDMADone, dst.StuckNs = sl.rdmaTransmitted, sl.rdmaDone, sl.stuckNs
}

// record is load by value, for the single-record reads.
func (s *rankSeries) record(sl *slot, rw *row) trace.Record {
	var r trace.Record
	s.load(&r, sl, rw)
	return r
}

// appendTo appends sl's record to out, rebuilt in place.
func (s *rankSeries) appendTo(out []trace.Record, sl *slot, rw *row) []trace.Record {
	out = append(out, trace.Record{})
	s.load(&out[len(out)-1], sl, rw)
	return out
}

// records materialises live slots [lo, hi) in order; nil when empty.
func (s *rankSeries) records(lo, hi int) []trace.Record {
	if lo >= hi {
		return nil
	}
	out := make([]trace.Record, hi-lo)
	for i := range out {
		sl, rw := s.log.at(lo + i)
		s.load(&out[i], sl, rw)
	}
	return out
}
