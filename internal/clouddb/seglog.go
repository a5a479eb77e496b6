package clouddb

import (
	"sort"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// slot is one stored record: the trace.Record fields that change from one
// record of a flow to the next, and the index of its flow in the series' flow
// table, which holds the rest. A slot is 56 bytes against the record's 128
// and holds no pointer, so the collector allocates segments from no-scan
// spans and never looks inside one.
type slot struct {
	time, start, end sim.Time
	opSeq            uint64
	stuckNs          int64

	gpuReady, rdmaTransmitted, rdmaDone uint32
	flow                                uint32 // index into rankSeries.flows
}

// flow is what every record of one (rank, channel) stream repeats: the
// metadata and operation rows of Table 2 and the record kind. A rank's state
// logs for one channel of one op shape share a flow, so a series holds a
// handful — at most 8 per rank in a 512-rank job — however many records
// point at them.
type flow struct {
	ip                   topo.IP
	commID               uint64
	msgSize              int64
	gpuID, channel, qpID int32
	totalChunks          uint32
	kind                 trace.Kind
	op                   trace.OpKind
}

// is reports whether r belongs to f, testing the channel first: it is the
// field that tells apart the flows a rank alternates between.
func (f *flow) is(r *trace.Record) bool {
	return f.channel == r.Channel && f.commID == r.CommID && f.qpID == r.QPID &&
		f.gpuID == r.GPUID && f.msgSize == r.MsgSize && f.totalChunks == r.TotalChunks &&
		f.kind == r.Kind && f.op == r.Op && f.ip == r.IP
}

// segLen is the fixed number of slots in a segment. 146 × 56 B = 8,176 B fills
// Go's 8,192-byte size class to within 16 bytes; 256 slots (14,336 B) would
// round up to the 16,384-byte class, 8 wasted bytes per stored record. A
// shorter segment also leaves less unused tail per rank (half a segment on
// average).
const segLen = 146

// segment is the unit of allocation and of release.
type segment [segLen]slot

// recLog is one rank's records, oldest first, in fixed-length segments.
// Appending writes one slot and allocates only when the last segment is full;
// a slot, once written, is never copied or cleared again. Retention advances
// head and hands whole segments back to the collector.
type recLog struct {
	segs   []*segment
	head   int      // slots of segs[0] that retention has dropped
	n      int      // live slots
	free   []slot   // the unwritten rest of the last segment
	newest sim.Time // time of the newest live slot, when n > 0
}

// at returns live slot i, 0 ≤ i < n, oldest first.
func (l *recLog) at(i int) *slot {
	p := uint(l.head + i)
	return &l.segs[p/segLen][p%segLen]
}

// push appends one slot for a record at time t and returns it for the caller
// to fill. The log keeps t beside its bookkeeping, so the order check on the
// next push reads no slot.
func (l *recLog) push(t sim.Time) *slot {
	if len(l.free) == 0 {
		seg := new(segment)
		l.segs = append(l.segs, seg)
		l.free = seg[:]
	}
	sl := &l.free[0]
	l.free, l.newest = l.free[1:], t
	l.n++
	return sl
}

// firstAfter returns the index of the first live slot with time > t (n when
// there is none); slots are in non-decreasing time order.
func (l *recLog) firstAfter(t sim.Time) int {
	return sort.Search(l.n, func(i int) bool { return l.at(i).time > t })
}

// firstFrom is firstAfter for time ≥ t.
func (l *recLog) firstFrom(t sim.Time) int {
	return sort.Search(l.n, func(i int) bool { return l.at(i).time >= t })
}

// window returns the half-open index range of slots with time in (from, to].
func (l *recLog) window(from, to sim.Time) (lo, hi int) {
	return l.firstAfter(from), l.firstAfter(to)
}

// dropFront discards the k oldest slots and releases every segment that no
// longer holds a live one — including, when the log empties, the partly
// filled last one, so a rank that falls silent keeps nothing.
func (l *recLog) dropFront(k int) {
	l.head += k
	l.n -= k
	if l.n == 0 {
		*l = recLog{}
		return
	}
	if gone := l.head / segLen; gone > 0 {
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

// store writes r, whose flow has index flow, into sl. Field by field, as
// load: a composite literal is built on the stack and copied over.
func (sl *slot) store(r *trace.Record, flow uint32) {
	sl.time, sl.start, sl.end = r.Time, r.Start, r.End
	sl.opSeq, sl.stuckNs = r.OpSeq, r.StuckNs
	sl.gpuReady, sl.rdmaTransmitted, sl.rdmaDone = r.GPUReady, r.RDMATransmitted, r.RDMADone
	sl.flow = flow
}

// load rebuilds in dst the record store was given for sl, every field.
func (s *rankSeries) load(dst *trace.Record, sl *slot) {
	f := &s.flows[sl.flow]
	dst.Kind, dst.Time = f.kind, sl.time
	dst.IP, dst.CommID, dst.Rank = f.ip, f.commID, s.rank
	dst.GPUID, dst.Channel, dst.QPID = f.gpuID, f.channel, f.qpID
	dst.Op, dst.OpSeq, dst.MsgSize = f.op, sl.opSeq, f.msgSize
	dst.Start, dst.End = sl.start, sl.end
	dst.TotalChunks, dst.GPUReady = f.totalChunks, sl.gpuReady
	dst.RDMATransmitted, dst.RDMADone, dst.StuckNs = sl.rdmaTransmitted, sl.rdmaDone, sl.stuckNs
}

// record is load by value, for the single-record reads.
func (s *rankSeries) record(sl *slot) trace.Record {
	var r trace.Record
	s.load(&r, sl)
	return r
}

// appendTo appends sl's record to out, rebuilt in place.
func (s *rankSeries) appendTo(out []trace.Record, sl *slot) []trace.Record {
	out = append(out, trace.Record{})
	s.load(&out[len(out)-1], sl)
	return out
}

// records materialises live slots [lo, hi) in order; nil when empty.
func (s *rankSeries) records(lo, hi int) []trace.Record {
	if lo >= hi {
		return nil
	}
	out := make([]trace.Record, hi-lo)
	for i := range out {
		s.load(&out[i], s.log.at(lo+i))
	}
	return out
}
