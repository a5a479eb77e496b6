package clouddb

import (
	"fmt"
	"math"
	"sort"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// slot is one stored record: a trace.Record minus the two fields its series
// holds once — Rank, and IP, which is the one pointer in a trace.Record. A
// slot is 88 bytes against the record's 128 and holds no pointer, so the
// collector allocates segments from no-scan spans and never looks inside one.
type slot struct {
	time, start, end sim.Time
	commID, opSeq    uint64
	msgSize, stuckNs int64

	gpuID, channel, qpID                             int32
	totalChunks, gpuReady, rdmaTransmitted, rdmaDone uint32

	kind trace.Kind
	op   trace.OpKind
	// ip selects the reporting IP: 0 is the series' first-seen IP (every
	// record of nearly every rank), k > 0 is rankSeries.ips[k-1].
	ip uint16
}

// segLen is the fixed number of slots in a segment. 93 × 88 B = 8,184 B fills
// Go's 8,192-byte size class to within 8 bytes; 128 slots (11,264 B) would
// round up to the 12,288-byte class and 256 slots (22,528 B) to the
// 24,576-byte one, 8 wasted bytes per stored record either way. A shorter
// segment also leaves less unused tail per rank (half a segment on average).
const segLen = 93

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

// ipSlots bounds the IPs one rank may report from: slot.ip is 16 bits.
const ipSlots = math.MaxUint16

// ipIndex returns the slot.ip value for a record of this series reporting
// from ip, extending the series' IP table on an address not seen before.
func (s *rankSeries) ipIndex(ip topo.IP) uint16 {
	if ip == s.ip {
		return 0
	}
	for i, known := range s.ips {
		if known == ip {
			return uint16(i + 1)
		}
	}
	if len(s.ips) == ipSlots {
		panic(fmt.Sprintf("clouddb: rank %d reports from more than %d IPs", s.rank, ipSlots+1))
	}
	s.ips = append(s.ips, ip)
	return uint16(len(s.ips))
}

// store writes r into sl. Field by field, as load: a composite literal is
// built on the stack and copied over.
func (s *rankSeries) store(sl *slot, r *trace.Record) {
	sl.time, sl.start, sl.end = r.Time, r.Start, r.End
	sl.commID, sl.opSeq = r.CommID, r.OpSeq
	sl.msgSize, sl.stuckNs = r.MsgSize, r.StuckNs
	sl.gpuID, sl.channel, sl.qpID = r.GPUID, r.Channel, r.QPID
	sl.totalChunks, sl.gpuReady = r.TotalChunks, r.GPUReady
	sl.rdmaTransmitted, sl.rdmaDone = r.RDMATransmitted, r.RDMADone
	sl.kind, sl.op, sl.ip = r.Kind, r.Op, s.ipIndex(r.IP)
}

// load rebuilds in dst the record store was given for sl, every field.
func (s *rankSeries) load(dst *trace.Record, sl *slot) {
	dst.IP = s.ip
	if sl.ip != 0 {
		dst.IP = s.ips[sl.ip-1]
	}
	dst.Rank = s.rank
	dst.Time, dst.Start, dst.End = sl.time, sl.start, sl.end
	dst.CommID, dst.OpSeq = sl.commID, sl.opSeq
	dst.MsgSize, dst.StuckNs = sl.msgSize, sl.stuckNs
	dst.GPUID, dst.Channel, dst.QPID = sl.gpuID, sl.channel, sl.qpID
	dst.TotalChunks, dst.GPUReady = sl.totalChunks, sl.gpuReady
	dst.RDMATransmitted, dst.RDMADone = sl.rdmaTransmitted, sl.rdmaDone
	dst.Kind, dst.Op = sl.kind, sl.op
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
