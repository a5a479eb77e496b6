package clouddb

import (
	"encoding/binary"
	"slices"
	"sort"
	"unsafe"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// A row is what a run of one flow's records repeats within a segment: the
// operation they describe, the chunk counters, the instant the channel last
// progressed and the index of the flow. A stored record is its time and the
// index of its row. A rank's state logs for one op share a row while the
// channel waits — the counters hold still and Time − StuckNs is the fixed
// instant it last moved — so a segment of 256 records needs a few dozen rows:
// at most 38 in sim-512 and 41 in serve-live at seed 1. A channel that moves
// every tick, as on a degraded link, needs a row a record, up to 256.
//
// A row is kept as rowSize little-endian bytes: op seq, start, end and the
// progress instant (Time − StuckNs, wrapping), 8 bytes each, then the flow
// index and the GPU-ready, RDMA-transmitted and RDMA-done counters, 4 each.
type row [rowSize]byte

const rowSize = 48

// put writes into rw the row of r, whose flow has index fi.
func (rw *row) put(r *trace.Record, fi uint32) {
	le.PutUint64(rw[0:], r.OpSeq)
	le.PutUint64(rw[8:], uint64(r.Start))
	le.PutUint64(rw[16:], uint64(r.End))
	le.PutUint64(rw[24:], uint64(r.Time-sim.Time(r.StuckNs)))
	le.PutUint32(rw[32:], fi)
	le.PutUint32(rw[36:], r.GPUReady)
	le.PutUint32(rw[40:], r.RDMATransmitted)
	le.PutUint32(rw[44:], r.RDMADone)
}

// flow is the index of the flow rw names.
func (rw *row) flow() uint32 { return le.Uint32(rw[32:]) }

// names reports whether rw holds every field of r a row keeps.
func (rw *row) names(r *trace.Record) bool {
	return le.Uint64(rw[24:]) == uint64(r.Time-sim.Time(r.StuckNs)) && le.Uint64(rw[0:]) == r.OpSeq &&
		sim.Time(le.Uint64(rw[8:])) == r.Start && sim.Time(le.Uint64(rw[16:])) == r.End &&
		le.Uint32(rw[36:]) == r.GPUReady && le.Uint32(rw[40:]) == r.RDMATransmitted && le.Uint32(rw[44:]) == r.RDMADone
}

var le = binary.LittleEndian

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

// flowSize is what one entry of a flow table holds.
const flowSize = int(unsafe.Sizeof(flow{}))

// is reports whether r belongs to f, testing the channel first: it is the
// field that tells apart the flows a rank alternates between.
func (f *flow) is(r *trace.Record) bool {
	return f.channel == r.Channel && f.commID == r.CommID && f.qpID == r.QPID &&
		f.gpuID == r.GPUID && f.msgSize == r.MsgSize && f.totalChunks == r.TotalChunks &&
		f.kind == r.Kind && f.op == r.Op && f.ip == r.IP
}

// segLen is the fixed number of records in a segment and segRows the rows a
// new open buffer has room for beside them.
const (
	segLen  = 256
	segRows = 39
)

// A push adds at most one row, so a segment's row indices fit a byte.
const _ uint8 = segLen - 1

// A block is one segment as pointer-free bytes, which the collector never
// scans:
//
//	[0, 8)        base: the time of the segment's first record
//	8             width: bytes per time offset, narrow or wide
//	[9, 265)      each record's row index
//	[265, +256w)  each record's time less the base, w bytes little-endian
//	then          the rows, rowSize bytes each
//
// Times are non-decreasing per rank, so every offset is ≥ 0; a segment's
// offsets take 5 bytes unless its times span 2^40 ns (about 18 minutes) or
// more. A log writes into one open buffer and seals each full segment into a
// block of exactly its size: the open buffer with its unused rows cut off.
// A new open buffer has room for segRows rows — 3,417 B, in Go's 3,456-byte
// size class, which holds every segment of sim-512 (at most 38 rows). Not
// 53 rows in the 4,096-byte class: objects of that class sit 4 KiB apart, so
// every rank's record j lands in the same cache sets, and replay-512's
// ingest ran ~27% slower. A segment that needs more rows, or wide offsets, lays its open
// buffer out again, and the log keeps the larger buffer.
type block []byte

const (
	widthAt = 8
	rowOfAt = 9
	timesAt = rowOfAt + segLen
	narrow  = 5
	wide    = 8
	// wideFrom is the least offset a narrow segment cannot hold.
	wideFrom = 1 << (8 * narrow)
)

// blockSize is the size of a block whose offsets take w bytes and which has
// room for n rows, and so where its row n starts.
func blockSize(w, n int) int { return timesAt + segLen*w + n*rowSize }

// alloc returns a block of n bytes. Its capacity is what the allocator
// rounded n up to, so cap counts the bytes it holds.
func alloc(n int) block { return slices.Grow(block(nil), n)[:n] }

func (b block) base() sim.Time { return sim.Time(le.Uint64(b)) }
func (b block) width() int     { return int(b[widthAt]) }

// room is how many rows b has room for.
func (b block) room() int { return (len(b) - blockSize(b.width(), 0)) / rowSize }

// time returns the time of record j. An offset is read as 8 bytes and masked
// to its width: the bytes past a narrow one are the next offset's or a row's.
func (b block) time(j int) sim.Time {
	w := int(b[widthAt])
	off := le.Uint64((*[8]byte)(b[timesAt+w*j:])[:])
	if w == narrow {
		off &= wideFrom - 1
	}
	return b.base() + sim.Time(off)
}

// rowOf returns the row index of record j.
func (b block) rowOf(j int) int { return int(b[rowOfAt+j]) }

// row returns row i.
func (b block) row(i int) *row { return (*row)(b[timesAt+segLen*b.width()+i*rowSize:]) }

// recLog is one rank's records, oldest first, in fixed-length segments: the
// full ones sealed, the last in the open buffer. Appending writes a time and
// a row index, and a row when the record's flow has none for it in the open
// segment; it allocates when the open segment fills and is sealed, and when
// the open buffer first needs more rows or wide offsets. A record is copied
// once, when its segment seals. Retention advances head and hands whole
// sealed blocks back to the collector.
type recLog struct {
	sealed []block
	open   block
	head   int      // records of the first segment that retention has dropped
	n      int      // live records
	rows   int      // rows the open segment uses
	seq    uint64   // sequence number of the open segment, from 1, never reused
	newest sim.Time // time of the newest live record, when n > 0
}

// at returns the time and row of live record i, 0 ≤ i < n, oldest first.
func (l *recLog) at(i int) (sim.Time, *row) {
	p := uint(l.head + i)
	b, j := l.segment(int(p/segLen)), int(p%segLen)
	return b.time(j), b.row(b.rowOf(j))
}

// segment returns segment s, sealed or open.
func (l *recLog) segment(s int) block {
	if s < len(l.sealed) {
		return l.sealed[s]
	}
	return l.open
}

// push appends r, whose flow f has index fi, and returns the bytes the log
// newly holds. The record reuses the row of f's previous record when that
// row sits in the open segment and holds the same fields; otherwise it takes
// the segment's next row. The log keeps r's time beside its bookkeeping, so
// the order check on the next push reads no segment.
func (l *recLog) push(r *trace.Record, f *flow, fi uint32) (grew int) {
	j := int(uint(l.head+l.n) % segLen)
	if j == 0 {
		grew = l.begin(r.Time)
	}
	off := uint64(r.Time) - uint64(l.open.base())
	if off >= wideFrom && l.open.width() == narrow {
		grew += l.relayout(j, wide, max(l.rows, segRows))
	}
	b, w := l.open, l.open.width()
	if f.seg != l.seq || !b.row(int(f.row)).names(r) {
		if l.rows == b.room() {
			// Each record adds at most one row, so room for every record
			// left makes this the segment's only relayout for rows.
			grew += l.relayout(j, w, l.rows+segLen-j)
			b = l.open
		}
		f.seg, f.row = l.seq, uint8(l.rows)
		b.row(l.rows).put(r, fi)
		l.rows++
	}
	if at := timesAt + w*j; w == narrow {
		le.PutUint32(b[at:], uint32(off))
		b[at+4] = byte(off >> 32)
	} else {
		le.PutUint64(b[at:], off)
	}
	b[rowOfAt+j] = f.row
	l.newest = r.Time
	l.n++
	if j == segLen-1 {
		grew += l.seal()
	}
	return grew
}

// begin starts a segment at time t in the open buffer, allocating one if the
// log has none, and returns the bytes the log newly holds. A buffer an
// earlier segment grew keeps its room.
func (l *recLog) begin(t sim.Time) (grew int) {
	if l.open == nil {
		l.open = alloc(blockSize(narrow, segRows))
		grew = cap(l.open)
	}
	l.open = l.open[:cap(l.open)]
	le.PutUint64(l.open, uint64(t))
	l.open[widthAt] = narrow
	l.rows = 0
	l.seq++
	return grew
}

// relayout lays the open segment, whose first j records are written, out
// again with w-byte offsets and room for n rows, and returns the bytes the
// log newly holds. The buffer grows only if it must.
func (l *recLog) relayout(j, w, n int) (grew int) {
	b := l.open
	if size := blockSize(w, n); cap(b) < size {
		b = alloc(size)
		grew = cap(b) - cap(l.open)
		copy(b, l.open)
	}
	b = b[:cap(b)]
	if from := l.open.width(); w != from {
		copy(b[timesAt+segLen*w:], b[timesAt+segLen*from:][:l.rows*rowSize])
		// From the last record down, each 8-byte offset lands past every
		// narrow one still to be read.
		for k := j - 1; k >= 0; k-- {
			off := le.Uint64(b[timesAt+narrow*k:]) & (wideFrom - 1)
			le.PutUint64(b[timesAt+wide*k:], off)
		}
		b[widthAt] = byte(w)
	}
	l.open = b
	return grew
}

// seal copies the full open segment into a block of exactly its size,
// returns the bytes it holds — append, like alloc, sizes its capacity to the
// allocator's size class — and leaves the open buffer to the next segment.
func (l *recLog) seal() int {
	b := append(block(nil), l.open[:blockSize(l.open.width(), l.rows)]...)
	l.sealed = append(l.sealed, b)
	return cap(b)
}

// bytes returns what the log holds: its sealed blocks and open buffer.
func (l *recLog) bytes() int {
	n := cap(l.open)
	for _, b := range l.sealed {
		n += cap(b)
	}
	return n
}

// firstAfter returns the index of the first live record with time > t (n
// when there is none); records are in non-decreasing time order.
func (l *recLog) firstAfter(t sim.Time) int {
	if t == sim.Infinity {
		return l.n
	}
	return l.firstFrom(t + 1)
}

// firstFrom is firstAfter for time ≥ t. The segments' base times narrow the
// search to one segment, whose offsets it then searches. Records retention
// dropped are no later than live ones, so a match among them is the first
// live record.
func (l *recLog) firstFrom(t sim.Time) int {
	end := l.head + l.n
	// The first record at or after t is in the last segment whose base is
	// before t, or is the first of the segment after it.
	s := sort.Search((end+segLen-1)/segLen, func(s int) bool { return l.segment(s).base() >= t }) - 1
	if s < 0 {
		return 0
	}
	b := l.segment(s)
	j := sort.Search(min(end-s*segLen, segLen), func(j int) bool { return b.time(j) >= t })
	return max(s*segLen+j-l.head, 0)
}

// window returns the half-open index range of records with time in (from, to].
func (l *recLog) window(from, to sim.Time) (lo, hi int) {
	return l.firstAfter(from), l.firstAfter(to)
}

// dropFront discards the k oldest records, releases every sealed block that
// no longer holds a live one — and, when the log empties, the open buffer
// too, so a rank that falls silent keeps nothing — and returns the bytes it
// released.
func (l *recLog) dropFront(k int) (freed int) {
	l.head += k
	l.n -= k
	if l.n == 0 {
		freed = l.bytes()
		*l = recLog{seq: l.seq}
		return freed
	}
	if gone := l.head / segLen; gone > 0 {
		for _, b := range l.sealed[:gone] {
			freed += cap(b)
		}
		live := copy(l.sealed, l.sealed[gone:])
		clear(l.sealed[live:])
		l.sealed = l.sealed[:live]
		l.head -= gone * segLen
	}
	return freed
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
		held := cap(s.flows)
		s.flows = append(s.flows, flow{
			ip: r.IP, commID: r.CommID, msgSize: r.MsgSize,
			gpuID: r.GPUID, channel: r.Channel, qpID: r.QPID,
			totalChunks: r.TotalChunks, kind: r.Kind, op: r.Op,
		})
		db.held += (cap(s.flows) - held) * flowSize
		s.noteComm(db, r.CommID)
	}
	s.recent = [2]uint32{uint32(i), s.recent[0]}
	return s.recent[0]
}

// load rebuilds in dst the record that was pushed at time t with row rw,
// every field; the wrapping subtraction undoes push's exactly.
func (s *rankSeries) load(dst *trace.Record, t sim.Time, rw *row) {
	f := &s.flows[rw.flow()]
	dst.Kind, dst.Time = f.kind, t
	dst.IP, dst.CommID, dst.Rank = f.ip, f.commID, s.rank
	dst.GPUID, dst.Channel, dst.QPID = f.gpuID, f.channel, f.qpID
	dst.Op, dst.OpSeq, dst.MsgSize = f.op, le.Uint64(rw[0:]), f.msgSize
	dst.Start, dst.End = sim.Time(le.Uint64(rw[8:])), sim.Time(le.Uint64(rw[16:]))
	dst.TotalChunks, dst.GPUReady = f.totalChunks, le.Uint32(rw[36:])
	dst.RDMATransmitted, dst.RDMADone = le.Uint32(rw[40:]), le.Uint32(rw[44:])
	dst.StuckNs = int64(t - sim.Time(le.Uint64(rw[24:])))
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
