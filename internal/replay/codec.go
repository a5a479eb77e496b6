package replay

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// A batch's records are written against a flow table that encoder and
// decoder each build from the stream itself. A flow is one (rank, comm,
// channel) stream of records and its id is the order it was first seen in,
// so the table is never written out. Within a flow the metadata never
// changes and the operation and counters change once in ten records or less,
// so a record is mostly its flow id, its time and an empty mask.
//
//	record   uvarint flow id; when it equals the number of flows so far the
//	         record opens a new flow, whose key follows:
//	           uvarint rank, uvarint comm id, varint channel
//	         then, for every record:
//	         uvarint time − the time of the rank's previous record
//	                 (from math.MinInt64 before its first; never negative)
//	         uvarint mask of the fields that differ from the flow's
//	                 previous record (a new flow's is the zero record)
//	         for each word bit set, lowest first: varint delta of that word
//	         if the IP bit is set: u8 length, then the IP's bytes
//
// Varints are encoding/binary's; a varint delta is zigzag-encoded.

// Words are a record's fields past its flow key and time, widened to 64 bits
// so one wrapping subtraction makes every delta exact. The stuck time
// travels as the instant the channel last progressed, Time − StuckNs, which
// holds still while a channel waits. The seven that change most come first,
// so a mask naming only them is one byte.
const (
	wOpSeq = iota
	wStart
	wEnd
	wProgress
	wGPUReady
	wRDMATransmitted
	wRDMADone
	wTotalChunks
	wKind
	wOp
	wGPUID
	wQPID
	wMsgSize
	nWords
)

const (
	// maskIP is the mask bit of the IP, the one field that is not a word.
	maskIP = 1 << nWords
	// maskAll is every bit a mask may set.
	maskAll = maskIP<<1 - 1
)

// minRecord is the fewest bytes a record encodes to: a flow id, a time delta
// and a mask of one byte each.
const minRecord = 3

// maxIP is the longest IP a record may carry, as in the tracepoint slot
// (trace.WireSize).
const maxIP = 15

// words holds a record's words, indexed by the w constants.
type words [nWords]uint64

func wordsOf(r *trace.Record) words {
	return words{
		wOpSeq:           r.OpSeq,
		wStart:           uint64(r.Start),
		wEnd:             uint64(r.End),
		wProgress:        uint64(r.Time) - uint64(r.StuckNs),
		wGPUReady:        uint64(r.GPUReady),
		wRDMATransmitted: uint64(r.RDMATransmitted),
		wRDMADone:        uint64(r.RDMADone),
		wTotalChunks:     uint64(r.TotalChunks),
		wKind:            uint64(r.Kind),
		wOp:              uint64(r.Op),
		wGPUID:           uint64(r.GPUID),
		wQPID:            uint64(r.QPID),
		wMsgSize:         uint64(r.MsgSize),
	}
}

// flow is what encoder and decoder remember of one flow: its key, and the
// words and IP of its previous record.
type flow struct {
	rank    topo.Rank
	channel int32
	commID  uint64
	ip      topo.IP
	w       words
}

// flowKey identifies a flow in the encoder's index.
type flowKey struct {
	commID        uint64
	rank, channel int32
}

// appendRecord appends r, whose rank's previous record is at last, to b and
// makes r its flow's previous record.
func (e *Encoder) appendRecord(b []byte, r *trace.Record, last int64) []byte {
	key := flowKey{commID: r.CommID, rank: int32(r.Rank), channel: r.Channel}
	id, ok := e.flowIDs[key]
	if !ok {
		id = uint32(len(e.flows))
		e.flowIDs[key] = id
		e.flows = append(e.flows, flow{rank: r.Rank, channel: r.Channel, commID: r.CommID})
	}
	b = binary.AppendUvarint(b, uint64(id))
	if !ok {
		b = binary.AppendUvarint(b, uint64(r.Rank))
		b = binary.AppendUvarint(b, r.CommID)
		b = binary.AppendVarint(b, int64(r.Channel))
	}
	b = binary.AppendUvarint(b, uint64(r.Time)-uint64(last))
	f := &e.flows[id]
	w := wordsOf(r)
	var mask uint64
	for i := range w {
		if w[i] != f.w[i] {
			mask |= 1 << i
		}
	}
	if r.IP != f.ip {
		mask |= maskIP
	}
	b = binary.AppendUvarint(b, mask)
	for m := mask &^ maskIP; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b = binary.AppendVarint(b, int64(w[i]-f.w[i]))
	}
	if mask&maskIP != 0 {
		b = append(append(b, byte(len(r.IP))), r.IP...)
	}
	f.w, f.ip = w, r.IP
	return b
}

// record decodes the next record of the current batch into r.
func (d *Decoder) record(r *trace.Record) error {
	b := d.chunk
	id, i := uvarintAt(b, d.off)
	if i < 0 {
		return d.badVarint()
	}
	if id >= uint64(len(d.flows)) {
		if id > uint64(len(d.flows)) {
			return d.fail(fmt.Errorf("%w: unknown flow id %d of %d", ErrCorrupt, id, len(d.flows)))
		}
		d.off = i
		if err := d.newFlow(); err != nil {
			return err
		}
		i = d.off
	}
	f := &d.flows[id]
	rc := &d.ranks[f.rank]
	dt, i := uvarintAt(b, i)
	mask, i := uvarintAt(b, i)
	if i < 0 {
		return d.badVarint()
	}
	t := int64(uint64(rc.last) + dt)
	if t < rc.last {
		return d.fail(fmt.Errorf("%w: rank %d record %dns after %dns wraps past the newest time", ErrOutOfOrder, f.rank, dt, rc.last))
	}
	if mask > maskAll {
		return d.fail(fmt.Errorf("%w: field mask %#x", ErrCorrupt, mask))
	}
	for m := mask &^ maskIP; m != 0; m &= m - 1 {
		var zz uint64
		if zz, i = uvarintAt(b, i); i < 0 {
			return d.badVarint()
		}
		f.w[bits.TrailingZeros64(m)] += uint64(int64(zz>>1) ^ -int64(zz&1))
	}
	d.off = i
	if mask&maskIP != 0 {
		n, err := d.take(1)
		if err != nil {
			return err
		}
		if n[0] > maxIP {
			return d.fail(fmt.Errorf("%w: IP length %d", ErrCorrupt, n[0]))
		}
		ip, err := d.take(int(n[0]))
		if err != nil {
			return err
		}
		if string(rc.ip) != string(ip) {
			rc.ip = topo.IP(ip)
		}
		f.ip = rc.ip
	}
	rc.last = t
	// Field by field, and a string only when it differs: r is usually a
	// reused buffer slot, and a whole-record store would copy the record
	// twice and take a write barrier for the IP every time.
	if rc.ip != f.ip {
		rc.ip = f.ip
	}
	if r.IP != f.ip {
		r.IP = f.ip
	}
	w := &f.w
	r.Kind, r.Op, r.Time = trace.Kind(w[wKind]), trace.OpKind(w[wOp]), sim.Time(t)
	r.CommID, r.Rank, r.Channel = f.commID, f.rank, f.channel
	r.GPUID, r.QPID, r.MsgSize = int32(w[wGPUID]), int32(w[wQPID]), int64(w[wMsgSize])
	r.OpSeq, r.Start, r.End = w[wOpSeq], sim.Time(w[wStart]), sim.Time(w[wEnd])
	r.TotalChunks, r.GPUReady = uint32(w[wTotalChunks]), uint32(w[wGPUReady])
	r.RDMATransmitted, r.RDMADone = uint32(w[wRDMATransmitted]), uint32(w[wRDMADone])
	r.StuckNs = t - int64(w[wProgress])
	return nil
}

// newFlow reads a new flow's key and adds the flow to the table.
func (d *Decoder) newFlow() error {
	rank, err := d.uvarint()
	if err != nil {
		return err
	}
	if rank >= uint64(len(d.ranks)) {
		return d.fail(fmt.Errorf("%w: rank %d outside the %d-rank world", ErrCorrupt, rank, len(d.ranks)))
	}
	comm, err := d.uvarint()
	if err != nil {
		return err
	}
	ch, err := d.uvarint()
	if err != nil {
		return err
	}
	channel := int64(ch>>1) ^ -int64(ch&1)
	if channel < math.MinInt32 || channel > math.MaxInt32 {
		return d.fail(fmt.Errorf("%w: channel %d", ErrCorrupt, channel))
	}
	d.flows = append(d.flows, flow{rank: topo.Rank(rank), channel: int32(channel), commID: comm})
	return nil
}

// uvarint reads the next unsigned varint of the current chunk.
func (d *Decoder) uvarint() (uint64, error) {
	v, i := uvarintAt(d.chunk, d.off)
	if i < 0 {
		return 0, d.badVarint()
	}
	d.off = i
	return v, nil
}

// uvarintAt reads the unsigned varint at b[i:] and returns it with the index
// past it, or with -1 when it overruns b. A read at -1 returns -1 again, so a
// run of reads needs one check after the last. It drops the bits a tenth
// byte holds past 64, which no encoder writes, and is small enough to inline.
func uvarintAt(b []byte, i int) (uint64, int) {
	var v uint64
	for s := uint(0); uint(i) < uint(len(b)) && s < 64; s += 7 {
		c := b[i]
		i++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v, i
		}
	}
	return 0, -1
}

// badVarint fails the decode on a varint that overruns its chunk or ten
// bytes.
func (d *Decoder) badVarint() error {
	return d.fail(fmt.Errorf("%w: varint overruns its chunk or ten bytes", ErrCorrupt))
}
