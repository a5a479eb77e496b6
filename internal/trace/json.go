package trace

import (
	"math"
	"strconv"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// The canonical JSON form of a Record is the exact bytes encoding/json writes
// for it: no whitespace, the fields in Record's tag order, each enum as its
// String name, each integer in its shortest decimal form and each string
// between quotes as it is. AppendJSON writes that form and ParseJSON reads it,
// without reflection and without allocating beyond a changed IP string.
//
// Both halves cover only what needs no escaping, so they can be exact: a
// string must hold nothing but plain bytes (0x20–0x7E, less `"`, `\`, `<`,
// `>` and `&`, the ones encoding/json escapes), a kind or op must be in its
// set, and an integer must fit its field without a fraction, an exponent, a
// leading zero or "-0". Outside that, AppendJSON and ParseJSON report false
// and the caller hands the value to encoding/json, which stays the reference:
// whatever ParseJSON accepts, json.Unmarshal reads as the same Record, and
// whatever AppendJSON writes, json.Marshal writes byte for byte.
//
// JSONReader and AppendJSONString carry the same rules to the documents that
// wrap records, such as a page of query results.

// MinJSONSize is the length of the shortest canonical record, so n bytes hold
// at most n/MinJSONSize records.
const MinJSONSize = len(`{"kind":"state","time_ns":0,"ip":"","comm_id":0,"rank":0,"gpu_id":0,` +
	`"channel":0,"qp_id":0,"op":"none","op_seq":0,"msg_size":0,"start_ns":0,"end_ns":0,` +
	`"total_chunks":0,"gpu_ready":0,"rdma_transmitted":0,"rdma_done":0,"stuck_ns":0}`)

// plain marks the bytes a canonical string may hold.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendJSONString appends s between quotes. It reports false, leaving dst as
// it was, when s holds a byte that is not plain.
func AppendJSONString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendJSON appends r's canonical JSON form. It reports false, leaving dst
// as it was, when r has no canonical form: its IP is not plain, or its kind
// or op is outside its set.
func AppendJSON(dst []byte, r *Record) ([]byte, bool) {
	if int(r.Kind) >= len(kindText) || kindText[r.Kind] == nil || int(r.Op) >= len(opText) {
		return dst, false
	}
	n := len(dst)
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, kindText[r.Kind]...)
	dst = append(dst, `","time_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.Time), 10)
	dst = append(dst, `,"ip":`...)
	dst, ok := AppendJSONString(dst, string(r.IP))
	if !ok {
		return dst[:n], false
	}
	dst = append(dst, `,"comm_id":`...)
	dst = strconv.AppendUint(dst, r.CommID, 10)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(r.Rank), 10)
	dst = append(dst, `,"gpu_id":`...)
	dst = strconv.AppendInt(dst, int64(r.GPUID), 10)
	dst = append(dst, `,"channel":`...)
	dst = strconv.AppendInt(dst, int64(r.Channel), 10)
	dst = append(dst, `,"qp_id":`...)
	dst = strconv.AppendInt(dst, int64(r.QPID), 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, opText[r.Op]...)
	dst = append(dst, `","op_seq":`...)
	dst = strconv.AppendUint(dst, r.OpSeq, 10)
	dst = append(dst, `,"msg_size":`...)
	dst = strconv.AppendInt(dst, r.MsgSize, 10)
	dst = append(dst, `,"start_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.Start), 10)
	dst = append(dst, `,"end_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.End), 10)
	dst = append(dst, `,"total_chunks":`...)
	dst = strconv.AppendUint(dst, uint64(r.TotalChunks), 10)
	dst = append(dst, `,"gpu_ready":`...)
	dst = strconv.AppendUint(dst, uint64(r.GPUReady), 10)
	dst = append(dst, `,"rdma_transmitted":`...)
	dst = strconv.AppendUint(dst, uint64(r.RDMATransmitted), 10)
	dst = append(dst, `,"rdma_done":`...)
	dst = strconv.AppendUint(dst, uint64(r.RDMADone), 10)
	dst = append(dst, `,"stuck_ns":`...)
	dst = strconv.AppendInt(dst, r.StuckNs, 10)
	return append(dst, '}'), true
}

// ParseJSON reads one record in canonical JSON form from the front of b into
// r and returns the bytes after it. It reports false on anything else, and r
// is then unspecified. As in UnmarshalBinary, an r.IP already equal to the
// record's is kept, so a caller that seeds r.IP with the previous record's
// pays for one string per host, not one per record.
func ParseJSON(b []byte, r *Record) (rest []byte, ok bool) {
	p := JSONReader{B: b, OK: true}
	p.Record(r)
	return p.B, p.OK
}

// JSONReader reads a canonical JSON document front to back, one token per
// call. The first call that does not find what it expects clears OK, and
// every later call then reads nothing and returns a zero value, so a caller
// reads a whole document and checks OK once at the end.
type JSONReader struct {
	B  []byte // what is left to read
	OK bool
}

func (p *JSONReader) fail() { p.OK = false }

// Skip consumes lit and reports true when the input starts with it; it
// reports false, consuming nothing and leaving OK alone, when not.
func (p *JSONReader) Skip(lit string) bool {
	if p.OK && len(p.B) >= len(lit) && string(p.B[:len(lit)]) == lit {
		p.B = p.B[len(lit):]
		return true
	}
	return false
}

// Lit consumes lit, which must come next.
func (p *JSONReader) Lit(lit string) {
	if !p.Skip(lit) {
		p.fail()
	}
}

// Str reads a string of plain bytes and returns them without the quotes,
// aliasing the input.
func (p *JSONReader) Str() []byte {
	if !p.OK || len(p.B) == 0 || p.B[0] != '"' {
		p.fail()
		return nil
	}
	for i := 1; i < len(p.B); i++ {
		switch c := p.B[i]; {
		case c == '"':
			s := p.B[1:i]
			p.B = p.B[i+1:]
			return s
		case !plain[c]:
			p.fail()
			return nil
		}
	}
	p.fail()
	return nil
}

// digits reads an unsigned decimal of at most 64 bits with no leading zero.
func (p *JSONReader) digits() uint64 {
	if !p.OK {
		return 0
	}
	var v uint64
	i := 0
	for ; i < len(p.B) && p.B[i]-'0' <= 9; i++ {
		d := uint64(p.B[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.fail()
			return 0
		}
		v = v*10 + d
	}
	if i == 0 || (i > 1 && p.B[0] == '0') {
		p.fail()
		return 0
	}
	p.B = p.B[i:]
	return v
}

// Uint reads an unsigned integer no greater than hi.
func (p *JSONReader) Uint(hi uint64) uint64 {
	v := p.digits()
	if v > hi {
		p.fail()
		return 0
	}
	return v
}

// Int reads an integer in [lo, hi].
func (p *JSONReader) Int(lo, hi int64) int64 {
	neg := p.Skip("-")
	u := p.digits()
	var v int64
	switch {
	case !p.OK:
		return 0
	case neg && (u == 0 || u > 1<<63):
		p.fail()
		return 0
	case neg:
		v = -int64(u) // u == 1<<63 wraps to math.MinInt64, which is its value
	case u > math.MaxInt64:
		p.fail()
		return 0
	default:
		v = int64(u)
	}
	if v < lo || v > hi {
		p.fail()
		return 0
	}
	return v
}

// enum reads a string and returns its index in names, whose nil entries
// match nothing.
func (p *JSONReader) enum(names [][]byte) int {
	s := p.Str()
	for i, name := range names {
		if name != nil && string(name) == string(s) {
			return i
		}
	}
	p.fail()
	return 0
}

// Record reads one record in canonical JSON form into r, keeping an r.IP
// equal to the record's (see ParseJSON).
func (p *JSONReader) Record(r *Record) {
	p.Lit(`{"kind":`)
	r.Kind = Kind(p.enum(kindText[:]))
	p.Lit(`,"time_ns":`)
	r.Time = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
	p.Lit(`,"ip":`)
	if ip := p.Str(); string(r.IP) != string(ip) {
		r.IP = topo.IP(ip)
	}
	p.Lit(`,"comm_id":`)
	r.CommID = p.Uint(math.MaxUint64)
	p.Lit(`,"rank":`)
	r.Rank = topo.Rank(p.Int(math.MinInt, math.MaxInt))
	p.Lit(`,"gpu_id":`)
	r.GPUID = int32(p.Int(math.MinInt32, math.MaxInt32))
	p.Lit(`,"channel":`)
	r.Channel = int32(p.Int(math.MinInt32, math.MaxInt32))
	p.Lit(`,"qp_id":`)
	r.QPID = int32(p.Int(math.MinInt32, math.MaxInt32))
	p.Lit(`,"op":`)
	r.Op = OpKind(p.enum(opText[:]))
	p.Lit(`,"op_seq":`)
	r.OpSeq = p.Uint(math.MaxUint64)
	p.Lit(`,"msg_size":`)
	r.MsgSize = p.Int(math.MinInt64, math.MaxInt64)
	p.Lit(`,"start_ns":`)
	r.Start = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
	p.Lit(`,"end_ns":`)
	r.End = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
	p.Lit(`,"total_chunks":`)
	r.TotalChunks = uint32(p.Uint(math.MaxUint32))
	p.Lit(`,"gpu_ready":`)
	r.GPUReady = uint32(p.Uint(math.MaxUint32))
	p.Lit(`,"rdma_transmitted":`)
	r.RDMATransmitted = uint32(p.Uint(math.MaxUint32))
	p.Lit(`,"rdma_done":`)
	r.RDMADone = uint32(p.Uint(math.MaxUint32))
	p.Lit(`,"stuck_ns":`)
	r.StuckNs = p.Int(math.MinInt64, math.MaxInt64)
	p.Lit(`}`)
}
