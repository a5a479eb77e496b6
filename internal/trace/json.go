package trace

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// The canonical JSON form of a Record is the exact bytes encoding/json writes
// for it: no whitespace, the fields in Record's tag order, each enum as its
// String name, each integer in its shortest decimal form and each string as
// encoding/json quotes it. AppendJSON writes that form and ParseJSON reads it,
// without reflection and without allocating beyond a changed IP string.
//
// A string whose value encoding/json writes between quotes as it is — valid
// UTF-8 holding no byte below 0x20, no `"`, `\`, `<`, `>` or `&`, and no U+2028
// or U+2029 — is copied as it is both ways. Any other string goes through
// json.Marshal or json.Unmarshal, one string at a time, so encoding/json stays
// the reference by construction. Outside that, a kind or op must be in its
// set, and an integer must fit its field without a fraction, an exponent, a
// leading zero or "-0"; otherwise AppendJSON and ParseJSON report false and
// the caller hands the value to encoding/json: whatever ParseJSON accepts,
// json.Unmarshal reads as the same Record, and whatever AppendJSON writes,
// json.Marshal writes byte for byte.
//
// JSONReader, AppendJSONString and AppendJSONFloat carry the same rules to the
// documents that wrap records, such as a page of query results.

// MinJSONSize is the length of the shortest canonical record, so n bytes hold
// at most n/MinJSONSize records.
const MinJSONSize = len(`{"kind":"state","time_ns":0,"ip":"","comm_id":0,"rank":0,"gpu_id":0,` +
	`"channel":0,"qp_id":0,"op":"none","op_seq":0,"msg_size":0,"start_ns":0,"end_ns":0,` +
	`"total_chunks":0,"gpu_ready":0,"rdma_transmitted":0,"rdma_done":0,"stuck_ns":0}`)

// plain marks the ASCII bytes encoding/json writes inside a string as they
// are.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// verbatim reports whether encoding/json writes s between quotes as it is.
func verbatim(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !plain[c] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += n
	}
	return true
}

// AppendJSONString appends s as encoding/json writes it: between quotes as it
// is when it is verbatim, and as json.Marshal quotes it otherwise.
func AppendJSONString(dst []byte, s string) []byte {
	if !verbatim(s) {
		q, _ := json.Marshal(s) // a string always encodes
		return append(dst, q...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendJSONFloat appends f as encoding/json writes a float64: in 'f' format,
// in 'e' format with no leading zero in the exponent outside [1e-6, 1e21), and
// -0 as "-0". It reports false, leaving dst as it was, for NaN and ±Inf, which
// encoding/json refuses to encode.
func AppendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 becomes e-7
		dst = dst[:n-1]
	}
	return dst, true
}

// AppendJSON appends r's canonical JSON form. It reports false, leaving dst
// as it was, when r has no canonical form: its kind or op is outside its
// set.
func AppendJSON(dst []byte, r *Record) ([]byte, bool) {
	if int(r.Kind) >= len(kindText) || kindText[r.Kind] == nil || int(r.Op) >= len(opText) {
		return dst, false
	}
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, kindText[r.Kind]...)
	dst = append(dst, `","time_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.Time), 10)
	dst = append(dst, `,"ip":`...)
	dst = AppendJSONString(dst, string(r.IP))
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

	// seen holds strings Text handed out, one per slot, so a document that
	// repeats a string pays for it about once.
	seen [64]string
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

// Elem reads what comes before element i of a list, "[" before the first and
// "," before any other, and reports whether the element follows. When the
// list ends there instead, it reads the "]" and reports false.
func (p *JSONReader) Elem(i int) bool {
	if i == 0 {
		p.Lit("[")
		return p.OK && !p.Skip("]")
	}
	if p.Skip(",") {
		return true
	}
	p.Lit("]")
	return false
}

// lineSep and paraSep are U+2028 and U+2029, which encoding/json escapes.
var lineSep, paraSep = []byte("\u2028"), []byte("\u2029")

// raw reads a string whose value is its bytes between the quotes and
// returns them, aliasing the input. It reports false, consuming nothing, when
// the string is not verbatim, and also clears OK when no string starts here.
func (p *JSONReader) raw() ([]byte, bool) {
	if !p.OK || len(p.B) == 0 || p.B[0] != '"' {
		p.fail()
		return nil, false
	}
	high := false
	for i := 1; i < len(p.B); i++ {
		switch c := p.B[i]; {
		case c == '"':
			s := p.B[1:i]
			if high && (!utf8.Valid(s) || bytes.Contains(s, lineSep) || bytes.Contains(s, paraSep)) {
				return nil, false
			}
			p.B = p.B[i+1:]
			return s, true
		case c >= utf8.RuneSelf:
			high = true
		case !plain[c]:
			return nil, false
		}
	}
	return nil, false
}

// unquote reads the string that starts here as json.Unmarshal reads it.
func (p *JSONReader) unquote() string {
	end := 1
	for ; end < len(p.B) && p.B[end] != '"'; end++ {
		if p.B[end] == '\\' {
			end++
		}
	}
	var s string
	if end >= len(p.B) || json.Unmarshal(p.B[:end+1], &s) != nil {
		p.fail()
		return ""
	}
	p.B = p.B[end+1:]
	return s
}

// Str reads a string and returns its value: the bytes between the quotes,
// aliasing the input, when the string is verbatim, and what json.Unmarshal
// reads from it, in a new slice, when not.
func (p *JSONReader) Str() []byte {
	if s, ok := p.raw(); ok || !p.OK {
		return s
	}
	return []byte(p.unquote())
}

// Text reads a string as Str does and returns its value as a string. A
// verbatim string equal to one Text returned a little earlier is that same
// string, so a page that repeats a job, a host or a reason allocates it about
// once.
func (p *JSONReader) Text() string {
	b, ok := p.raw()
	switch {
	case !p.OK:
		return ""
	case !ok:
		return p.unquote()
	case len(b) == 0:
		return ""
	}
	h := uint64(len(b))<<16 ^ uint64(b[0])<<8 ^ uint64(b[len(b)-1])
	if len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b[len(b)-8:])
	}
	slot := &p.seen[(h*0x9e3779b97f4a7c15)>>(64-6)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// TextIn reads a string as Str does and returns its value as a string: a
// verbatim value is sliced from doc, which holds the bytes the reader started
// on, so a document read whole holds every such text in one string (and a
// text kept keeps all of doc); any other value is decoded on its own.
func (p *JSONReader) TextIn(doc string) string {
	at := len(doc) - len(p.B) + 1
	b, ok := p.raw()
	switch {
	case !p.OK:
		return ""
	case !ok:
		return p.unquote()
	}
	return doc[at : at+len(b)]
}

// Enum reads a string into v through its UnmarshalText, as json.Unmarshal
// reads a quoted value into a field that has one.
func (p *JSONReader) Enum(v encoding.TextUnmarshaler) {
	if s := p.Str(); p.OK && v.UnmarshalText(s) != nil {
		p.fail()
	}
}

// Float reads a number as json.Unmarshal reads one into a float64: JSON's
// number grammar, rounded by strconv.ParseFloat and refused out of range.
func (p *JSONReader) Float() float64 {
	if !p.OK {
		return 0
	}
	n := numberLen(p.B)
	f, err := strconv.ParseFloat(string(p.B[:n]), 64)
	if n == 0 || err != nil {
		p.fail()
		return 0
	}
	p.B = p.B[n:]
	return f
}

// numberLen returns the length of the JSON number b starts with, 0 if none.
func numberLen(b []byte) int {
	i := 0
	digits := func() int {
		j := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0
		}
	}
	return i
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

// Record reads one record in canonical JSON form into r, keeping an r.IP
// equal to the record's (see ParseJSON).
func (p *JSONReader) Record(r *Record) {
	p.Lit(`{"kind":`)
	p.Enum(&r.Kind)
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
	p.Enum(&r.Op)
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
