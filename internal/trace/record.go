// Package trace defines Mycroft's Coll-level trace schema (Table 2 of the
// paper) and the shared-memory-style circular buffer the tracepoints write
// into.
//
// Two record kinds exist, matching §4.2:
//
//   - completion log: emitted once when a CollOp finishes on a rank, carrying
//     start/end timestamps, bytes and flow metadata.
//   - real-time state log: emitted periodically (default every 100 ms) per
//     active (rank, channel) while an op is in flight, carrying the chunk
//     counters (total_chunks, GPU_ready, RDMA_transmitted, RDMA_done) and the
//     stuck time. State logs stop if the proxy crashes — that silence is
//     itself a diagnostic signal.
package trace

import (
	"encoding/binary"
	"fmt"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Kind discriminates record types.
type Kind uint8

const (
	// KindCompletion marks a completion log.
	KindCompletion Kind = iota + 1
	// KindState marks a real-time state log.
	KindState
)

func (k Kind) String() string {
	switch k {
	case KindCompletion:
		return "completion"
	case KindState:
		return "state"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// kindText and opText hold each Kind's and OpKind's String name as the bytes
// MarshalText hands out: shared, so a page of records encodes its kinds
// without allocating.
var (
	kindText = [...][]byte{KindCompletion: []byte("completion"), KindState: []byte("state")}
	opText   = func() (t [len(opNames)][]byte) {
		for o, name := range opNames {
			t[o] = []byte(name)
		}
		return t
	}()
)

// MarshalText and UnmarshalText carry the kind across JSON as its String
// name, so renumbering the constants cannot change the wire; a name outside
// the set is refused.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) < len(kindText) && kindText[k] != nil {
		return kindText[k], nil
	}
	return []byte(k.String()), nil
}

func (k *Kind) UnmarshalText(text []byte) error {
	for i, name := range kindText {
		if name != nil && string(name) == string(text) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown record kind %q", text)
}

// OpKind names a collective operation.
type OpKind uint8

const (
	OpNone OpKind = iota
	OpAllReduce
	OpAllGather
	OpReduceScatter
	OpBroadcast
	OpSendRecv
	OpAllToAll
	OpBarrier
)

var opNames = [...]string{"none", "AllReduce", "AllGather", "ReduceScatter", "Broadcast", "SendRecv", "AllToAll", "Barrier"}

func (o OpKind) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// MarshalText and UnmarshalText carry the op across JSON as its String name
// ("AllReduce", ...); a name outside the set is refused.
func (o OpKind) MarshalText() ([]byte, error) {
	if int(o) < len(opText) {
		return opText[o], nil
	}
	return []byte(o.String()), nil
}

func (o *OpKind) UnmarshalText(text []byte) error {
	for i, name := range opText {
		if string(name) == string(text) {
			*o = OpKind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown op %q", text)
}

// Record is one trace log line. All Table 2 fields are present; state logs
// leave End zero, completion logs leave the chunk counters at their final
// values.
type Record struct {
	Kind Kind     `json:"kind"`
	Time sim.Time `json:"time_ns"` // emission time

	// Metadata (Table 2 row 1).
	IP      topo.IP   `json:"ip"`
	CommID  uint64    `json:"comm_id"`
	Rank    topo.Rank `json:"rank"` // Gid: global rank id
	GPUID   int32     `json:"gpu_id"`
	Channel int32     `json:"channel"`
	QPID    int32     `json:"qp_id"`

	// Operation (Table 2 row 2).
	Op      OpKind   `json:"op"`
	OpSeq   uint64   `json:"op_seq"`
	MsgSize int64    `json:"msg_size"`
	Start   sim.Time `json:"start_ns"`
	End     sim.Time `json:"end_ns"`

	// Chunk (Table 2 row 3).
	TotalChunks     uint32 `json:"total_chunks"`
	GPUReady        uint32 `json:"gpu_ready"`
	RDMATransmitted uint32 `json:"rdma_transmitted"`
	RDMADone        uint32 `json:"rdma_done"`
	StuckNs         int64  `json:"stuck_ns"` // time since this channel last made progress
}

// WireSize is the fixed encoded size of a Record in bytes. The production
// system writes fixed-size slots into preallocated shared memory; keeping
// records fixed-size preserves the volume accounting of §6.1.
const WireSize = 112

const ipBytes = 16

// MarshalBinary encodes the record into a fixed WireSize buffer.
func (r *Record) MarshalBinary() ([]byte, error) {
	if len(r.IP) > ipBytes-1 {
		return nil, fmt.Errorf("trace: IP %q longer than %d bytes", r.IP, ipBytes-1)
	}
	b := make([]byte, WireSize)
	b[0] = byte(r.Kind)
	b[1] = byte(r.Op)
	b[2] = byte(len(r.IP))
	copy(b[3:3+ipBytes-1], r.IP)
	le := binary.LittleEndian
	le.PutUint64(b[18:], uint64(r.Time))
	le.PutUint64(b[26:], r.CommID)
	le.PutUint32(b[34:], uint32(r.Rank))
	le.PutUint32(b[38:], uint32(r.GPUID))
	le.PutUint32(b[42:], uint32(r.Channel))
	le.PutUint32(b[46:], uint32(r.QPID))
	le.PutUint64(b[50:], r.OpSeq)
	le.PutUint64(b[58:], uint64(r.MsgSize))
	le.PutUint64(b[66:], uint64(r.Start))
	le.PutUint64(b[74:], uint64(r.End))
	le.PutUint32(b[82:], r.TotalChunks)
	le.PutUint32(b[86:], r.GPUReady)
	le.PutUint32(b[90:], r.RDMATransmitted)
	le.PutUint32(b[94:], r.RDMADone)
	le.PutUint64(b[98:], uint64(r.StuckNs))
	return b, nil
}

// UnmarshalBinary decodes a fixed WireSize buffer. The IP is the one field
// that needs heap memory; when r already holds the encoded IP its string is
// kept, so a decoder that seeds r.IP with the IP the record's rank last
// reported from pays for one string per host, not one per record.
func (r *Record) UnmarshalBinary(b []byte) error {
	if len(b) < WireSize {
		return fmt.Errorf("trace: short buffer %d < %d", len(b), WireSize)
	}
	le := binary.LittleEndian
	r.Kind = Kind(b[0])
	r.Op = OpKind(b[1])
	n := int(b[2])
	if n > ipBytes-1 {
		return fmt.Errorf("trace: corrupt IP length %d", n)
	}
	if string(r.IP) != string(b[3:3+n]) {
		r.IP = topo.IP(b[3 : 3+n])
	}
	r.Time = sim.Time(le.Uint64(b[18:]))
	r.CommID = le.Uint64(b[26:])
	r.Rank = topo.Rank(int32(le.Uint32(b[34:])))
	r.GPUID = int32(le.Uint32(b[38:]))
	r.Channel = int32(le.Uint32(b[42:]))
	r.QPID = int32(le.Uint32(b[46:]))
	r.OpSeq = le.Uint64(b[50:])
	r.MsgSize = int64(le.Uint64(b[58:]))
	r.Start = sim.Time(le.Uint64(b[66:]))
	r.End = sim.Time(le.Uint64(b[74:]))
	r.TotalChunks = le.Uint32(b[82:])
	r.GPUReady = le.Uint32(b[86:])
	r.RDMATransmitted = le.Uint32(b[90:])
	r.RDMADone = le.Uint32(b[94:])
	r.StuckNs = int64(le.Uint64(b[98:]))
	return nil
}

// Stalled reports whether a state log shows no transmission progress for at
// least d.
func (r *Record) Stalled(d sim.Duration) bool {
	return r.Kind == KindState && r.StuckNs >= int64(d)
}

// Done reports whether the counters show the channel finished its sends.
func (r *Record) Done() bool {
	return r.TotalChunks > 0 && r.RDMADone == r.TotalChunks
}

func (r *Record) String() string {
	if r.Kind == KindCompletion {
		return fmt.Sprintf("[%v] %s comm=%d rank=%d %s seq=%d %dB %v→%v",
			r.Time, r.Kind, r.CommID, r.Rank, r.Op, r.OpSeq, r.MsgSize, r.Start, r.End)
	}
	return fmt.Sprintf("[%v] %s comm=%d rank=%d ch=%d %s seq=%d chunks=%d/%d/%d/%d stuck=%v",
		r.Time, r.Kind, r.CommID, r.Rank, r.Channel, r.Op, r.OpSeq,
		r.GPUReady, r.RDMATransmitted, r.RDMADone, r.TotalChunks, sim.Duration(r.StuckNs))
}

// Sink consumes emitted records. The per-host ring buffer is the production
// sink; tests use slices.
type Sink interface {
	Emit(Record)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Record)

// Emit implements Sink.
func (f SinkFunc) Emit(r Record) { f(r) }

// Null discards all records (tracing disabled).
var Null Sink = SinkFunc(func(Record) {})

// Tee fans a record out to several sinks.
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(r Record) {
		for _, s := range sinks {
			s.Emit(r)
		}
	})
}
