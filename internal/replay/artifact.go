// Package replay implements Mycroft's incident artifacts and deterministic
// post-mortem replay. An artifact is a portable, self-describing capture of
// one hosted job's diagnosis inputs and outputs: a versioned header (job
// metadata, topology, the effective backend configuration, the virtual-time
// span), then a strictly time-ordered stream of everything the analysis
// consumed and produced — ingested trace batches, Algorithm 1 evaluation
// instants, and published engine events. Replaying the artifact into a fresh
// engine reproduces the original triggers and reports byte-for-byte; what-if
// replay re-runs the same evidence under overridden thresholds or an
// alternative remediation policy and diffs the verdicts.
//
// # Wire layout (format version 2)
//
//	magic   6 bytes  "MYCREC"
//	version u16 LE   2
//	header  u32 LE length, then that many bytes of JSON (Header)
//	chunks  repeated: u32 LE payload length, u32 LE CRC-32 (IEEE) of the
//	        payload, then the payload
//
// Each chunk payload is a sequence of entries; an entry never spans chunks,
// so a reader can stream arbitrarily large artifacts one chunk at a time and
// a torn final chunk loses at most one chunk of tail. Entry encodings:
//
//	'B' batch  i64 time ns, u32 count ≤ maxBatch, count records (codec.go)
//	'V' eval   i64 time ns (one Algorithm 1 pass at that instant)
//	'E' event  i64 time ns, u32 length, api.Event JSON
//	'Z' footer i64 end ns, u64 records, u64 evals, u64 events
//
// Entry times are non-decreasing across the whole stream, and record times
// are non-decreasing per rank — the decoder enforces both, so a replayer can
// feed batches straight into clouddb.Ingest. A record is written as a delta
// against the previous record of its flow, whatever chunk that sits in, so a
// stream decodes from its start; ~7 B a record where the tracepoint slot
// takes trace.WireSize. A clean EOF at a chunk boundary without a footer is a
// valid *incomplete* artifact: that is what a live download from a
// still-running daemon looks like.
//
// Artifacts double as the fixture format for the planned 10k-rank stress
// harness: the chunked framing streams multi-GB captures without buffering.
package replay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// FormatVersion is the artifact format this package reads and writes. It
// reads no other: version 1 wrote each record as its trace.WireSize slot.
const FormatVersion = 2

// magic identifies an incident artifact.
var magic = [6]byte{'M', 'Y', 'C', 'R', 'E', 'C'}

// chunkTarget is the payload size the encoder flushes at. One entry larger
// than the target gets its own oversized chunk.
const chunkTarget = 64 << 10

// maxChunk bounds a decoded chunk payload so a corrupt length field cannot
// ask for an absurd allocation.
const maxChunk = 64 << 20

// maxBatch bounds the records of one batch entry: as many tracepoint slots
// as a chunk holds, which was the most a version-1 artifact could carry. The
// encoder refuses a larger batch and the decoder a larger count before it
// sizes any buffer by it.
const maxBatch = maxChunk / trace.WireSize

// maxHeader bounds the decoded header JSON.
const maxHeader = 1 << 20

// maxWorld bounds the header's world size. Encoder and decoder keep a table
// indexed by rank, sized by it, so a hostile header cannot ask for an
// unbounded one. 2^20 ranks is ~85× MegaScale's 12,288 GPUs.
const maxWorld = 1 << 20

// Typed decode errors. Every malformed input maps onto exactly one of these
// (wrapped with position detail); the decoder never panics.
var (
	// ErrBadMagic: the input does not start with the artifact magic.
	ErrBadMagic = errors.New("replay: not an incident artifact (bad magic)")
	// ErrUnsupportedVersion: the artifact's format version is unknown.
	ErrUnsupportedVersion = errors.New("replay: unsupported artifact format version")
	// ErrTruncated: the input ends mid-header or mid-chunk.
	ErrTruncated = errors.New("replay: truncated artifact")
	// ErrCorrupt: a CRC mismatch, an unknown entry tag, an entry overrunning
	// its chunk, undecodable header/event JSON, a world size outside
	// [1, 2^20], a batch over maxBatch records, a record naming a flow not
	// yet opened, or a record whose rank is outside [0, world size).
	ErrCorrupt = errors.New("replay: corrupt artifact")
	// ErrOutOfOrder: entry times decrease, or a rank's record times decrease
	// (a time delta that wraps).
	ErrOutOfOrder = errors.New("replay: out-of-order artifact")
)

// Header is the artifact's self-description: everything a replayer needs to
// rebuild an equivalent analysis stack before the first entry.
type Header struct {
	// FormatVersion is duplicated from the binary prefix so a header-only
	// inspection (jq on the JSON) is self-contained.
	FormatVersion int `json:"format_version"`
	// Job is the hosted job's service address.
	Job string `json:"job"`
	// CreatedBy names the writing program ("mycroft-serve/1", a test, ...).
	CreatedBy string `json:"created_by,omitempty"`
	// Seed is the engine seed the original run used (informational: the
	// replayer re-drives recorded inputs, it does not re-simulate the job).
	Seed int64 `json:"seed"`
	// WorldSize is the job's rank count.
	WorldSize int `json:"world_size"`
	// Topo sizes the original cluster.
	Topo topo.Config `json:"topo"`
	// SampledRanks are the ranks Algorithm 1 monitored.
	SampledRanks []int `json:"sampled_ranks"`
	// Backend is the effective analysis configuration (defaults applied):
	// every §9 threshold the replay needs to reproduce, or override, the
	// original verdicts.
	Backend core.Config `json:"backend"`
	// StartNs is the virtual time recording began: before the job's first
	// record, so the artifact holds the whole run.
	StartNs int64 `json:"start_ns"`
}

// Footer closes a complete artifact.
type Footer struct {
	// EndNs is the virtual time recording stopped.
	EndNs int64
	// Records, Evals and Events count the stream's entries by kind.
	Records uint64
	Evals   uint64
	Events  uint64
}

// EntryKind discriminates stream entries.
type EntryKind byte

const (
	// EntryBatch carries one ingested batch of trace records.
	EntryBatch EntryKind = 'B'
	// EntryEval marks one Algorithm 1 evaluation pass.
	EntryEval EntryKind = 'V'
	// EntryEvent carries one published service event, as /v1 encodes it.
	EntryEvent EntryKind = 'E'

	entryFooter EntryKind = 'Z'
)

// Entry is one decoded stream element.
type Entry struct {
	Kind EntryKind
	// At is the entry's virtual time in ns. For batches it is the ingest
	// instant (records inside carry their own emission times, which may be
	// earlier — the collector uploads with latency).
	At int64
	// Batch holds the records of an EntryBatch. It is the decoder's own
	// buffer, valid until the next call to Next, which overwrites it: a
	// caller that keeps records past that copies them.
	Batch []trace.Record
	// Event holds the event of an EntryEvent.
	Event api.Event
}

// Encoder writes an artifact incrementally: entries accumulate in an
// in-memory chunk that is framed and flushed at chunkTarget, on Sync, and on
// Close. The encoder enforces the ordering invariants at write time so every
// artifact it produces decodes cleanly.
type Encoder struct {
	w   io.Writer
	buf []byte // current chunk payload

	lastAt   int64
	rankLast []int64 // newest record time per rank, math.MinInt64 before its first
	flows    []flow  // by flow id
	flowIDs  map[flowKey]uint32
	footer   Footer
	closed   bool
	err      error
}

// NewEncoder writes the artifact prefix and header and returns an encoder
// positioned at the first entry.
func NewEncoder(w io.Writer, h Header) (*Encoder, error) {
	if err := checkWorld(h.WorldSize); err != nil {
		return nil, err
	}
	h.FormatVersion = FormatVersion
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("replay: encoding header: %w", err)
	}
	var pre bytes.Buffer
	pre.Write(magic[:])
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], FormatVersion)
	pre.Write(v[:])
	var hlen [4]byte
	binary.LittleEndian.PutUint32(hlen[:], uint32(len(hdr)))
	pre.Write(hlen[:])
	pre.Write(hdr)
	if _, err := w.Write(pre.Bytes()); err != nil {
		return nil, err
	}
	rankLast := make([]int64, h.WorldSize)
	for i := range rankLast {
		rankLast[i] = math.MinInt64
	}
	return &Encoder{w: w, lastAt: h.StartNs, rankLast: rankLast, flowIDs: make(map[flowKey]uint32)}, nil
}

// checkWorld refuses a header world size the rank tables cannot be sized by.
func checkWorld(n int) error {
	if n < 1 || n > maxWorld {
		return fmt.Errorf("%w: world_size %d outside [1, %d]", ErrCorrupt, n, maxWorld)
	}
	return nil
}

// fail latches the first error; once failed every write is a no-op returning
// that error, so a recorder behind a dead disk degrades instead of panicking
// the engine dispatch it runs inside.
func (e *Encoder) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

// Err returns the encoder's latched error, if any.
func (e *Encoder) Err() error { return e.err }

// checkAt enforces non-decreasing entry times at write time.
func (e *Encoder) checkAt(atNs int64) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return e.fail(errors.New("replay: write after Close"))
	}
	if atNs < e.lastAt {
		return e.fail(fmt.Errorf("replay: entry at %dns after %dns: %w", atNs, e.lastAt, ErrOutOfOrder))
	}
	e.lastAt = atNs
	return nil
}

// WriteBatch appends one ingested batch at virtual time atNs. It refuses, as
// the decoder does, a batch of more than maxBatch records, a record whose
// rank is outside the header's world or whose IP is longer than the
// tracepoint slot's, and a rank's record older than its previous one.
func (e *Encoder) WriteBatch(atNs int64, recs []trace.Record) error {
	if len(recs) == 0 {
		return e.err
	}
	if err := e.checkAt(atNs); err != nil {
		return err
	}
	if len(recs) > maxBatch {
		return e.fail(fmt.Errorf("replay: batch of %d records over the %d-record cap: %w", len(recs), maxBatch, ErrCorrupt))
	}
	start := e.startEntry(EntryBatch, atNs)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		if r.Rank < 0 || int(r.Rank) >= len(e.rankLast) {
			return e.fail(fmt.Errorf("replay: record rank %d outside the %d-rank world: %w", r.Rank, len(e.rankLast), ErrCorrupt))
		}
		if len(r.IP) > maxIP {
			return e.fail(fmt.Errorf("replay: record IP %q longer than %d bytes: %w", r.IP, maxIP, ErrCorrupt))
		}
		last := e.rankLast[r.Rank]
		if int64(r.Time) < last {
			return e.fail(fmt.Errorf("replay: rank %d record at %dns after %dns: %w", r.Rank, int64(r.Time), last, ErrOutOfOrder))
		}
		e.buf = e.appendRecord(e.buf, r, last)
		e.rankLast[r.Rank] = int64(r.Time)
	}
	e.footer.Records += uint64(len(recs))
	return e.endEntry(start)
}

// WriteEval appends one Algorithm 1 evaluation instant.
func (e *Encoder) WriteEval(atNs int64) error {
	if err := e.checkAt(atNs); err != nil {
		return err
	}
	e.footer.Evals++
	return e.endEntry(e.startEntry(EntryEval, atNs))
}

// WriteEvent appends one published service event.
func (e *Encoder) WriteEvent(atNs int64, ev api.Event) error {
	if err := e.checkAt(atNs); err != nil {
		return err
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return e.fail(fmt.Errorf("replay: encoding event: %w", err))
	}
	start := e.startEntry(EntryEvent, atNs)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(payload)))
	e.buf = append(e.buf, payload...)
	e.footer.Events++
	return e.endEntry(start)
}

// startEntry appends an entry's tag and time to the chunk and returns where
// the entry starts.
func (e *Encoder) startEntry(kind EntryKind, atNs int64) int {
	start := len(e.buf)
	e.buf = binary.LittleEndian.AppendUint64(append(e.buf, byte(kind)), uint64(atNs))
	return start
}

// endEntry closes the entry that starts at buf[start:]. An entry never spans
// chunks: when it took the chunk past chunkTarget, the entries before it go
// out as one chunk and it starts the next. A chunk at the target is flushed.
func (e *Encoder) endEntry(start int) error {
	if n := len(e.buf) - start; n > maxChunk {
		return e.fail(fmt.Errorf("replay: %q entry of %d bytes over the %d-byte chunk cap: %w", e.buf[start], n, maxChunk, ErrCorrupt))
	}
	if start > 0 && len(e.buf) > chunkTarget {
		e.writeChunk(e.buf[:start])
		e.buf = e.buf[:copy(e.buf, e.buf[start:])]
	}
	if len(e.buf) >= chunkTarget {
		e.flush()
	}
	return e.err
}

// flush frames and writes the buffered chunk.
func (e *Encoder) flush() {
	if len(e.buf) > 0 {
		e.writeChunk(e.buf)
		e.buf = e.buf[:0]
	}
}

// writeChunk frames and writes one chunk payload.
func (e *Encoder) writeChunk(payload []byte) {
	if e.err != nil {
		return
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := e.w.Write(frame[:]); err != nil {
		e.fail(err)
		return
	}
	if _, err := e.w.Write(payload); err != nil {
		e.fail(err)
	}
}

// Sync flushes the partial chunk so the bytes written so far form a valid
// (incomplete) artifact — the live-download snapshot path.
func (e *Encoder) Sync() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return nil
	}
	e.flush()
	return e.err
}

// Close writes the footer entry and flushes. endNs stamps when recording
// stopped; it must not precede the last entry. Close is idempotent.
func (e *Encoder) Close(endNs int64) error {
	if e.closed || e.err != nil {
		return e.err
	}
	if endNs < e.lastAt {
		endNs = e.lastAt
	}
	e.footer.EndNs = endNs
	start := e.startEntry(entryFooter, endNs)
	for _, n := range []uint64{e.footer.Records, e.footer.Evals, e.footer.Events} {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, n)
	}
	e.endEntry(start)
	e.flush()
	e.closed = true
	return e.err
}

// Decoder streams an artifact: NewDecoder reads the prefix and header, Next
// yields entries until io.EOF (after the footer, or at a clean incomplete
// end) or a typed error.
//
// A decoder allocates nothing per entry in the steady state. It reads every
// chunk into one payload buffer and Next decodes every batch into one record
// buffer, both grown to the largest seen and reused, so an Entry's Batch is
// valid only until the next call to Next. (Replay's read-ahead decodes into
// page buffers of its own.) Per rank it keeps, in a table indexed by rank and
// sized by the header's world size, the newest record time (the base of the
// next time delta) and the IP the rank last reported from: a flow opened or
// moved to that IP takes the rank's string, so a string is allocated only
// when a rank moves host. Its flow table is one slice grown by append.
type Decoder struct {
	r      *bufio.Reader
	header Header

	chunk  []byte         // current chunk payload; its backing array is reused
	off    int            // read offset into chunk
	batch  []trace.Record // Next's record buffer
	lastAt int64
	ranks  []rankCursor // indexed by rank
	flows  []flow       // by flow id

	footer   *Footer
	seen     Footer // running counts, cross-checked against the footer
	done     bool
	firstErr error
}

// rankCursor is what a decoder remembers of one rank between its records.
type rankCursor struct {
	last int64   // newest record time, math.MinInt64 before the first
	ip   topo.IP // the IP of that record
}

// NewDecoder reads the magic, version and header. The reader is consumed
// incrementally; large artifacts are never buffered whole.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	var prefix [8]byte
	if _, err := io.ReadFull(d.r, prefix[:]); err != nil {
		return nil, fmt.Errorf("%w: reading prefix: %v", eofKind(err, ErrBadMagic), err)
	}
	if !bytes.Equal(prefix[:6], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(prefix[6:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrUnsupportedVersion, v, FormatVersion)
	}
	var hlen [4]byte
	if _, err := io.ReadFull(d.r, hlen[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header length", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(hlen[:])
	if n == 0 || n > maxHeader {
		return nil, fmt.Errorf("%w: header length %d", ErrCorrupt, n)
	}
	hdr := make([]byte, n)
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header", ErrTruncated)
	}
	if err := json.Unmarshal(hdr, &d.header); err != nil {
		return nil, fmt.Errorf("%w: header JSON: %v", ErrCorrupt, err)
	}
	if d.header.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: header declares version %d", ErrUnsupportedVersion, d.header.FormatVersion)
	}
	if err := checkWorld(d.header.WorldSize); err != nil {
		return nil, err
	}
	d.ranks = make([]rankCursor, d.header.WorldSize)
	for i := range d.ranks {
		d.ranks[i].last = math.MinInt64
	}
	d.lastAt = d.header.StartNs
	return d, nil
}

// eofKind maps an unexpected EOF to trunc and anything else to base.
func eofKind(err, base error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		if base == ErrBadMagic {
			return ErrBadMagic // shorter than the magic: not an artifact at all
		}
		return ErrTruncated
	}
	return base
}

// Header returns the decoded artifact header.
func (d *Decoder) Header() Header { return d.header }

// Footer returns the decoded footer after Next has returned io.EOF on a
// complete artifact.
func (d *Decoder) Footer() (Footer, bool) {
	if d.footer == nil {
		return Footer{}, false
	}
	return *d.footer, true
}

// Complete reports whether the stream ended with a valid footer. Meaningful
// once Next has returned io.EOF; an incomplete artifact (live snapshot,
// crashed recorder) decodes fine but reports false.
func (d *Decoder) Complete() bool { return d.footer != nil }

// fail latches and returns a decode error.
func (d *Decoder) fail(err error) error {
	if d.firstErr == nil {
		d.firstErr = err
	}
	d.done = true
	return err
}

// nextChunk reads and verifies the next chunk frame. io.EOF at a frame
// boundary is the clean incomplete end.
func (d *Decoder) nextChunk() error {
	var frame [8]byte
	if _, err := io.ReadFull(d.r, frame[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF // clean end between chunks
		}
		return d.fail(fmt.Errorf("%w: chunk frame", ErrTruncated))
	}
	n := binary.LittleEndian.Uint32(frame[:4])
	if n == 0 || n > maxChunk {
		return d.fail(fmt.Errorf("%w: chunk length %d", ErrCorrupt, n))
	}
	if cap(d.chunk) < int(n) {
		d.chunk = make([]byte, n)
	}
	payload := d.chunk[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return d.fail(fmt.Errorf("%w: chunk body (%d bytes expected)", ErrTruncated, n))
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(frame[4:]) {
		return d.fail(fmt.Errorf("%w: chunk CRC mismatch", ErrCorrupt))
	}
	d.chunk, d.off = payload, 0
	return nil
}

// take returns the next n bytes of the current chunk.
func (d *Decoder) take(n int) ([]byte, error) {
	if d.off+n > len(d.chunk) {
		return nil, d.fail(fmt.Errorf("%w: entry overruns chunk", ErrCorrupt))
	}
	b := d.chunk[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Next returns the next entry. It returns io.EOF at the end of the stream
// (complete or not) and a typed error for malformed input; after an error or
// EOF every further call returns the same result. A batch entry's records
// live in the decoder's buffer and are overwritten by the next call.
func (d *Decoder) Next() (Entry, error) {
	e, err := d.next(d.batch, true)
	if cap(e.Batch) > cap(d.batch) {
		d.batch = e.Batch
	}
	return e, err
}

// errNoRoom is next's answer when a batch does not fit the room it was given
// and it may not grow: the entry is left unread.
var errNoRoom = errors.New("replay: batch does not fit")

// next decodes the next entry. A batch's records are decoded into room when
// its capacity holds them. When it does not, next decodes them into a new
// slice if grow is set, and otherwise leaves the entry unread and returns
// errNoRoom.
func (d *Decoder) next(room []trace.Record, grow bool) (Entry, error) {
	if d.done {
		if d.firstErr != nil {
			return Entry{}, d.firstErr
		}
		return Entry{}, io.EOF
	}
	for d.off >= len(d.chunk) {
		if err := d.nextChunk(); err != nil {
			if errors.Is(err, io.EOF) {
				d.done = true
				return Entry{}, io.EOF
			}
			return Entry{}, err
		}
	}
	start, prevAt := d.off, d.lastAt
	tag, err := d.take(1)
	if err != nil {
		return Entry{}, err
	}
	atB, err := d.take(8)
	if err != nil {
		return Entry{}, err
	}
	at := int64(binary.LittleEndian.Uint64(atB))
	kind := EntryKind(tag[0])
	if kind != entryFooter {
		if at < d.lastAt {
			return Entry{}, d.fail(fmt.Errorf("%w: entry at %dns after %dns", ErrOutOfOrder, at, d.lastAt))
		}
		d.lastAt = at
	}
	switch kind {
	case EntryBatch:
		nB, err := d.take(4)
		if err != nil {
			return Entry{}, err
		}
		n := binary.LittleEndian.Uint32(nB)
		if n > maxBatch {
			return Entry{}, d.fail(fmt.Errorf("%w: batch of %d records over the %d-record cap", ErrCorrupt, n, maxBatch))
		}
		if int(n)*minRecord > len(d.chunk)-d.off {
			return Entry{}, d.fail(fmt.Errorf("%w: batch of %d records overruns chunk", ErrCorrupt, n))
		}
		var recs []trace.Record
		switch {
		case int(n) <= cap(room):
			recs = room[:n]
		case grow:
			recs = make([]trace.Record, n)
		default:
			d.off, d.lastAt = start, prevAt
			return Entry{}, errNoRoom
		}
		for i := range recs {
			if err := d.record(&recs[i]); err != nil {
				return Entry{}, err
			}
		}
		d.seen.Records += uint64(n)
		return Entry{Kind: EntryBatch, At: at, Batch: recs}, nil
	case EntryEval:
		d.seen.Evals++
		return Entry{Kind: EntryEval, At: at}, nil
	case EntryEvent:
		nB, err := d.take(4)
		if err != nil {
			return Entry{}, err
		}
		n := binary.LittleEndian.Uint32(nB)
		payload, err := d.take(int(n))
		if err != nil {
			return Entry{}, err
		}
		var ev api.Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return Entry{}, d.fail(fmt.Errorf("%w: event JSON: %v", ErrCorrupt, err))
		}
		d.seen.Events++
		return Entry{Kind: EntryEvent, At: at, Event: ev}, nil
	case entryFooter:
		body, err := d.take(24)
		if err != nil {
			return Entry{}, err
		}
		f := Footer{
			EndNs:   at,
			Records: binary.LittleEndian.Uint64(body[0:]),
			Evals:   binary.LittleEndian.Uint64(body[8:]),
			Events:  binary.LittleEndian.Uint64(body[16:]),
		}
		if f.EndNs < d.lastAt {
			return Entry{}, d.fail(fmt.Errorf("%w: footer end %dns before last entry %dns", ErrOutOfOrder, f.EndNs, d.lastAt))
		}
		if f.Records != d.seen.Records || f.Evals != d.seen.Evals || f.Events != d.seen.Events {
			return Entry{}, d.fail(fmt.Errorf("%w: footer counts %+v disagree with stream %+v", ErrCorrupt, f, d.seen))
		}
		if d.off != len(d.chunk) {
			return Entry{}, d.fail(fmt.Errorf("%w: %d bytes after footer", ErrCorrupt, len(d.chunk)-d.off))
		}
		if _, err := d.r.ReadByte(); err == nil {
			return Entry{}, d.fail(fmt.Errorf("%w: data after final chunk", ErrCorrupt))
		}
		d.footer = &f
		d.done = true
		return Entry{}, io.EOF
	default:
		return Entry{}, d.fail(fmt.Errorf("%w: unknown entry tag %q", ErrCorrupt, tag[0]))
	}
}
