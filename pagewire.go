package mycroft

import (
	"bytes"
	"math"
	"slices"
	"strconv"

	"mycroft/internal/core"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// The trace, trigger, report and dependency pages carry their own codec for
// their canonical JSON form, over internal/trace/json.go: strings and floats
// follow its rules, and every enum is checked as its UnmarshalText checks it.

// wireCodec is a result with its own codec for its canonical JSON form, the
// bytes json.Encoder writes for it. Each half reports false to hand the value
// to encoding/json, which handles every input and is the reference the two
// are held to; nothing but the bytes chooses between them.
type wireCodec interface {
	appendWire(dst []byte) ([]byte, bool)
	wireReader
}

// wireReader is a codec's parse half on its own: a request body with a
// reader (ingestwire.go) is read by it when it is in its canonical form and
// by encoding/json otherwise, and so is an answer (remote.go's decode).
type wireReader interface {
	parseWire(body []byte) bool
}

// recordJSONSize is a trace record's usual canonical length rounded up, to
// size a page's buffer once.
const recordJSONSize = 320

// appendWire appends the page as json.Encoder writes it, newline included. It
// reports false, leaving dst as it was, when a record's kind or op is outside
// its set.
func (res *TraceResult) appendWire(dst []byte) ([]byte, bool) {
	n := len(dst)
	dst = slices.Grow(dst, 64+len(res.Records)*recordJSONSize)
	dst = append(dst, `{"job":`...)
	dst = trace.AppendJSONString(dst, string(res.Job))
	if res.Records == nil {
		dst = append(dst, `,"records":null`...)
	} else {
		dst = append(dst, `,"records":[`...)
		for i := range res.Records {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = trace.AppendJSON(dst, &res.Records[i]); !ok {
				return dst[:n], false
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(res.Total), 10)
	if c := res.Next; c != nil {
		dst = append(dst, `,"next":{"rank":`...)
		dst = strconv.AppendInt(dst, int64(c.Rank), 10)
		dst = append(dst, `,"time_ns":`...)
		dst = strconv.AppendInt(dst, int64(c.Time), 10)
		dst = append(dst, `,"emitted":`...)
		dst = strconv.AppendInt(dst, int64(c.Emitted), 10)
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...), true
}

// recordStart opens every record of a canonical page and occurs nowhere else
// in one, since a canonical string holds no unescaped quote. Counting it
// sizes the page once; MinJSONSize caps that count for a body that is not
// canonical.
var recordStart = []byte(`{"kind":`)

// parseWire reads a page in the form appendWire writes into res and reports
// true, or reports false and leaves res alone. Each record's IP string is the
// previous record's when their bytes are equal.
func (res *TraceResult) parseWire(body []byte) bool {
	p := trace.JSONReader{B: body, OK: true}
	p.Lit(`{"job":`)
	job := p.Text()
	var recs []TraceRecord
	if !p.Skip(`,"records":null`) {
		p.Lit(`,"records":`)
		recs = make([]TraceRecord, 0, listHint(p.B, recordStart, trace.MinJSONSize))
		for i := 0; p.Elem(i); i++ {
			var r TraceRecord
			if i > 0 {
				r.IP = recs[i-1].IP
			}
			recs = append(recs, r)
			p.Record(&recs[i])
		}
	}
	p.Lit(`,"total":`)
	total := p.Int(math.MinInt, math.MaxInt)
	var next *TraceCursor
	if p.Skip(`,"next":{"rank":`) {
		next = &TraceCursor{Rank: Rank(p.Int(math.MinInt, math.MaxInt))}
		p.Lit(`,"time_ns":`)
		next.Time = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
		p.Lit(`,"emitted":`)
		next.Emitted = int(p.Int(math.MinInt, math.MaxInt))
		p.Lit("}")
	}
	p.Lit("}\n")
	if !p.OK || len(p.B) > 0 {
		return false
	}
	*res = TraceResult{Job: JobID(job), Records: recs, Total: int(total), Next: next}
	return true
}

// listHint sizes a list read from b, whose elements each open with start and
// take at least least bytes: the count of start, capped by what b can hold.
func listHint(b, start []byte, least int) int {
	return min(bytes.Count(b, start), len(b)/least)
}

// nestedHint sizes a list nested in a page's element from b, which holds the
// list from its "[" on: the count of c up to the first "]", capped by what b
// can hold at least bytes an element. A list of objects counts "{", a list of
// numbers counts ",", one less than its length.
func nestedHint(b []byte, c byte, least int) int {
	if end := bytes.IndexByte(b, ']'); end >= 0 {
		b = b[:end]
	}
	return min(bytes.Count(b, []byte{c}), len(b)/least)
}

// The enum values a verdict page may carry: exactly those the type's
// UnmarshalText takes back. json.Encoder writes any other value and no reader
// takes it, so appendWire declines a page holding one.
func triggerKindOK(k TriggerKind) bool { return k == TriggerFailure || k == TriggerStraggler }

func edgeKindOK(k DependencyEdgeKind) bool {
	return k == EdgeBarrier || k == EdgePipeline || k == EdgeNested || k == ""
}

func modalityOK(m Modality) bool {
	return m == ModalityTracepoint || m == ModalityLog || m == ModalityPerf
}

// appendList appends xs as a JSON list, null when nil, each element by elem.
func appendList[T any](dst []byte, xs []T, elem func([]byte, *T) ([]byte, bool)) ([]byte, bool) {
	if xs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = elem(dst, &xs[i]); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// appendPageEnd closes a paged verdict answer.
func appendPageEnd(dst []byte, total, next int) []byte {
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, `,"next_offset":`...)
	dst = strconv.AppendInt(dst, int64(next), 10)
	return append(dst, "}\n"...)
}

// readPageEnd reads what appendPageEnd writes.
func readPageEnd(p *trace.JSONReader) (total, next int) {
	p.Lit(`,"total":`)
	total = int(p.Int(math.MinInt, math.MaxInt))
	p.Lit(`,"next_offset":`)
	next = int(p.Int(math.MinInt, math.MaxInt))
	p.Lit("}\n")
	return total, next
}

func appendTrigger(dst []byte, tr *Trigger) ([]byte, bool) {
	if !triggerKindOK(tr.Kind) {
		return dst, false
	}
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, tr.Kind.String()...)
	dst = append(dst, `","rank":`...)
	dst = strconv.AppendInt(dst, int64(tr.Rank), 10)
	dst = append(dst, `,"ip":`...)
	dst = trace.AppendJSONString(dst, string(tr.IP))
	dst = append(dst, `,"at_ns":`...)
	dst = strconv.AppendInt(dst, int64(tr.At), 10)
	dst = append(dst, `,"comm_id":`...)
	dst = strconv.AppendUint(dst, tr.CommID, 10)
	dst = append(dst, `,"reason":`...)
	dst = trace.AppendJSONString(dst, tr.Reason)
	return append(dst, '}'), true
}

func readTrigger(p *trace.JSONReader, tr *Trigger) {
	p.Lit(`{"kind":`)
	p.Enum(&tr.Kind)
	p.Lit(`,"rank":`)
	tr.Rank = Rank(p.Int(math.MinInt, math.MaxInt))
	p.Lit(`,"ip":`)
	tr.IP = topo.IP(p.Text())
	p.Lit(`,"at_ns":`)
	tr.At = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
	p.Lit(`,"comm_id":`)
	tr.CommID = p.Uint(math.MaxUint64)
	p.Lit(`,"reason":`)
	tr.Reason = p.Text()
	p.Lit("}")
}

func appendJobTrigger(dst []byte, t *JobTrigger) ([]byte, bool) {
	dst = append(dst, `{"job":`...)
	dst = trace.AppendJSONString(dst, string(t.Job))
	dst = append(dst, `,"trigger":`...)
	dst, ok := appendTrigger(dst, &t.Trigger)
	return append(dst, '}'), ok
}

// appendWire appends the page as json.Encoder writes it, newline included. It
// reports false, leaving dst as it was, when a trigger's kind is outside its
// set.
func (res *TriggerResult) appendWire(dst []byte) ([]byte, bool) {
	n, size := len(dst), 64
	for i := range res.Triggers {
		t := &res.Triggers[i]
		size += minJobTriggerJSON + 32 + len(t.Job) + len(t.IP) + len(t.Reason)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"triggers":`...)
	dst, ok := appendList(dst, res.Triggers, appendJobTrigger)
	if !ok {
		return dst[:n], false
	}
	return appendPageEnd(dst, res.Total, res.NextOffset), true
}

// jobStart opens every element of a trigger or report page.
var jobStart = []byte(`{"job":`)

// parseWire reads a page in the form appendWire writes into res and reports
// true, or reports false and leaves res alone.
func (res *TriggerResult) parseWire(body []byte) bool {
	p := trace.JSONReader{B: body, OK: true}
	p.Lit(`{"triggers":`)
	var trs []JobTrigger
	if !p.Skip("null") {
		trs = make([]JobTrigger, 0, listHint(p.B, jobStart, minJobTriggerJSON))
		for i := 0; p.Elem(i); i++ {
			trs = append(trs, JobTrigger{})
			p.Lit(`{"job":`)
			trs[i].Job = JobID(p.Text())
			p.Lit(`,"trigger":`)
			readTrigger(&p, &trs[i].Trigger)
			p.Lit("}")
		}
	}
	total, next := readPageEnd(&p)
	if !p.OK || len(p.B) > 0 {
		return false
	}
	*res = TriggerResult{Triggers: trs, Total: total, NextOffset: next}
	return true
}

func appendHop(dst []byte, h *Hop) ([]byte, bool) {
	dst = append(dst, `{"comm":`...)
	dst = strconv.AppendUint(dst, h.Comm, 10)
	dst = append(dst, `,"suspect":`...)
	dst = strconv.AppendInt(dst, int64(h.Suspect), 10)
	dst = append(dst, `,"via":`...)
	dst = trace.AppendJSONString(dst, string(h.Via))
	if h.Edge != "" {
		if !edgeKindOK(h.Edge) {
			return dst, false
		}
		dst = append(dst, `,"edge":`...)
		dst = trace.AppendJSONString(dst, string(h.Edge))
	}
	return append(dst, '}'), true
}

func appendEvidence(dst []byte, e *Evidence) ([]byte, bool) {
	if !modalityOK(e.Channel) {
		return dst, false
	}
	dst = append(dst, `{"channel":`...)
	dst = trace.AppendJSONString(dst, string(e.Channel))
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(e.Rank), 10)
	dst = append(dst, `,"category":`...)
	dst = trace.AppendJSONString(dst, string(e.Category))
	dst = append(dst, `,"weight":`...)
	dst, ok := trace.AppendJSONFloat(dst, e.Weight)
	if !ok {
		return dst, false
	}
	if e.Score != 0 {
		dst = append(dst, `,"score":`...)
		if dst, ok = trace.AppendJSONFloat(dst, e.Score); !ok {
			return dst, false
		}
	}
	dst = append(dst, `,"at_ns":`...)
	dst = strconv.AppendInt(dst, int64(e.At), 10)
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = trace.AppendJSONString(dst, e.Detail)
	}
	if e.Conflict {
		dst = append(dst, `,"conflict":true`...)
	}
	return append(dst, '}'), true
}

func appendReport(dst []byte, r *Report) ([]byte, bool) {
	dst = append(dst, `{"trigger":`...)
	dst, ok := appendTrigger(dst, &r.Trigger)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"suspect":`...)
	dst = strconv.AppendInt(dst, int64(r.Suspect), 10)
	dst = append(dst, `,"suspect_ip":`...)
	dst = trace.AppendJSONString(dst, string(r.SuspectIP))
	dst = append(dst, `,"comm_id":`...)
	dst = strconv.AppendUint(dst, r.CommID, 10)
	dst = append(dst, `,"category":`...)
	dst = trace.AppendJSONString(dst, string(r.Category))
	dst = append(dst, `,"via":`...)
	dst = trace.AppendJSONString(dst, string(r.Via))
	dst = append(dst, `,"analyzed_at_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.AnalyzedAt), 10)
	dst = append(dst, `,"details":`...)
	dst = trace.AppendJSONString(dst, r.Details)
	if len(r.Chain) > 0 {
		dst = append(dst, `,"chain":`...)
		if dst, ok = appendList(dst, r.Chain, appendHop); !ok {
			return dst, false
		}
	}
	if len(r.Victims) > 0 {
		dst = append(dst, `,"victims":`...)
		dst = append(dst, '[')
		for i, v := range r.Victims {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	if len(r.Evidence) > 0 {
		dst = append(dst, `,"evidence":`...)
		if dst, ok = appendList(dst, r.Evidence, appendEvidence); !ok {
			return dst, false
		}
	}
	if r.Confidence != 0 {
		dst = append(dst, `,"confidence":`...)
		if dst, ok = trace.AppendJSONFloat(dst, r.Confidence); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

func readReport(p *trace.JSONReader, r *Report) {
	p.Lit(`{"trigger":`)
	readTrigger(p, &r.Trigger)
	p.Lit(`,"suspect":`)
	r.Suspect = Rank(p.Int(math.MinInt, math.MaxInt))
	p.Lit(`,"suspect_ip":`)
	r.SuspectIP = topo.IP(p.Text())
	p.Lit(`,"comm_id":`)
	r.CommID = p.Uint(math.MaxUint64)
	p.Lit(`,"category":`)
	r.Category = Category(p.Text())
	p.Lit(`,"via":`)
	r.Via = core.Via(p.Text())
	p.Lit(`,"analyzed_at_ns":`)
	r.AnalyzedAt = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
	p.Lit(`,"details":`)
	r.Details = p.Text()
	if p.Skip(`,"chain":`) && !p.Skip("null") {
		r.Chain = make([]Hop, 0, nestedHint(p.B, '{', minHopJSON))
		for i := 0; p.Elem(i); i++ {
			r.Chain = append(r.Chain, Hop{})
			h := &r.Chain[i]
			p.Lit(`{"comm":`)
			h.Comm = p.Uint(math.MaxUint64)
			p.Lit(`,"suspect":`)
			h.Suspect = Rank(p.Int(math.MinInt, math.MaxInt))
			p.Lit(`,"via":`)
			h.Via = core.Via(p.Text())
			if p.Skip(`,"edge":`) {
				p.Enum(&h.Edge)
			}
			p.Lit("}")
		}
	}
	if p.Skip(`,"victims":`) && !p.Skip("null") {
		r.Victims = make([]Rank, 0, nestedHint(p.B, ',', 2)+1)
		for i := 0; p.Elem(i); i++ {
			r.Victims = append(r.Victims, Rank(p.Int(math.MinInt, math.MaxInt)))
		}
	}
	if p.Skip(`,"evidence":`) && !p.Skip("null") {
		r.Evidence = make([]Evidence, 0, nestedHint(p.B, '{', minEvidenceJSON))
		for i := 0; p.Elem(i); i++ {
			r.Evidence = append(r.Evidence, Evidence{})
			readEvidence(p, &r.Evidence[i])
		}
	}
	if p.Skip(`,"confidence":`) {
		r.Confidence = p.Float()
	}
	p.Lit("}")
}

func readEvidence(p *trace.JSONReader, e *Evidence) {
	p.Lit(`{"channel":`)
	p.Enum(&e.Channel)
	p.Lit(`,"rank":`)
	e.Rank = Rank(p.Int(math.MinInt, math.MaxInt))
	p.Lit(`,"category":`)
	e.Category = Category(p.Text())
	p.Lit(`,"weight":`)
	e.Weight = p.Float()
	if p.Skip(`,"score":`) {
		e.Score = p.Float()
	}
	p.Lit(`,"at_ns":`)
	e.At = sim.Time(p.Int(math.MinInt64, math.MaxInt64))
	if p.Skip(`,"detail":`) {
		e.Detail = p.Text()
	}
	e.Conflict = p.Skip(`,"conflict":true`)
	p.Lit("}")
}

func appendJobReport(dst []byte, r *JobReport) ([]byte, bool) {
	dst = append(dst, `{"job":`...)
	dst = trace.AppendJSONString(dst, string(r.Job))
	dst = append(dst, `,"report":`...)
	dst, ok := appendReport(dst, &r.Report)
	return append(dst, '}'), ok
}

// appendWire appends the page as json.Encoder writes it, newline included. It
// reports false, leaving dst as it was, when an enum in a report is outside
// its set or a float is NaN or infinite.
func (res *ReportResult) appendWire(dst []byte) ([]byte, bool) {
	n, size := len(dst), 64
	for i := range res.Reports {
		r := &res.Reports[i]
		size += minJobReportJSON + 64 + len(r.Job) + len(r.Trigger.IP) + len(r.Trigger.Reason) + len(r.SuspectIP) +
			len(r.Category) + len(r.Via) + len(r.Details) + 64*len(r.Chain) + 12*len(r.Victims) + 160*len(r.Evidence)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"reports":`...)
	dst, ok := appendList(dst, res.Reports, appendJobReport)
	if !ok {
		return dst[:n], false
	}
	return appendPageEnd(dst, res.Total, res.NextOffset), true
}

// parseWire reads a page in the form appendWire writes into res and reports
// true, or reports false and leaves res alone.
func (res *ReportResult) parseWire(body []byte) bool {
	p := trace.JSONReader{B: body, OK: true}
	p.Lit(`{"reports":`)
	var reps []JobReport
	if !p.Skip("null") {
		reps = make([]JobReport, 0, listHint(p.B, jobStart, minJobReportJSON))
		for i := 0; p.Elem(i); i++ {
			reps = append(reps, JobReport{})
			p.Lit(`{"job":`)
			reps[i].Job = JobID(p.Text())
			p.Lit(`,"report":`)
			readReport(&p, &reps[i].Report)
			p.Lit("}")
		}
	}
	total, next := readPageEnd(&p)
	if !p.OK || len(p.B) > 0 {
		return false
	}
	*res = ReportResult{Reports: reps, Total: total, NextOffset: next}
	return true
}

func appendNode(dst []byte, n *DependencyNode) []byte {
	dst = append(dst, `{"rank":`...)
	dst = strconv.AppendInt(dst, int64(n.Rank), 10)
	dst = append(dst, `,"comm":`...)
	dst = strconv.AppendUint(dst, n.Comm, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, n.Seq, 10)
	return append(dst, '}')
}

func readNode(p *trace.JSONReader, n *DependencyNode) {
	p.Lit(`{"rank":`)
	n.Rank = Rank(p.Int(math.MinInt, math.MaxInt))
	p.Lit(`,"comm":`)
	n.Comm = p.Uint(math.MaxUint64)
	p.Lit(`,"seq":`)
	n.Seq = p.Uint(math.MaxUint64)
	p.Lit("}")
}

func appendEdge(dst []byte, e *DependencyEdge) ([]byte, bool) {
	if !edgeKindOK(e.Kind) {
		return dst, false
	}
	dst = append(dst, `{"from":`...)
	dst = appendNode(dst, &e.From)
	dst = append(dst, `,"to":`...)
	dst = appendNode(dst, &e.To)
	dst = append(dst, `,"kind":`...)
	dst = trace.AppendJSONString(dst, string(e.Kind))
	return append(dst, '}'), true
}

// appendWire appends the page as json.Encoder writes it, newline included. It
// reports false, leaving dst as it was, when an edge's kind is outside its
// set.
func (res *DependencyResult) appendWire(dst []byte) ([]byte, bool) {
	n := len(dst)
	dst = slices.Grow(dst, 64+len(res.Edges)*(minEdgeJSON+24)+len(res.DOT)*11/10)
	dst = append(dst, `{"job":`...)
	dst = trace.AppendJSONString(dst, string(res.Job))
	dst = append(dst, `,"edges":`...)
	dst, ok := appendList(dst, res.Edges, appendEdge)
	if !ok {
		return dst[:n], false
	}
	if res.DOT != "" {
		dst = append(dst, `,"dot":`...)
		dst = trace.AppendJSONString(dst, res.DOT)
	}
	return append(dst, "}\n"...), true
}

// edgeStart opens every edge of a dependency page.
var edgeStart = []byte(`{"from":`)

// parseWire reads a page in the form appendWire writes into res and reports
// true, or reports false and leaves res alone.
func (res *DependencyResult) parseWire(body []byte) bool {
	p := trace.JSONReader{B: body, OK: true}
	p.Lit(`{"job":`)
	job := p.Text()
	p.Lit(`,"edges":`)
	var edges []DependencyEdge
	if !p.Skip("null") {
		edges = make([]DependencyEdge, 0, listHint(p.B, edgeStart, minEdgeJSON))
		for i := 0; p.Elem(i); i++ {
			edges = append(edges, DependencyEdge{})
			e := &edges[i]
			p.Lit(`{"from":`)
			readNode(&p, &e.From)
			p.Lit(`,"to":`)
			readNode(&p, &e.To)
			p.Lit(`,"kind":`)
			p.Enum(&e.Kind)
			p.Lit("}")
		}
	}
	var dot string
	if p.Skip(`,"dot":`) {
		dot = p.Text()
	}
	p.Lit("}\n")
	if !p.OK || len(p.B) > 0 {
		return false
	}
	*res = DependencyResult{Job: JobID(job), Edges: edges, DOT: dot}
	return true
}

// The shortest element each page can hold, which bounds how many a body of n
// bytes holds.
var (
	minJobTriggerJSON = shortest(appendJobTrigger, JobTrigger{Trigger: Trigger{Kind: TriggerFailure}})
	minJobReportJSON  = shortest(appendJobReport, JobReport{Report: Report{Trigger: Trigger{Kind: TriggerFailure}}})
	minEdgeJSON       = shortest(appendEdge, DependencyEdge{})
	minHopJSON        = shortest(appendHop, Hop{})
	minEvidenceJSON   = shortest(appendEvidence, Evidence{Channel: ModalityLog})
)

func shortest[T any](elem func([]byte, *T) ([]byte, bool), v T) int {
	b, _ := elem(nil, &v)
	return len(b)
}
