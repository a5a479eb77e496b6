package mycroft

import (
	"math"
	"time"

	"mycroft/internal/trace"
)

// The /logs and /timings bodies carry their own reader for the form
// json.Marshal writes them in, which is what every client here sends: the
// fields in tag order, at_ns and level left out when zero, no whitespace.
// Any other body — keys reordered or unknown, whitespace, a number outside
// its field or not in its shortest form — is left to encoding/json, so every
// refusal is still encoding/json's.

// itemStart opens every line of a log batch and every sample of a timing
// batch, and occurs nowhere else in a canonical body: a canonical string
// holds no unescaped quote.
var itemStart = []byte(`{"rank":`)

// The shortest canonical line and sample, to cap a batch's size hint.
const (
	minLineJSON   = len(`{"rank":0,"text":""}`)
	minSampleJSON = len(`{"rank":0,"iter":0}`)
)

// parseWire reads a log batch in the form json.Marshal writes it into a and
// reports true, or reports false and leaves a alone. The body is copied once,
// into one string, and every verbatim text is a slice of it; a text
// json.Marshal escapes is decoded on its own, and the levels "info", "warn"
// and "error" are constants. So a batch costs that string and its line slice,
// and a text kept keeps the whole body: what holds one past the request
// clones it (logdiag does, for a new template).
func (a *logsArgs) parseWire(body []byte) bool {
	p := trace.JSONReader{B: body, OK: true}
	if p.Lit(`{"lines":`); !p.OK {
		return false
	}
	doc := string(body)
	var lines []LogLine
	if !p.Skip("null") {
		lines = make([]LogLine, 0, listHint(p.B, itemStart, minLineJSON))
		for i := 0; p.Elem(i); i++ {
			lines = append(lines, LogLine{})
			l := &lines[i]
			p.Lit(`{"rank":`)
			l.Rank = Rank(p.Int(math.MinInt, math.MaxInt))
			if p.Skip(`,"at_ns":`) {
				l.At = time.Duration(p.Int(math.MinInt64, math.MaxInt64))
			}
			if p.Skip(`,"level":`) {
				l.Level = readLevel(&p, doc)
			}
			p.Lit(`,"text":`)
			l.Text = p.TextIn(doc)
			p.Lit("}")
		}
	}
	p.Lit("}")
	if !p.OK || len(p.B) > 0 {
		return false
	}
	a.Lines = lines
	return true
}

// readLevel reads a line's level, as its constant when it is one of the three
// the log channel knows.
func readLevel(p *trace.JSONReader, doc string) string {
	switch {
	case p.Skip(`"info"`):
		return "info"
	case p.Skip(`"warn"`):
		return "warn"
	case p.Skip(`"error"`):
		return "error"
	}
	return p.TextIn(doc)
}

// parseWire reads a timing batch in the form json.Marshal writes it into a
// and reports true, or reports false and leaves a alone.
func (a *timingsArgs) parseWire(body []byte) bool {
	p := trace.JSONReader{B: body, OK: true}
	var samples []IterationSample
	p.Lit(`{"samples":`)
	if !p.Skip("null") {
		samples = make([]IterationSample, 0, listHint(p.B, itemStart, minSampleJSON))
		for i := 0; p.Elem(i); i++ {
			samples = append(samples, IterationSample{})
			s := &samples[i]
			p.Lit(`{"rank":`)
			s.Rank = Rank(p.Int(math.MinInt, math.MaxInt))
			p.Lit(`,"iter":`)
			s.Iter = int(p.Int(math.MinInt, math.MaxInt))
			if p.Skip(`,"at_ns":`) {
				s.At = time.Duration(p.Int(math.MinInt64, math.MaxInt64))
			}
			p.Lit("}")
		}
	}
	p.Lit("}")
	if !p.OK || len(p.B) > 0 {
		return false
	}
	a.Samples = samples
	return true
}
