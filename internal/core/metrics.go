package core

import (
	"time"

	"mycroft/internal/obs"
	"mycroft/internal/otrace"
)

// Metrics is the instrument set a Backend updates when one is attached with
// SetMetrics. Nil (the default) costs a pointer check per firing. The
// hosting layer owns registration and labeling; Triggers is keyed by
// TriggerKind.String() so the label set matches the wire enum.
type Metrics struct {
	Triggers   map[string]*obs.Counter // Algorithm 1 firings, by kind
	Reports    *obs.Counter            // Algorithm 2 verdicts delivered
	RCALatency *obs.Histogram          // wall-clock seconds per analysis
	ChainDepth *obs.Histogram          // causal-chain hops per report
}

// SetMetrics attaches (or with nil, detaches) an instrument set. Wire it up
// before Start, like the publisher.
func (b *Backend) SetMetrics(m *Metrics) { b.metrics = m }

// SetTracer attaches (or with nil, detaches) the job's span recorder. Each
// trigger firing then opens an incident span tree — detect, rca and publish
// stages — that the hosting layer extends with fan-out, remediation and
// replication spans. Wire it up before Start, like the publisher.
func (b *Backend) SetTracer(r *otrace.Recorder) { b.spans = r }

// timedAnalysis runs one Algorithm 2 analysis under the RCA wall-clock
// histogram. Virtual time never moves inside fn, so wall clock is the only
// meaningful latency here. The rca span (0 when tracing is off) is recorded
// as the histogram observation's exemplar, linking the worst bucket hit to
// the concrete graph walk that caused it.
func (b *Backend) timedAnalysis(span otrace.SpanID, fn func() Report) Report {
	m := b.metrics
	if m == nil {
		return fn()
	}
	start := time.Now()
	rep := fn()
	m.RCALatency.ObserveExemplar(time.Since(start).Seconds(), uint64(span))
	return rep
}
