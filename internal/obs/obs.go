// Package obs is Mycroft's dependency-free metrics layer: counters, gauges
// and fixed-bucket histograms collected in a Registry and exposed in
// Prometheus text format (exposition format version 0.0.4).
//
// The hot-path instruments (Counter.Add, Gauge.Set, Histogram.Observe) are
// single atomic operations — no locks, no allocation — so the ingest and
// dispatch paths can be instrumented without moving the bench rows that price
// them (clouddb.ingest_ns_per_record, events.deliver_p50_ms; obs.counter_ns
// prices one Add). Registration is mutex-guarded and idempotent: asking for
// the same (name, labels) series twice returns the same instrument, so wiring
// code never has to thread instrument pointers around. GaugeFunc registers a
// scrape-time callback for values that are cheaper to read than to track
// (store occupancy, live subscription counts); callers are responsible for
// making those callbacks safe at scrape time (the daemon scrapes under the
// same mutex that serializes the engine).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. The zero value is usable.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is usable.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets. Observe is
// lock-free: a binary search over the bounds plus three atomic updates.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Uint64
	ex     atomic.Pointer[exemplar]
}

// exemplar is the worst exemplared observation so far: its value and the
// caller-supplied reference (a pipeline span ID).
type exemplar struct {
	value float64
	ref   uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the `le` bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records v and, when v is the largest exemplared
// observation the series has seen, remembers ref (a span ID from
// internal/otrace) as the series' exemplar. The exemplar renders on the
// matching bucket line in OpenMetrics style, so a scrape links the worst
// bucket hit back to the concrete pipeline span that caused it. Observe's
// hot path is untouched; the CAS here allocates only on a new maximum.
func (h *Histogram) ObserveExemplar(v float64, ref uint64) {
	h.Observe(v)
	if ref == 0 {
		return
	}
	for {
		old := h.ex.Load()
		if old != nil && old.value >= v {
			return
		}
		if h.ex.CompareAndSwap(old, &exemplar{value: v, ref: ref}) {
			return
		}
	}
}

// Exemplar returns the worst exemplared observation and its span reference
// (ok false when no exemplared observation has been recorded).
func (h *Histogram) Exemplar() (value float64, ref uint64, ok bool) {
	e := h.ex.Load()
	if e == nil {
		return 0, 0, false
	}
	return e.value, e.ref, true
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default bucket layout for wall-clock latencies in
// seconds: 1µs to 10s, decade steps with a midpoint.
var LatencyBuckets = []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1, 10}

// DurationBuckets is the default layout for virtual-time durations in
// seconds (remediation verify windows and the like).
var DurationBuckets = []float64{0.1, 0.5, 1, 2, 5, 10, 15, 30, 60, 120, 300}

// DepthBuckets is the default layout for small integral sizes (causal-chain
// depth).
var DepthBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 16}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	lstr   string // rendered label set, the within-family sort key

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds registered metrics and renders them for scraping. The zero
// value is not usable; call New.
type Registry struct {
	mu     sync.Mutex
	series map[string]*metric // name + label set → series
	family map[string]metricKind
	order  []*metric
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{series: make(map[string]*metric), family: make(map[string]metricKind)}
}

// Counter returns the counter series for (name, labels), registering it on
// first use. Help is recorded from the first registration of the family.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, labels)
	return m.counter
}

// Gauge returns the gauge series for (name, labels), registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels)
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time.
// Re-registering the same series replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.register(name, help, kindGaugeFunc, labels)
	m.gaugeFn = fn
}

// Histogram returns the histogram series for (name, labels) with the given
// bucket upper bounds (ascending; +Inf is implicit), registering it on first
// use. Bounds are fixed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	m := r.registerWith(name, help, kindHistogram, labels, func(m *metric) {
		m.hist = newHistogram(bounds)
	})
	return m.hist
}

func (r *Registry) register(name, help string, kind metricKind, labels []Label) *metric {
	return r.registerWith(name, help, kind, labels, func(m *metric) {
		switch kind {
		case kindCounter:
			m.counter = &Counter{}
		case kindGauge:
			m.gauge = &Gauge{}
		}
	})
}

func (r *Registry) registerWith(name, help string, kind metricKind, labels []Label, init func(*metric)) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("obs: invalid label key %q on %s", l.Key, name))
		}
	}
	lstr := labelString(labels, "", "")
	key := name + lstr
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.family[name]; ok {
		if have != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind.promType(), have.promType()))
		}
	} else {
		r.family[name] = kind
	}
	if m, ok := r.series[key]; ok {
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: append([]Label(nil), labels...), lstr: lstr}
	init(m)
	r.series[key] = m
	r.order = append(r.order, m)
	return m
}

// WritePrometheus renders every registered series in Prometheus text format:
// families sorted by name with one HELP/TYPE header each, series sorted by
// label set within a family. GaugeFunc callbacks run on the calling
// goroutine, so a caller that registered engine-reading callbacks must hold
// whatever serializes the engine.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].lstr < ms[j].lstr
	})
	var b strings.Builder
	prev := ""
	for _, m := range ms {
		if m.name != prev {
			prev = m.name
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind.promType())
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.lstr, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.lstr, m.gauge.Value())
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, m.lstr, formatFloat(m.gaugeFn()))
		case kindHistogram:
			// The exemplar (worst exemplared observation + its span ID)
			// renders OpenMetrics-style on the one bucket line it fell into.
			exBucket := -1
			var exSuffix string
			if v, ref, ok := m.hist.Exemplar(); ok {
				exBucket = sort.SearchFloat64s(m.hist.bounds, v)
				exSuffix = fmt.Sprintf(" # {span_id=\"%d\"} %s", ref, formatFloat(v))
			}
			var cum uint64
			for i, bound := range m.hist.bounds {
				cum += m.hist.counts[i].Load()
				suffix := ""
				if i == exBucket {
					suffix = exSuffix
				}
				fmt.Fprintf(&b, "%s_bucket%s %d%s\n", m.name, labelString(m.labels, "le", formatFloat(bound)), cum, suffix)
			}
			cum += m.hist.counts[len(m.hist.bounds)].Load()
			suffix := ""
			if exBucket == len(m.hist.bounds) {
				suffix = exSuffix
			}
			fmt.Fprintf(&b, "%s_bucket%s %d%s\n", m.name, labelString(m.labels, "le", "+Inf"), cum, suffix)
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.lstr, formatFloat(m.hist.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.lstr, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k="v",...}, with an optional extra pair appended
// (the histogram `le` label). Empty sets render as "".
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeValue(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeValue(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
