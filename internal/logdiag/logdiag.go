// Package logdiag is the structured training-log diagnosis channel: a
// tracepoint-free path to a fault verdict built from nothing but the log
// lines ranks already emit. Lines are clustered online into templates
// (token-hash templating: variable tokens collapse to a wildcard), each
// template keeps a per-rank rate series over a sliding window, and a
// cross-rank divergence score separates "one template spiking on a few
// ranks" (a localized fault) from fleet-wide chatter (a phase change every
// rank goes through). Dominant anomalous templates map onto Mycroft's
// existing fault-category vocabulary so verdicts flow through the standard
// Report/Chain path — the L4 result (PAPERS.md) that training logs alone
// localize most large-scale failures.
package logdiag

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"mycroft/internal/core"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Line is one structured training-log line on the ingest path.
type Line struct {
	Rank  topo.Rank
	At    sim.Time
	Level string // "info", "warn" or "error" (anything else reads as info)
	Text  string
}

// Config has no fields; it stays because bench/ passes one to New.
type Config struct{}

const (
	// window is the rate-series look-back.
	window = 15 * time.Second
	// minCount: occurrences (in window, on affected ranks) before a
	// template can be anomalous.
	minCount = 3
	// maxRankFrac: an anomaly must concentrate on at most this fraction of
	// the world — fleet-wide spikes are phase changes, not faults.
	maxRankFrac = 0.5
	// domFrac: the affected ranks must carry at least this fraction of the
	// template's windowed occurrences.
	domFrac = 0.6
	// minScore gates reporting.
	minScore = 0.25
)

// Template is one online log-template cluster.
type Template struct {
	ID    uint64
	Text  string // templated form, variable tokens as <*>
	Level string // highest severity seen for this template
	Total uint64 // lifetime occurrences

	// byRank holds the in-window occurrence timestamps per rank, pruned
	// lazily on ingest and analysis.
	byRank map[topo.Rank][]sim.Time
}

// Anomaly is one cross-rank divergence finding: a template spiking on a
// small set of ranks.
type Anomaly struct {
	TemplateID uint64
	Template   string
	Level      string
	// Rank is the dominant rank (most in-window occurrences; lowest rank
	// breaks ties deterministically). Ranks is the full affected set, sorted.
	Rank  topo.Rank
	Ranks []topo.Rank
	// Count is the windowed occurrences on affected ranks; Fleet across all.
	Count int
	Fleet int
	// Score is the divergence score in (0, 1]: concentration × rank-focus ×
	// severity weight.
	Score float64
	// Category is the mapped fault-category verdict for this template.
	Category core.Category
	At       sim.Time
}

type rankCount struct {
	rank  topo.Rank
	count int
}

// Detector clusters lines online and scores cross-rank divergence.
type Detector struct {
	world     int
	templates map[uint64]*Template
	ingested  uint64
	lastAt    sim.Time
	// order and counts are Analyze's scratch, reused across passes so a
	// pass allocates only the anomalies it returns.
	order  []*Template
	counts []rankCount
}

// New builds a detector for a world-size-rank job. The Config is ignored.
func New(world int, _ Config) *Detector {
	if world < 1 {
		world = 1
	}
	return &Detector{world: world, templates: make(map[uint64]*Template)}
}

// TemplateOf renders the token-hash template of a log line: tokens carrying
// digits (ids, addresses, counters) collapse to the <*> wildcard, so "NIC
// rnic5 down" and "NIC rnic12 down" cluster together.
func TemplateOf(text string) string {
	fields := strings.Fields(text)
	for i, f := range fields {
		if hasDigit(f) {
			fields[i] = "<*>"
		}
	}
	return strings.Join(fields, " ")
}

// FNV-64a, the cluster-id hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// TemplateID hashes a templated line to its cluster id (FNV-64a).
func TemplateID(template string) uint64 { return fnvAdd(fnvOffset, template) }

// templateIDOf is TemplateID(TemplateOf(text)). An ASCII line is hashed in
// one scan that builds nothing: fields split where strings.Fields splits
// them and the hash takes the bytes the template would hold. A line with any
// other byte, where Fields splits on Unicode whitespace too, builds its
// template.
func templateIDOf(text string) uint64 {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return TemplateID(TemplateOf(text))
		}
	}
	h := uint64(fnvOffset)
	sep := ""
	for i := 0; i < len(text); {
		if asciiSpace[text[i]] {
			i++
			continue
		}
		start, digit := i, false
		for ; i < len(text) && !asciiSpace[text[i]]; i++ {
			digit = digit || '0' <= text[i] && text[i] <= '9'
		}
		h = fnvAdd(h, sep)
		sep = " "
		if digit {
			h = fnvAdd(h, "<*>")
		} else {
			h = fnvAdd(h, text[start:i])
		}
	}
	return h
}

// asciiSpace marks the bytes strings.Fields splits an ASCII string on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func hasDigit(s string) bool {
	for _, r := range s {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}

func severityWeight(level string) float64 {
	switch level {
	case "error":
		return 1.0
	case "warn":
		return 0.7
	default:
		return 0.3
	}
}

// severityRank orders levels so a template keeps its highest severity.
func severityRank(level string) int {
	switch level {
	case "error":
		return 2
	case "warn":
		return 1
	default:
		return 0
	}
}

// Ingest folds one line into its template cluster.
func (d *Detector) Ingest(l Line) {
	d.ingested++
	if l.At > d.lastAt {
		d.lastAt = l.At
	}
	id := templateIDOf(l.Text)
	t := d.templates[id]
	if t == nil {
		t = &Template{ID: id, Text: TemplateOf(l.Text), Level: normLevel(l.Level), byRank: make(map[topo.Rank][]sim.Time)}
		d.templates[id] = t
	}
	if severityRank(normLevel(l.Level)) > severityRank(t.Level) {
		t.Level = normLevel(l.Level)
	}
	t.Total++
	t.byRank[l.Rank] = pruneWindow(append(t.byRank[l.Rank], l.At), l.At, window)
}

func normLevel(l string) string {
	switch l {
	case "warn", "error":
		return l
	default:
		return "info"
	}
}

func pruneWindow(ts []sim.Time, now sim.Time, w time.Duration) []sim.Time {
	cut := now.Add(-sim.Duration(w))
	i := 0
	for i < len(ts) && ts[i] < cut {
		i++
	}
	if i > 0 {
		ts = append(ts[:0], ts[i:]...)
	}
	return ts
}

// Ingested returns lifetime lines folded in.
func (d *Detector) Ingested() uint64 { return d.ingested }

// Templates returns the number of live template clusters.
func (d *Detector) Templates() int { return len(d.templates) }

// Analyze scores every template's cross-rank divergence at virtual time now
// and returns the anomalies above threshold, strongest first (template text
// breaks score ties deterministically).
func (d *Detector) Analyze(now sim.Time) []Anomaly {
	d.order = d.order[:0]
	for _, t := range d.templates {
		d.order = append(d.order, t)
	}
	slices.SortFunc(d.order, func(a, b *Template) int { return strings.Compare(a.Text, b.Text) })

	var out []Anomaly
	for _, t := range d.order {
		if a, ok := d.scoreTemplate(t, now); ok {
			out = append(out, a)
		}
	}
	slices.SortStableFunc(out, func(a, b Anomaly) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.Template, b.Template)
	})
	return out
}

// scoreTemplate computes the divergence score of one template: how strongly
// its windowed occurrences concentrate on a small subset of ranks.
func (d *Detector) scoreTemplate(t *Template, now sim.Time) (Anomaly, bool) {
	counts := d.counts[:0]
	fleet := 0
	for r, ts := range t.byRank {
		ts = pruneWindow(ts, now, window)
		t.byRank[r] = ts
		if len(ts) > 0 {
			counts = append(counts, rankCount{r, len(ts)})
			fleet += len(ts)
		}
	}
	d.counts = counts
	if fleet < minCount {
		return Anomaly{}, false
	}
	slices.SortFunc(counts, func(a, b rankCount) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return cmp.Compare(a.rank, b.rank)
	})

	// Affected set: the smallest count-descending prefix carrying domFrac of
	// the fleet occurrences.
	affected, carried := counts, 0
	for i, rc := range counts {
		carried += rc.count
		if float64(carried) >= domFrac*float64(fleet) {
			affected = counts[:i+1]
			break
		}
	}
	rankFrac := float64(len(affected)) / float64(d.world)
	if rankFrac > maxRankFrac {
		return Anomaly{}, false // fleet-wide: a phase change, not a fault
	}
	if carried < minCount {
		return Anomaly{}, false
	}
	concentration := float64(carried) / float64(fleet)
	score := concentration * (1 - rankFrac) * severityWeight(t.Level)
	if score < minScore {
		return Anomaly{}, false
	}
	ranks := make([]topo.Rank, len(affected))
	for i, rc := range affected {
		ranks[i] = rc.rank
	}
	dominant := affected[0].rank
	slices.Sort(ranks)
	return Anomaly{
		TemplateID: t.ID, Template: t.Text, Level: t.Level,
		Rank: dominant, Ranks: ranks, Count: carried, Fleet: fleet,
		Score: score, Category: MapCategory(t.Text), At: now,
	}, true
}

// categoryRule maps template keywords onto the fault-category vocabulary.
// First match wins, so the more specific subsystems come first.
var categoryRules = []struct {
	keywords []string
	cat      core.Category
}{
	{[]string{"rdma", "roce", "infiniband"}, core.CatNetworkSendPath},
	{[]string{"pcie", "dma", "staging"}, core.CatPCIeDegrade},
	{[]string{"proxy"}, core.CatProxyCrash},
	{[]string{"throttl", "congest", "retrans", "bandwidth", "degrad"}, core.CatNetworkDegrade},
	{[]string{"nic", "rnic", "link", "rdma", "qp ", "port", "cable", "net"}, core.CatNetworkSendPath},
	{[]string{"xid", "ecc", "cuda", "gpu", "kernel", "copy engine"}, core.CatGPUHang},
	{[]string{"slow", "straggl", "late"}, core.CatComputeStraggler},
	{[]string{"dataloader", "checkpoint", "python", "stack", "launch"}, core.CatNotLaunched},
}

// MapCategory maps a template's text onto the existing fault-category
// vocabulary by keyword, CatUnknown when nothing matches.
func MapCategory(template string) core.Category {
	lower := strings.ToLower(template)
	for _, rule := range categoryRules {
		for _, kw := range rule.keywords {
			if strings.Contains(lower, kw) {
				return rule.cat
			}
		}
	}
	return core.CatUnknown
}

func (a Anomaly) String() string {
	return fmt.Sprintf("[%v] log anomaly: %q (%s) on rank %d (%d/%d in window, score %.2f) → %s",
		a.At, a.Template, a.Level, a.Rank, a.Count, a.Fleet, a.Score, a.Category)
}
