// Package flightrec reproduces PyTorch's Flight Recorder (§6.2): a per-rank
// ring buffer of the most recent framework-level CollOp launches. On a
// trigger the rings are dumped and aggregated to find synchronization
// problems the CCL cannot see: the rank that never launched an op the rest
// of its group is blocked on, or mismatched op shapes.
package flightrec

import (
	"fmt"
	"sort"

	"mycroft/internal/ccl"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// Entry is one recorded CollOp launch.
type Entry struct {
	Rank topo.Rank
	Meta ccl.OpMeta
	At   sim.Time
}

// Recorder keeps the last N launches per rank.
type Recorder struct {
	eng *sim.Engine
	n   int
	buf map[topo.Rank]*ring
}

// ring is one rank's last n launches. It is allocated whole on the rank's
// first launch and filled in order; once full, each launch overwrites the
// oldest entry, at next.
type ring struct {
	entries []Entry
	next    int
}

// New creates a recorder keeping n entries per rank (PyTorch's default ring
// is similar in spirit).
func New(eng *sim.Engine, n int) *Recorder {
	if n <= 0 {
		panic(fmt.Sprintf("flightrec: non-positive ring size %d", n))
	}
	return &Recorder{eng: eng, n: n, buf: make(map[topo.Rank]*ring)}
}

// Record appends a launch; wire it to ccl.Config.OnLaunch. After a rank's
// first launch it allocates nothing.
func (rec *Recorder) Record(r topo.Rank, meta ccl.OpMeta) {
	b := rec.buf[r]
	if b == nil {
		b = &ring{entries: make([]Entry, 0, rec.n)}
		rec.buf[r] = b
	}
	e := Entry{Rank: r, Meta: meta, At: rec.eng.Now()}
	if len(b.entries) < rec.n {
		b.entries = append(b.entries, e)
		return
	}
	b.entries[b.next] = e
	b.next = (b.next + 1) % rec.n
}

// Dump returns rank r's ring, oldest first.
func (rec *Recorder) Dump(r topo.Rank) []Entry {
	b := rec.buf[r]
	if b == nil {
		return nil
	}
	out := make([]Entry, 0, len(b.entries))
	return append(append(out, b.entries[b.next:]...), b.entries[:b.next]...)
}

// Ranks lists ranks with any recorded launches.
func (rec *Recorder) Ranks() []topo.Rank {
	out := make([]topo.Rank, 0, len(rec.buf))
	for r := range rec.buf {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Finding is one synchronization anomaly.
type Finding struct {
	CommID uint64
	// Kind is "skipped-launch" (a rank launched a later op without ever
	// launching one its peers did — the precise sync-bug signature),
	// "launch-ahead" / "launch-behind" (majority-vote desync on a quiesced
	// comm), or "size-mismatch".
	Kind    string
	Ranks   []topo.Rank
	Details string
}

// Analyze aggregates the rings per communicator. A communicator whose newest
// launch is younger than stale is still making progress and is skipped —
// in-flight skew between ranks is normal. For quiesced (stuck) comms, the
// majority launch sequence is the reference: minority ranks ahead of it
// skipped a collective; minority ranks behind it stopped launching. Message
// sizes are cross-checked per (comm, seq).
func (rec *Recorder) Analyze(now sim.Time, stale sim.Duration) []Finding {
	lastSeq := make(map[uint64]map[topo.Rank]uint64)
	seqSets := make(map[uint64]map[topo.Rank]map[uint64]bool)
	newest := make(map[uint64]sim.Time)
	sizeByOp := make(map[uint64]map[uint64]map[int64][]topo.Rank) // comm -> seq -> size -> ranks
	for r, b := range rec.buf {
		for _, e := range b.entries {
			m := lastSeq[e.Meta.CommID]
			if m == nil {
				m = make(map[topo.Rank]uint64)
				lastSeq[e.Meta.CommID] = m
			}
			if cur, ok := m[r]; !ok || e.Meta.Seq > cur {
				m[r] = e.Meta.Seq
			}
			ss := seqSets[e.Meta.CommID]
			if ss == nil {
				ss = make(map[topo.Rank]map[uint64]bool)
				seqSets[e.Meta.CommID] = ss
			}
			if ss[r] == nil {
				ss[r] = make(map[uint64]bool)
			}
			ss[r][e.Meta.Seq] = true
			if e.At > newest[e.Meta.CommID] {
				newest[e.Meta.CommID] = e.At
			}
			sm := sizeByOp[e.Meta.CommID]
			if sm == nil {
				sm = make(map[uint64]map[int64][]topo.Rank)
				sizeByOp[e.Meta.CommID] = sm
			}
			bm := sm[e.Meta.Seq]
			if bm == nil {
				bm = make(map[int64][]topo.Rank)
				sm[e.Meta.Seq] = bm
			}
			bm[e.Meta.Bytes] = append(bm[e.Meta.Bytes], r)
		}
	}

	var findings []Finding
	comms := make([]uint64, 0, len(lastSeq))
	for c := range lastSeq {
		comms = append(comms, c)
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	for _, c := range comms {
		m := lastSeq[c]
		// Skipped-launch: rank r launched a later seq without ever launching
		// seq s that a peer launched — a hole in its sequence. This is exact
		// regardless of quiescence (each ring buffer bounds the horizon: only
		// seqs at or above the rank's oldest retained entry are judged). The
		// details name the lowest skipper's lowest hole.
		if len(m) > 1 {
			ss := seqSets[c]
			union := make(map[uint64]bool)
			ranks := make([]topo.Rank, 0, len(ss))
			for r, set := range ss {
				ranks = append(ranks, r)
				for s := range set {
					union[s] = true
				}
			}
			sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
			var skippers []topo.Rank
			var skipDetail string
			for _, r := range ranks {
				set := ss[r]
				low := ^uint64(0)
				for s := range set {
					if s < low {
						low = s
					}
				}
				hole := ^uint64(0) // none: every hole is below m[r]
				for s := range union {
					if s >= low && s < m[r] && !set[s] {
						hole = min(hole, s)
					}
				}
				if hole != ^uint64(0) {
					skippers = append(skippers, r)
					if skipDetail == "" {
						skipDetail = fmt.Sprintf("rank %d launched seq %d but never seq %d", r, m[r], hole)
					}
				}
			}
			if len(skippers) > 0 {
				findings = append(findings, Finding{
					CommID: c, Kind: "skipped-launch", Ranks: skippers, Details: skipDetail,
				})
			}
		}
		if now.Sub(newest[c]) >= stale && len(m) > 1 {
			// Majority vote on the last launched seq.
			counts := make(map[uint64]int)
			for _, s := range m {
				counts[s]++
			}
			var mode uint64
			best := -1
			for s, n := range counts {
				if n > best || (n == best && s < mode) {
					best, mode = n, s
				}
			}
			var ahead, behind []topo.Rank
			for r, s := range m {
				switch {
				case s > mode:
					ahead = append(ahead, r)
				case s < mode:
					behind = append(behind, r)
				}
			}
			sort.Slice(ahead, func(i, j int) bool { return ahead[i] < ahead[j] })
			sort.Slice(behind, func(i, j int) bool { return behind[i] < behind[j] })
			if len(ahead) > 0 && len(ahead) < len(m) {
				findings = append(findings, Finding{
					CommID: c, Kind: "launch-ahead", Ranks: ahead,
					Details: fmt.Sprintf("group majority at seq %d; %d rank(s) ran ahead (skipped a collective?)", mode, len(ahead)),
				})
			}
			if len(behind) > 0 && len(behind) < len(m) {
				findings = append(findings, Finding{
					CommID: c, Kind: "launch-behind", Ranks: behind,
					Details: fmt.Sprintf("group majority at seq %d; %d rank(s) stopped launching", mode, len(behind)),
				})
			}
		}
		seqs := make([]uint64, 0, len(sizeByOp[c]))
		for seq := range sizeByOp[c] {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			if bm := sizeByOp[c][seq]; len(bm) > 1 {
				var all []topo.Rank
				for _, rs := range bm {
					all = append(all, rs...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				findings = append(findings, Finding{
					CommID: c, Kind: "size-mismatch", Ranks: all,
					Details: fmt.Sprintf("op seq %d launched with %d distinct sizes", seq, len(bm)),
				})
			}
		}
	}
	return findings
}

// LastOpPerRank returns, for one comm, each rank's latest launched seq — the
// per-stream view used to visualize abnormal devices.
func (rec *Recorder) LastOpPerRank(commID uint64) map[topo.Rank]uint64 {
	out := make(map[topo.Rank]uint64)
	for r, b := range rec.buf {
		for _, e := range b.entries {
			if e.Meta.CommID != commID {
				continue
			}
			if cur, ok := out[r]; !ok || e.Meta.Seq > cur {
				out[r] = e.Meta.Seq
			}
		}
	}
	return out
}
