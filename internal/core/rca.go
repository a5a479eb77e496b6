package core

import (
	"fmt"
	"sort"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// AnalyzeFailure is Algorithm 2's AnalyzeFailureRootCause: reconstruct the
// group's distributed state machine from last logs, find the rank that is
// behind (CheckMinOp) or, failing that, the rank whose flows stalled first
// (CheckMinData), and classify it with the RC table.
//
// The last logs are the dependency graph's frontier, so the group last-log,
// silent-proxy and CheckMinOp steps read no store; CheckMinData and the RC
// table read each candidate's freshest per-channel state logs from the store,
// which keeps one record per channel where the frontier keeps one per
// communicator.
//
// When the suspect never launched the blocked op, the cause lives in another
// dependency: either outside the CCL entirely, or inside a *different*
// communicator the suspect is stuck on (nested parallelism groups). The
// analysis chases that dependency across the maintained dependency graph up
// to ChaseDepth, recording every hop in Report.Chain and the suspect's
// transitive blast radius in Report.Victims.
func (b *Backend) AnalyzeFailure(tr Trigger) Report {
	t := tr.At
	visited := map[uint64]bool{}
	commID := tr.CommID
	rep := Report{Trigger: tr, CommID: commID, Category: CatUnknown, Via: ViaNone, AnalyzedAt: t, Suspect: -1}

	for depth := 0; depth < b.cfg.ChaseDepth; depth++ {
		if commID == 0 || visited[commID] {
			break
		}
		visited[commID] = true
		suspect, via, cat, details := b.analyzeCommFailure(commID, t)
		rep.CommID = commID
		rep.Suspect = suspect
		rep.Via = via
		rep.Category = cat
		rep.Details = details
		rep.Chain = append(rep.Chain, Hop{Comm: commID, Suspect: suspect, Via: via})
		if suspect < 0 {
			break
		}
		rep.SuspectIP, _ = b.db.IPOf(suspect)
		if cat != CatNotLaunched {
			break
		}
		// The suspect never joined this comm's op. If the graph shows it
		// visibly stuck inside another communicator, the true root cause is
		// there.
		next, ok := b.graph.StuckComm(suspect, commID, t.Add(-b.cfg.Window), t)
		if !ok {
			break // outside the CCL: hand off to py-spy / Flight Recorder
		}
		rep.Chain[len(rep.Chain)-1].Edge = b.graph.HopKind(suspect, next)
		commID = next
	}
	b.fillVictims(&rep)
	rep.AnalyzedAt = b.eng.Now()
	return rep
}

// fillVictims attaches the suspect's blast radius from the dependency graph.
func (b *Backend) fillVictims(rep *Report) {
	if rep.Suspect < 0 {
		return
	}
	rep.Victims = b.graph.Victims(rep.Suspect)
}

// analyzeCommFailure analyzes one communicator's stuck state.
func (b *Backend) analyzeCommFailure(commID uint64, t sim.Time) (topo.Rank, Via, Category, string) {
	// AcquireGroupLastLog: every member's frontier on this comm.
	members := b.graph.Members(commID)
	if len(members) == 0 {
		return -1, ViaNone, CatUnknown, fmt.Sprintf("no members known for comm %d", commID)
	}
	var maxSeq uint64
	haveFresh := false
	freshCut := t.Add(-b.cfg.StateFresh)
	for _, m := range members {
		maxSeq = max(maxSeq, m.Seq)
		if m.Kind == trace.KindState && m.Last >= freshCut {
			haveFresh = true
		}
	}

	// Silent proxy: a member whose logging stopped mid-op (its last record
	// is a stale state log) while peers still log. The absence of logs is
	// the signal (§4.2).
	if haveFresh {
		for _, m := range members {
			if m.Kind == trace.KindState && m.Last < freshCut {
				return m.Rank, ViaSilentProxy, CatProxyCrash,
					fmt.Sprintf("state logs stopped at %v mid-op seq %d while peers keep logging", m.Last, m.Seq)
			}
		}
	}

	// CheckMinOp: the lowest-ranked member strictly behind in op sequence.
	lag := members[0]
	for _, m := range members[1:] {
		if m.Seq < lag.Seq {
			lag = m
		}
	}
	if lag.Seq < maxSeq {
		if lag.Kind == trace.KindState {
			// Behind and visibly stuck mid-op inside this comm.
			cat, detail := checkRCTable(b.stuckMost(lag.Rank, commID, t))
			return lag.Rank, ViaMinOp, cat, fmt.Sprintf("lagging at op seq %d < %d; %s", lag.Seq, maxSeq, detail)
		}
		// Cleanly finished an earlier op and never launched the next.
		return lag.Rank, ViaMinOp, CatNotLaunched,
			fmt.Sprintf("last log is completion of seq %d while peers reached %d", lag.Seq, maxSeq)
	}

	// CheckMinData: everyone is on the same op; the root cause stalled
	// first, so it carries the maximum stuck time across its flows (the
	// lower rank breaks ties).
	suspect, worst := topo.Rank(-1), trace.Record{StuckNs: -1}
	for _, m := range members {
		if st, ok := b.stuckMost(m.Rank, commID, t); ok && st.StuckNs > worst.StuckNs {
			suspect, worst = m.Rank, st
		}
	}
	if suspect < 0 {
		return -1, ViaNone, CatUnknown, "no per-channel state available"
	}
	cat, detail := checkRCTable(worst, true)
	return suspect, ViaMinData, cat, detail
}

// stuckMost returns rank r's freshest state log on its stuck-most active
// channel of a communicator (the lower channel breaks ties), and whether it
// has an active channel at all.
func (b *Backend) stuckMost(r topo.Rank, commID uint64, t sim.Time) (pick trace.Record, ok bool) {
	for _, rec := range b.db.LastStatePerChannel(r, commID, t, 2*b.cfg.Window) {
		if rec.TotalChunks == 0 {
			continue
		}
		if !ok || rec.StuckNs > pick.StuckNs || (rec.StuckNs == pick.StuckNs && rec.Channel < pick.Channel) {
			pick, ok = rec, true
		}
	}
	return pick, ok
}

// checkRCTable classifies a suspect rank from its stuck-most active channel
// (ok false: it has none) — the paper's CheckRCTable.
func checkRCTable(pick trace.Record, ok bool) (Category, string) {
	if !ok {
		return CatUnknown, "no active flows in state logs"
	}
	outstanding := int64(pick.RDMATransmitted) - int64(pick.RDMADone)
	fill := int64(pick.GPUReady) - int64(pick.RDMATransmitted)
	detail := fmt.Sprintf("ch %d: chunks %d/%d/%d of %d, stuck %v",
		pick.Channel, pick.GPUReady, pick.RDMATransmitted, pick.RDMADone, pick.TotalChunks, sim.Duration(pick.StuckNs))
	switch {
	case outstanding > 0:
		// WRs handed to the NIC are not completing: local NIC or link.
		return CatNetworkSendPath, detail + " — outstanding WRs frozen at NIC"
	case fill == 0 && pick.GPUReady < pick.TotalChunks:
		// Send path drained everything; the GPU stopped feeding.
		return CatGPUHang, detail + " — staging stopped, send path drained"
	case pick.GPUReady == pick.TotalChunks && pick.RDMADone == pick.TotalChunks:
		return CatUnknown, detail + " — all local work done, waiting on peers"
	default:
		return CatUnknown, detail + " — dependency-starved (victim pattern)"
	}
}

// AnalyzeStraggler is Algorithm 2's AnalyzeStragglerRootCause plus the
// flow-pressure analysis that chunk-level tracing makes possible: first look
// for a rank with constant late starts (compute-side straggler); failing
// that, find the flow whose NIC queue stays occupied (network degrade) or
// whose staging is the bottleneck (PCIe degrade). Cross-communicator chases
// walk the dependency graph and are recorded in Report.Chain.
func (b *Backend) AnalyzeStraggler(tr Trigger) Report {
	rep := b.analyzeStragglerComm(tr, tr.CommID, map[uint64]bool{}, nil)
	b.fillVictims(&rep)
	rep.AnalyzedAt = b.eng.Now()
	return rep
}

// analyzeStragglerComm analyzes one communicator. chain carries the hops
// already walked; each recursion level appends its own hop, so the returned
// report's Chain reads trigger comm first, verdict comm last. chain is
// always appended through appendHop (which copies), so sibling speculative
// chases never alias one another's backing array.
func (b *Backend) analyzeStragglerComm(tr Trigger, commID uint64, visited map[uint64]bool, chain []Hop) Report {
	t := tr.At
	visited[commID] = true
	rep := Report{Trigger: tr, CommID: commID, Category: CatUnknown, Via: ViaNone, AnalyzedAt: t, Suspect: -1}
	group := b.db.QueryGroup(commID, t.Add(-b.cfg.StragglerWindow), t)
	if len(group) == 0 {
		rep.Details = "no group logs in straggler window"
		rep.Chain = appendHop(chain, Hop{Comm: commID, Suspect: -1, Via: ViaNone})
		rep.AnalyzedAt = b.eng.Now()
		return rep
	}

	// Late-start analysis per op seq. Completion logs carry the rank-local
	// start; state logs do too, which lets the analysis see ops still in
	// flight — a heavy straggler's current op counts before it finishes.
	type se struct{ start, end sim.Time }
	bySeq := make(map[uint64]map[topo.Rank]se)
	for r, recs := range group {
		for _, rec := range recs {
			if rec.Start == 0 {
				continue
			}
			m := bySeq[rec.OpSeq]
			if m == nil {
				m = make(map[topo.Rank]se)
				bySeq[rec.OpSeq] = m
			}
			if prev, ok := m[r]; !ok || rec.Start < prev.start {
				m[r] = se{start: rec.Start, end: rec.End}
			}
		}
	}
	late := make(map[topo.Rank]int)
	type gapT struct{ from, to sim.Time }
	lastGap := make(map[topo.Rank]gapT) // most recent late gap per rank
	seqs := 0
	for _, m := range bySeq {
		if len(m) < 2 {
			continue
		}
		seqs++
		minStart := sim.Time(1<<63 - 1)
		for _, v := range m {
			if v.start < minStart {
				minStart = v.start
			}
		}
		for r, v := range m {
			if v.start.Sub(minStart) > b.cfg.StragglerLate {
				late[r]++
				if g, ok := lastGap[r]; !ok || v.start > g.to {
					lastGap[r] = gapT{from: minStart, to: v.start}
				}
			}
		}
	}
	// "Constant late starts" (Algorithm 2): at least LateCount late ops AND
	// a third of the observed ops — isolated skew from pipeline drift must
	// not convict a rank.
	lateNeed := b.cfg.LateCount
	if frac := seqs / 3; frac > lateNeed {
		lateNeed = frac
	}
	var lateRanks []topo.Rank
	for r, n := range late {
		if n >= lateNeed {
			lateRanks = append(lateRanks, r)
		}
	}
	if len(lateRanks) > 0 {
		// Order by late count, rank breaking ties: the slice is populated
		// from map iteration, so without the tie-break equal-count ranks
		// would flip between identical runs.
		sort.Slice(lateRanks, func(i, j int) bool {
			ni, nj := late[lateRanks[i]], late[lateRanks[j]]
			if ni != nj {
				return ni > nj
			}
			return lateRanks[i] < lateRanks[j]
		})
		r := lateRanks[0]
		// A rank that starts late because it is still INSIDE another
		// collective is a victim, not the cause: chase the dependency into
		// that communicator (nested parallelism groups, §3.1).
		if g, ok := lastGap[r]; ok && len(visited) < b.cfg.ChaseDepth {
			if busy, ok := b.graph.StuckCommDuring(r, g.from, g.to, commID); ok && !visited[busy] {
				hop := Hop{Comm: commID, Suspect: r, Via: ViaLateStart, Edge: b.graph.HopKind(r, busy)}
				return b.analyzeStragglerComm(tr, busy, visited, appendHop(chain, hop))
			}
		}
		rep.Suspect = r
		rep.SuspectIP, _ = b.db.IPOf(r)
		rep.Category = CatComputeStraggler
		rep.Via = ViaLateStart
		rep.Details = fmt.Sprintf("late start (> %v) in %d/%d ops", b.cfg.StragglerLate, late[r], seqs)
		rep.Chain = appendHop(chain, Hop{Comm: commID, Suspect: r, Via: ViaLateStart})
		rep.AnalyzedAt = b.eng.Now()
		return rep
	}
	if len(late) > 0 && len(visited) < b.cfg.ChaseDepth {
		// Sub-quorum lateness: not enough evidence to convict on this comm
		// (slow cadences yield few ops per window), but the latest late gap
		// still points at where the rank was held up — follow it.
		var r topo.Rank = -1
		best := 0
		for cand, n := range late {
			if n > best || (n == best && (r < 0 || cand < r)) {
				best, r = n, cand
			}
		}
		if g, ok := lastGap[r]; ok {
			if busy, ok := b.graph.StuckCommDuring(r, g.from, g.to, commID); ok && !visited[busy] {
				hop := Hop{Comm: commID, Suspect: r, Via: ViaLateStart, Edge: b.graph.HopKind(r, busy)}
				if sub := b.analyzeStragglerComm(tr, busy, visited, appendHop(chain, hop)); sub.Suspect >= 0 {
					return sub
				}
			}
		}
	}

	// Flow-pressure analysis over state logs: which rank's flows are
	// NIC-bound (outstanding WRs) or staging-bound (empty buffer)?
	type pressure struct{ snaps, nicBound, gpuBound int }
	per := make(map[topo.Rank]*pressure)
	for r, recs := range group {
		p := &pressure{}
		per[r] = p
		for _, rec := range recs {
			if rec.Kind != trace.KindState || rec.TotalChunks == 0 {
				continue
			}
			p.snaps++
			if rec.RDMATransmitted > rec.RDMADone {
				p.nicBound++
			}
			if rec.GPUReady == rec.RDMATransmitted && rec.GPUReady < rec.TotalChunks {
				p.gpuBound++
			}
		}
	}
	best := topo.Rank(-1)
	bestFrac := 0.0
	for r, p := range per {
		if p.snaps == 0 {
			continue
		}
		f := float64(p.nicBound) / float64(p.snaps)
		if f > bestFrac || (f == bestFrac && best >= 0 && r < best) {
			bestFrac, best = f, r
		}
	}
	if best >= 0 && bestFrac >= b.cfg.FlowPressureFrac {
		rep.Suspect = best
		rep.SuspectIP, _ = b.db.IPOf(best)
		rep.Category = CatNetworkDegrade
		rep.Via = ViaFlowPressure
		rep.Details = fmt.Sprintf("NIC queue occupied in %.0f%% of state snapshots", 100*bestFrac)
		rep.Chain = appendHop(chain, Hop{Comm: commID, Suspect: best, Via: ViaFlowPressure})
		rep.AnalyzedAt = b.eng.Now()
		return rep
	}
	best, bestFrac = -1, 0
	for r, p := range per {
		if p.snaps == 0 {
			continue
		}
		f := float64(p.gpuBound) / float64(p.snaps)
		if f > bestFrac || (f == bestFrac && best >= 0 && r < best) {
			bestFrac, best = f, r
		}
	}
	if best >= 0 && bestFrac >= b.cfg.FlowPressureFrac {
		rep.Suspect = best
		rep.SuspectIP, _ = b.db.IPOf(best)
		rep.Category = CatPCIeDegrade
		rep.Via = ViaFlowPressure
		rep.Details = fmt.Sprintf("staging-bound in %.0f%% of state snapshots", 100*bestFrac)
		rep.Chain = appendHop(chain, Hop{Comm: commID, Suspect: best, Via: ViaFlowPressure})
		rep.AnalyzedAt = b.eng.Now()
		return rep
	}
	rep.Details = "no straggler pattern matched"
	rep.Chain = appendHop(chain, Hop{Comm: commID, Suspect: -1, Via: ViaNone})
	rep.AnalyzedAt = b.eng.Now()
	return rep
}

// appendHop copies-then-appends so recursive chases never share a chain's
// backing array.
func appendHop(chain []Hop, h Hop) []Hop {
	out := make([]Hop, len(chain), len(chain)+1)
	copy(out, chain)
	return append(out, h)
}
