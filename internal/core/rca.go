package core

import (
	"fmt"

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

// stragglerMember is what the straggler analysis gathers of one member of a
// communicator over the straggler window.
type stragglerMember struct {
	rank     topo.Rank
	late     int      // ops it started more than StragglerLate after the first member
	gapFrom  sim.Time // its latest late start: the first member's start ...
	gapTo    sim.Time // ... and its own
	snaps    int      // state snapshots of active flows
	nicBound int      // of those, with outstanding WRs
	gpuBound int      // of those, with an empty staging buffer
}

// analyzeStragglerComm analyzes one communicator. chain carries the hops
// already walked; each recursion level appends its own hop, so the returned
// report's Chain reads trigger comm first, verdict comm last. chain is
// always appended through appendHop (which copies), so sibling speculative
// chases never alias one another's backing array.
//
// Members are indexed in rank order, so wherever the analysis picks the
// first of equal candidates it picks the lowest rank.
func (b *Backend) analyzeStragglerComm(tr Trigger, commID uint64, visited map[uint64]bool, chain []Hop) Report {
	visited[commID] = true
	group := b.db.QueryGroup(commID, tr.At.Add(-b.cfg.StragglerWindow), tr.At)
	if len(group) == 0 {
		return b.stragglerVerdict(tr, commID, chain, -1, CatUnknown, ViaNone, "no group logs in straggler window")
	}

	// Late-start analysis per op seq. Completion logs carry the rank-local
	// start; state logs do too, which lets the analysis see ops still in
	// flight — a heavy straggler's current op counts before it finishes.
	// Flow pressure over state logs: which member's flows are NIC-bound
	// (outstanding WRs) or staging-bound (empty buffer)?
	type start struct {
		member int
		at     sim.Time
	}
	bySeq := make(map[uint64][]start)
	members := b.graph.Members(commID) // the group's members, in rank order
	ms := make([]stragglerMember, len(members))
	for i, m := range members {
		ms[i].rank = m.Rank
		for _, rec := range group[m.Rank] {
			if rec.Kind == trace.KindState && rec.TotalChunks > 0 {
				ms[i].snaps++
				if rec.RDMATransmitted > rec.RDMADone {
					ms[i].nicBound++
				}
				if rec.GPUReady == rec.RDMATransmitted && rec.GPUReady < rec.TotalChunks {
					ms[i].gpuBound++
				}
			}
			if rec.Start == 0 {
				continue
			}
			// Members come in order, so this member's start, if any, is last.
			starts := bySeq[rec.OpSeq]
			if n := len(starts); n > 0 && starts[n-1].member == i {
				starts[n-1].at = min(starts[n-1].at, rec.Start)
			} else {
				bySeq[rec.OpSeq] = append(starts, start{i, rec.Start})
			}
		}
	}
	seqs := 0
	for _, starts := range bySeq {
		if len(starts) < 2 {
			continue
		}
		seqs++
		first := starts[0].at
		for _, s := range starts[1:] {
			first = min(first, s.at)
		}
		for _, s := range starts {
			if m := &ms[s.member]; s.at.Sub(first) > b.cfg.StragglerLate {
				m.late++
				if s.at > m.gapTo {
					m.gapFrom, m.gapTo = first, s.at
				}
			}
		}
	}

	// "Constant late starts" (Algorithm 2): at least LateCount late ops AND
	// a third of the observed ops — isolated skew from pipeline drift must
	// not convict a rank. A rank that starts late because it is still INSIDE
	// another collective is a victim, not the cause: chase the dependency
	// into that communicator (nested parallelism groups, §3.1). Below that
	// quorum there is not enough evidence to convict here (slow cadences
	// yield few ops per window), but the latest late gap still points at
	// where the rank was held up: follow it, and keep its verdict if it
	// names a suspect.
	var m stragglerMember // the member with the most late starts
	for _, c := range ms {
		if c.late > m.late {
			m = c
		}
	}
	if m.late > 0 {
		quorum := m.late >= max(b.cfg.LateCount, seqs/3)
		if busy, ok := b.graph.StuckCommDuring(m.rank, m.gapFrom, m.gapTo, commID); ok && len(visited) < b.cfg.ChaseDepth && !visited[busy] {
			hop := Hop{Comm: commID, Suspect: m.rank, Via: ViaLateStart, Edge: b.graph.HopKind(m.rank, busy)}
			if sub := b.analyzeStragglerComm(tr, busy, visited, appendHop(chain, hop)); quorum || sub.Suspect >= 0 {
				return sub
			}
		}
		if quorum {
			return b.stragglerVerdict(tr, commID, chain, m.rank, CatComputeStraggler, ViaLateStart,
				fmt.Sprintf("late start (> %v) in %d/%d ops", b.cfg.StragglerLate, m.late, seqs))
		}
	}

	if r, frac := mostBound(ms, func(m *stragglerMember) int { return m.nicBound }); frac >= b.cfg.FlowPressureFrac {
		return b.stragglerVerdict(tr, commID, chain, r, CatNetworkDegrade, ViaFlowPressure,
			fmt.Sprintf("NIC queue occupied in %.0f%% of state snapshots", 100*frac))
	}
	if r, frac := mostBound(ms, func(m *stragglerMember) int { return m.gpuBound }); frac >= b.cfg.FlowPressureFrac {
		return b.stragglerVerdict(tr, commID, chain, r, CatPCIeDegrade, ViaFlowPressure,
			fmt.Sprintf("staging-bound in %.0f%% of state snapshots", 100*frac))
	}
	return b.stragglerVerdict(tr, commID, chain, -1, CatUnknown, ViaNone, "no straggler pattern matched")
}

// mostBound returns the member with the highest share of its state snapshots
// that bound counts (the lowest rank among equals) and that share; no member
// and 0 when no member has a snapshot bound counts.
func mostBound(ms []stragglerMember, bound func(*stragglerMember) int) (topo.Rank, float64) {
	best, bestFrac := topo.Rank(-1), 0.0
	for i := range ms {
		if ms[i].snaps == 0 {
			continue
		}
		if f := float64(bound(&ms[i])) / float64(ms[i].snaps); f > bestFrac {
			best, bestFrac = ms[i].rank, f
		}
	}
	return best, bestFrac
}

// stragglerVerdict is the report a straggler analysis of commID ends with:
// suspect (-1 for none) found via via, its hop appended to chain.
// AnalyzeStraggler stamps AnalyzedAt.
func (b *Backend) stragglerVerdict(tr Trigger, commID uint64, chain []Hop, suspect topo.Rank, cat Category, via Via, details string) Report {
	ip, _ := b.db.IPOf(suspect) // "" for no suspect
	return Report{
		Trigger: tr, Suspect: suspect, SuspectIP: ip, CommID: commID, Category: cat, Via: via, Details: details,
		Chain: appendHop(chain, Hop{Comm: commID, Suspect: suspect, Via: via}),
	}
}

// appendHop copies-then-appends so recursive chases never share a chain's
// backing array.
func appendHop(chain []Hop, h Hop) []Hop {
	out := make([]Hop, len(chain), len(chain)+1)
	copy(out, chain)
	return append(out, h)
}
