package mycroft

import (
	"errors"
	"fmt"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/logdiag"
	"mycroft/internal/obs"
	"mycroft/internal/otrace"
	"mycroft/internal/perfdiag"
	"mycroft/internal/sim"
)

// Modality names a diagnosis channel (re-exported from core).
type Modality = core.Modality

const (
	// ModalityTracepoint is the paper's 112-byte trace pipeline.
	ModalityTracepoint = core.ModalityTracepoint
	// ModalityLog is the template-clustered training-log channel.
	ModalityLog = core.ModalityLog
	// ModalityPerf is the black-box iteration-timing channel.
	ModalityPerf = core.ModalityPerf
)

// Modalities returns the valid channel set, in canonical order.
func Modalities() []Modality { return core.Modalities() }

// Evidence is one channel's contribution to a fused verdict.
type Evidence = core.Evidence

// Fusion outcomes, for metrics and assertions.
const (
	FusionSingle       = core.FusionSingle
	FusionCorroborated = core.FusionCorroborated
	FusionConflicted   = core.FusionConflicted
)

// Vias for channel-sourced verdicts.
const (
	ViaLogTemplate  = core.ViaLogTemplate
	ViaPerfEnvelope = core.ViaPerfEnvelope
)

// ChannelAnomaly is the payload of an EventLogAnomaly: one channel finding,
// published as it happens (before, and independent of, any report it may
// escalate into).
type ChannelAnomaly = core.LogAnomaly

// LogLine is one structured training-log line on the ingest path. At is
// virtual time; zero means "now", and a negative one is refused.
type LogLine struct {
	Rank  Rank          `json:"rank"`
	At    time.Duration `json:"at_ns,omitempty"`
	Level string        `json:"level,omitempty"` // "info", "warn" or "error" (anything else reads as info)
	Text  string        `json:"text"`
}

// IterationSample is one per-rank iteration-completion timestamp — the only
// signal the black-box perf channel needs. At is as in LogLine; a negative
// Iter is refused.
type IterationSample struct {
	Rank Rank          `json:"rank"`
	Iter int           `json:"iter"`
	At   time.Duration `json:"at_ns,omitempty"`
}

// IngestResult reports one channel ingest batch: how many items were folded
// in and how many anomalies the triggered analysis pass currently sees.
type IngestResult struct {
	Job       JobID `json:"job"`
	Accepted  int   `json:"accepted"`
	Anomalies int   `json:"anomalies"`
}

// Channel statistics, as Client.ChannelStats answers them.
type (
	// ChannelInfo is one diagnosis channel's counters.
	ChannelInfo = api.ChannelInfo
	// FusionInfo summarizes evidence fusion for one job.
	FusionInfo = api.FusionInfo
	// ChannelStatsResult is per-channel counters in canonical order plus the
	// job's fusion summary.
	ChannelStatsResult = api.ChannelStatsResult
)

// channelEventInterval rate-limits repeated EventLogAnomaly publication for
// the same finding; channelReportMute rate-limits report escalation per
// channel (an ongoing anomaly is one incident, not one per ingest batch).
const (
	channelEventInterval = 5 * time.Second
	channelReportMute    = 30 * time.Second
)

// ErrInvalidRank reports a channel ingest item naming a rank the job does not
// have. The batch it arrived in is refused whole.
var ErrInvalidRank = errors.New("invalid rank")

// ErrNegativeStamp reports a channel ingest item whose at_ns or iter is
// negative. The batch it arrived in is refused whole. A time ahead of the
// job's clock is taken: timings may be stamped by the job's own clock.
var ErrNegativeStamp = errors.New("negative stamp")

// channelState is one non-tracepoint channel's bookkeeping: the counters
// ChannelStats and /metrics answer with, and the report mute.
type channelState struct {
	muteUntil                     time.Duration
	mIngest, mAnomalies, mReports *obs.Counter
}

// jobChannels is one hosted job's non-tracepoint diagnosis state: the two
// detectors, the shared fusion, and the rate-limit/counter bookkeeping.
type jobChannels struct {
	logs   *logdiag.Detector
	perf   *perfdiag.Detector
	fusion *core.Fusion

	lastEvent map[string]time.Duration // anomaly key → last publish time
	by        map[Modality]*channelState
}

// newJobChannels builds a job's channel state with its per-channel instrument
// set, labeled {job, channel}.
func (s *Service) newJobChannels(id JobID, world int, fusion *core.Fusion) *jobChannels {
	ch := &jobChannels{
		logs:      logdiag.New(world, logdiag.Config{}),
		perf:      perfdiag.New(world, perfdiag.Config{}),
		fusion:    fusion,
		lastEvent: make(map[string]time.Duration),
		by:        make(map[Modality]*channelState),
	}
	jl := obs.L("job", string(id))
	for _, m := range []Modality{ModalityLog, ModalityPerf} {
		ml := obs.L("channel", string(m))
		ch.by[m] = &channelState{
			mIngest: s.reg.Counter("mycroft_channel_ingest_total",
				"Channel-native items ingested (log lines, timing samples).", jl, ml),
			mAnomalies: s.reg.Counter("mycroft_channel_anomalies_total",
				"Channel anomalies published.", jl, ml),
			mReports: s.reg.Counter("mycroft_channel_reports_total",
				"Verdicts escalated by the channel.", jl, ml),
		}
	}
	return ch
}

// ingestChannel is the pipeline IngestLogs and IngestTimings share around
// their own fold loop and analysis pass: resolve the job, refuse the whole
// batch if any item's rank is outside [0, WorldSize) or its at_ns or iter is
// negative — before anything is folded, counted or analyzed — then fold,
// count, bump the heartbeat, analyze.
func (s *Service) ingestChannel(job JobID, m Modality, n int, item func(i int) (Rank, time.Duration, int),
	fold func(ch *jobChannels, now sim.Time), analyze func(h *JobHandle, now sim.Time) int) (IngestResult, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return IngestResult{}, err
	}
	for i, world := 0, h.WorldSize(); i < n; i++ {
		r, at, iter := item(i)
		if r < 0 || int(r) >= world {
			return IngestResult{}, fmt.Errorf("mycroft: job %q: %w %d (world size %d)", h.ID, ErrInvalidRank, r, world)
		}
		if at < 0 || iter < 0 {
			return IngestResult{}, fmt.Errorf("mycroft: job %q: %w: item %d has at_ns %d, iter %d", h.ID, ErrNegativeStamp, i, at, iter)
		}
	}
	now := s.Eng.Now()
	fold(h.channels, now)
	h.channels.by[m].mIngest.Add(uint64(n))
	// Any channel's ingest proves the job is alive: bump the heartbeat
	// watermark the health ladder reads.
	h.lastIngest = s.Now()
	return IngestResult{Job: h.ID, Accepted: n, Anomalies: analyze(h, now)}, nil
}

// stampOr is an ingest item's virtual time: zero means "now".
func stampOr(at time.Duration, now sim.Time) sim.Time {
	if at == 0 {
		return now
	}
	return sim.Time(at)
}

// IngestLogs feeds structured training-log lines into a job's log-diagnosis
// channel and runs one analysis pass. It is the tracepoint-free ingest path:
// a job that never emits a single trace record still reaches verdicts (and
// remediation) through here.
func (s *Service) IngestLogs(job JobID, lines []LogLine) (IngestResult, error) {
	return s.ingestChannel(job, ModalityLog, len(lines),
		func(i int) (Rank, time.Duration, int) { return lines[i].Rank, lines[i].At, 0 },
		func(ch *jobChannels, now sim.Time) {
			for _, l := range lines {
				ch.logs.Ingest(logdiag.Line{Rank: l.Rank, At: stampOr(l.At, now), Level: l.Level, Text: l.Text})
			}
		}, (*JobHandle).analyzeLogs)
}

// IngestTimings feeds per-rank iteration timestamps into a job's black-box
// perf channel and runs one analysis pass.
func (s *Service) IngestTimings(job JobID, samples []IterationSample) (IngestResult, error) {
	return s.ingestChannel(job, ModalityPerf, len(samples),
		func(i int) (Rank, time.Duration, int) { return samples[i].Rank, samples[i].At, samples[i].Iter },
		func(ch *jobChannels, now sim.Time) {
			for _, smp := range samples {
				ch.perf.Ingest(perfdiag.Sample{Rank: smp.Rank, Iter: smp.Iter, At: stampOr(smp.At, now)})
			}
		}, (*JobHandle).analyzePerf)
}

// analyzeLogs runs one log-channel analysis pass under its pipeline span:
// publish every divergence as an EventLogAnomaly (rate-limited), feed the
// fusion, and escalate the strongest warn/error anomaly into a Report.
func (h *JobHandle) analyzeLogs(now sim.Time) int {
	ch := h.channels
	span := h.tracer.StageAt(otrace.StageLogAnalyze, now)
	anoms := ch.logs.Analyze(now)
	h.tracer.Annotate(span, "", fmt.Sprintf("%d line(s) clustered into %d template(s), %d anomalous",
		ch.logs.Ingested(), ch.logs.Templates(), len(anoms)))
	h.tracer.EndAt(span, now)
	for _, a := range anoms {
		ch.fusion.Observe(logEvidence(a, now))
		h.publishAnomaly(ChannelAnomaly{
			Channel: ModalityLog, Rank: a.Rank, Ranks: a.Ranks,
			Template: a.Template, Level: a.Level, Count: a.Count, Fleet: a.Fleet,
			Score: a.Score, Category: a.Category, At: now,
		})
	}
	for _, a := range anoms {
		// Info-level chatter never escalates on its own: it corroborates via
		// the fusion but a verdict needs at least a warning.
		if a.Level == "info" {
			continue
		}
		h.escalateLog(a, logEvidence(a, now))
		break
	}
	return len(anoms)
}

// analyzePerf runs one perf-channel analysis pass under its pipeline span.
func (h *JobHandle) analyzePerf(now sim.Time) int {
	ch := h.channels
	span := h.tracer.StageAt(otrace.StagePerfAnalyze, now)
	finds := ch.perf.Analyze(now)
	h.tracer.Annotate(span, "", fmt.Sprintf("%d sample(s) enveloped, %d finding(s)",
		ch.perf.Ingested(), len(finds)))
	h.tracer.EndAt(span, now)
	for _, f := range finds {
		cat := CatComputeStraggler
		own := Evidence{
			Channel: ModalityPerf, Rank: f.Rank, Category: cat,
			Score: f.Ratio, At: now, Detail: string(f.Kind),
		}
		ch.fusion.Observe(own)
		h.publishAnomaly(ChannelAnomaly{
			Channel: ModalityPerf, Rank: f.Rank, Ranks: f.Ranks,
			Template: string(f.Kind), Level: "warn",
			Count: f.Persisted, Fleet: h.WorldSize(),
			Score: f.Ratio, Category: cat, At: now,
		})
		h.escalatePerf(f, own)
	}
	return len(finds)
}

// publishAnomaly dispatches one EventLogAnomaly, rate-limited per
// (channel, finding, rank) so a persistent anomaly re-announces at most every
// channelEventInterval.
func (h *JobHandle) publishAnomaly(a ChannelAnomaly) {
	ch := h.channels
	key := fmt.Sprintf("%s|%s|%d", a.Channel, a.Template, a.Rank)
	at := time.Duration(a.At)
	if last, ok := ch.lastEvent[key]; ok && at-last < channelEventInterval {
		return
	}
	ch.lastEvent[key] = at
	ch.by[a.Channel].mAnomalies.Inc()
	h.svc.dispatch(Event{Job: h.ID, Kind: EventLogAnomaly, At: at, LogAnomaly: &a})
}

// logEvidence is the log channel's own evidence for one divergence.
func logEvidence(a logdiag.Anomaly, now sim.Time) Evidence {
	return Evidence{
		Channel: ModalityLog, Rank: a.Rank, Category: a.Category,
		Score: a.Score, At: now, Detail: a.Template,
	}
}

// escalateLog turns one log divergence into a full Report.
func (h *JobHandle) escalateLog(a logdiag.Anomaly, own Evidence) {
	h.escalate(own, core.TriggerFailure, ViaLogTemplate, a.Ranks, func() (string, string) {
		return fmt.Sprintf("log-template divergence: %q", a.Template),
			fmt.Sprintf("log channel: template %q (%s) concentrated on rank %d (%d/%d in window, score %.2f)",
				a.Template, a.Level, a.Rank, a.Count, a.Fleet, a.Score)
	})
}

// escalatePerf turns one timing-envelope finding into a Report.
func (h *JobHandle) escalatePerf(f perfdiag.Finding, own Evidence) {
	h.escalate(own, core.TriggerStraggler, ViaPerfEnvelope, f.Ranks, func() (string, string) {
		return fmt.Sprintf("timing envelope: %s", f.Kind),
			fmt.Sprintf("perf channel: %s on rank %d (median %.3fs vs fleet %.3fs, ×%.2f over %d passes)",
				f.Kind, f.Rank, f.RankMedian, f.FleetMedian, f.Ratio, f.Persisted)
	})
}

// escalate is the tail both channels' escalations share. The per-channel
// mute comes first (an ongoing anomaly is one incident, not one per ingest
// batch) and is armed on passage; text renders the channel's own trigger
// reason and report details only for a finding the mute lets through. The
// report then takes the standard delivery path — subscribers, remediation and
// cluster replication see it exactly like a tracepoint verdict — and is
// counted.
func (h *JobHandle) escalate(own Evidence, kind core.TriggerKind, via core.Via, ranks []Rank, text func() (reason, details string)) {
	c := h.channels.by[own.Channel]
	at := time.Duration(own.At)
	if at < c.muteUntil {
		return
	}
	c.muteUntil = at + channelReportMute
	ip := h.Job.Cluster.IPOf(own.Rank)
	reason, details := text()
	h.Backend.DeliverExternal(core.Report{
		Trigger: core.Trigger{Kind: kind, Rank: own.Rank, IP: ip, At: own.At, Reason: reason},
		Suspect: own.Rank, SuspectIP: ip, Category: own.Category,
		Via: via, AnalyzedAt: own.At, Details: details,
		Chain:   []core.Hop{{Suspect: own.Rank, Via: via}},
		Victims: victimsBeside(ranks, own.Rank),
	}, own)
	c.mReports.Inc()
}

// victimsBeside returns the affected set minus the suspect (already sorted by
// the detectors), the Report.Victims convention.
func victimsBeside(ranks []Rank, suspect Rank) []Rank {
	var out []Rank
	for _, r := range ranks {
		if r != suspect {
			out = append(out, r)
		}
	}
	return out
}

// observeFusion counts one delivered report's fusion outcome (the dispatch
// hook). Labels are register-on-demand like remediation outcomes.
func (h *JobHandle) observeFusion(rep Report) {
	h.svc.reg.Counter("mycroft_fusion_total", "Delivered reports by fusion outcome.",
		obs.L("job", string(h.ID)), obs.L("outcome", rep.FusionOutcome())).Inc()
}

// ChannelStats reports a job's per-channel diagnosis counters and fusion
// summary. Part of the Client interface.
func (s *Service) ChannelStats(job JobID) (ChannelStatsResult, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return ChannelStatsResult{}, err
	}
	ch := h.channels
	// Reports and fusion outcomes are counted from the ledger, reports by the
	// channel that delivered them. Outcomes stays nil until the first report.
	var viaTrace, viaLog, viaPerf uint64
	fusion := FusionInfo{Window: core.FusionWindow}
	for _, rep := range h.Backend.Reports() {
		out := rep.FusionOutcome()
		if fusion.Outcomes == nil {
			fusion.Outcomes = make(map[string]uint64)
		}
		fusion.Outcomes[out]++
		fusion.LastOutcome, fusion.LastConfidence = out, rep.Confidence
		switch rep.Via {
		case ViaLogTemplate:
			viaLog++
		case ViaPerfEnvelope:
			viaPerf++
		default:
			viaTrace++
		}
	}
	logs, perf := ch.by[ModalityLog], ch.by[ModalityPerf]
	return ChannelStatsResult{
		Job: h.ID,
		Channels: []ChannelInfo{
			{Channel: ModalityTracepoint, Ingested: h.Job.DB.Ingested(),
				Anomalies: uint64(len(h.Backend.Triggers())), Reports: viaTrace},
			{Channel: ModalityLog, Ingested: logs.mIngest.Value(),
				Anomalies: logs.mAnomalies.Value(), Reports: viaLog, Templates: ch.logs.Templates()},
			{Channel: ModalityPerf, Ingested: perf.mIngest.Value(),
				Anomalies: perf.mAnomalies.Value(), Reports: viaPerf},
		},
		Fusion: fusion,
	}, nil
}
