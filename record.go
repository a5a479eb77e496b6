package mycroft

import (
	"fmt"
	"io"

	"mycroft/internal/api"
	"mycroft/internal/replay"
	"mycroft/internal/sim"
	"mycroft/internal/trace"
)

// Re-exported replay types, so operators drive post-mortem analysis from the
// root API without importing internal packages.
type (
	// ReplayOptions tunes a Replay: a what-if analysis configuration and/or
	// a what-if policy to shadow-match (see internal/replay.Options).
	ReplayOptions = replay.Options
	// ReplayResult is a replay's full outcome: header, recorded vs replayed
	// trigger/report streams, shadow actions.
	ReplayResult = replay.Result
	// ReplayOutcome is one ordered trigger/report stream pair.
	ReplayOutcome = replay.Outcome
	// ReplayDiff reports which triggers/reports/verdicts changed between two
	// outcomes.
	ReplayDiff = replay.DiffReport
	// ArtifactHeader is an incident artifact's self-description.
	ArtifactHeader = replay.Header
)

// Replay re-drives a recorded incident artifact through a fresh analysis
// stack and returns the recorded and replayed outcomes side by side. With
// zero options the replay is faithful and reproduces the original triggers
// and reports byte-for-byte; with a what-if configuration or policy it answers
// "what would Mycroft have concluded if …" against the same evidence.
func Replay(r io.Reader, opts ReplayOptions) (*ReplayResult, error) {
	return replay.Replay(r, opts)
}

// DiffOutcomes compares two outcome streams (recorded vs replayed, or two
// what-if runs) element-wise.
func DiffOutcomes(a, b ReplayOutcome) *ReplayDiff { return replay.Diff(a, b) }

// Recorder streams one hosted job's diagnosis inputs and outputs — ingested
// trace batches, Algorithm 1 evaluation instants, published events — to an
// incident artifact as they happen. Attach before Start for a byte-for-byte
// replayable capture; a recorder attached mid-run carries the store's prior
// records as a preamble, which rebuilds the dependency graph exactly but
// re-derives detection baselines from the preamble's timestamps, so replay
// fidelity is only guaranteed from a start-of-run attach.
//
// The recorder runs inside engine dispatch; a write error (full disk, closed
// pipe) latches in Err and stops the capture rather than failing the run.
type Recorder struct {
	svc          *Service
	h            *JobHandle
	enc          *replay.Encoder
	stream       *Stream
	removeIngest func()
	closed       bool
}

// Record attaches an incident recorder to a hosted job, writing the artifact
// to w incrementally (chunked, no whole-run buffering). One recorder per job
// at a time; Close writes the footer and detaches.
func (s *Service) Record(id JobID, w io.Writer) (*Recorder, error) {
	h, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("mycroft: no job %q", id)
	}
	if h.recorder != nil {
		return nil, fmt.Errorf("mycroft: job %q is already being recorded", id)
	}
	sampled := h.Backend.Sampled()
	hdr := replay.Header{
		Job:       string(id),
		CreatedBy: fmt.Sprintf("mycroft/%d", api.Version),
		Seed:      s.seed,
		WorldSize: h.WorldSize(),
		Topo:      h.Job.Cfg.Topo,
		Backend:   h.Backend.Config(),
		StartNs:   int64(s.Now()),
	}
	for _, r := range sampled {
		hdr.SampledRanks = append(hdr.SampledRanks, int(r))
	}
	enc, err := replay.NewEncoder(w, hdr)
	if err != nil {
		return nil, err
	}
	rec := &Recorder{svc: s, h: h, enc: enc}
	// Preamble: a mid-run attach snapshots the store's current contents as
	// one batch stamped "now", in the global (Time, Rank) merge order — so
	// the replayed graph bootstrap sees exactly what this backend saw.
	if h.Job.DB.Ingested() > 0 {
		var pre []trace.Record
		h.Job.DB.Export(0, s.Eng.Now(), func(r trace.Record) bool {
			pre = append(pre, r)
			return true
		})
		enc.WriteBatch(int64(s.Now()), pre)
	}
	rec.removeIngest = h.Job.DB.AddIngestObserver(func(batch []trace.Record) {
		enc.WriteBatch(int64(s.Now()), batch)
	})
	h.Backend.SetEvalObserver(func(t sim.Time) {
		enc.WriteEval(int64(t))
	})
	// The subscription delivers synchronously inside dispatch, so events
	// land in the artifact in exact engine order relative to the ingest and
	// eval entries around them.
	rec.stream = s.Subscribe(EventFilter{Jobs: []JobID{id}}).Each(func(e Event) {
		enc.WriteEvent(int64(e.At), e)
	})
	h.recorder = rec
	return rec, nil
}

// Job returns the recorded job's id.
func (r *Recorder) Job() JobID { return r.h.ID }

// Sync flushes buffered entries so the bytes written so far decode as a
// valid (incomplete) artifact — the live snapshot the /v1 download serves.
func (r *Recorder) Sync() error { return r.enc.Sync() }

// Err returns the first write error, if any; the capture stopped there.
func (r *Recorder) Err() error { return r.enc.Err() }

// Close detaches the recorder and writes the artifact footer stamped with
// the current virtual time. Idempotent; returns the first write error.
func (r *Recorder) Close() error {
	if r.closed {
		return r.enc.Err()
	}
	r.closed = true
	r.removeIngest()
	r.h.Backend.SetEvalObserver(nil)
	r.stream.Close()
	r.h.recorder = nil
	return r.enc.Close(int64(r.svc.Now()))
}

// Recording returns the job's live recorder, if one is attached.
func (h *JobHandle) Recording() (*Recorder, bool) { return h.recorder, h.recorder != nil }
