package mycroft

import (
	"encoding/json"
	"fmt"
	"time"

	"mycroft/internal/api"
	"mycroft/internal/sim"
)

// HealthState is a hosted job's heartbeat verdict. States form a ladder —
// stopped, healthy, degraded, stale — driven by the job's ingest watermark
// and published as EventHealth events when they change.
type HealthState = api.HealthState

// The health ladder.
const (
	HealthStopped  = api.HealthStopped
	HealthHealthy  = api.HealthHealthy
	HealthDegraded = api.HealthDegraded
	HealthStale    = api.HealthStale
)

// healthScore maps a state onto the mycroft_job_health gauge scale.
func healthScore(hs HealthState) int64 {
	switch hs {
	case HealthHealthy:
		return 1
	case HealthDegraded:
		return 2
	case HealthStale:
		return 3
	default:
		return 0
	}
}

// DefaultStaleAfter is the heartbeat staleness threshold: a started job with
// no ingest for this much virtual time is Stale (and Degraded halfway there).
const DefaultStaleAfter = 10 * time.Second

// HealthChange is the payload of an EventHealth event: one job health
// transition.
type HealthChange = api.HealthChange

// JobHealth is one job's heartbeat view inside a HealthResult.
type JobHealth = api.JobHealth

// SubStats summarizes the service's subscription fan-out. It counts
// in-process streams only: a remote subscriber reads a job's event log and
// holds nothing on the daemon.
type SubStats struct {
	Active    int    `json:"active"`    // live streams
	Delivered uint64 `json:"delivered"` // events delivered to streams, lifetime
	Dropped   uint64 `json:"dropped"`   // events aged out of full stream buffers, lifetime
}

// HealthResult is the Client.Health answer: the service clock, identity and
// per-job heartbeat verdicts. Now and everything under Jobs are virtual-time
// deterministic; Uptime and Server describe the serving process (wall clock
// and build identity) and are zero for a plain in-process Service.
type HealthResult struct {
	Now    time.Duration
	Uptime time.Duration
	Server string
	Subs   SubStats
	Jobs   []JobHealth
}

// healthWire is HealthResult as /v1/health carries it, the one answer whose
// wire form is not its own fields: uptime travels in milliseconds and the
// protocol version rides beside the identity.
type healthWire struct {
	Now      time.Duration `json:"now_ns"`
	UptimeMs int64         `json:"uptime_ms"`
	Server   string        `json:"server,omitempty"`
	Version  int           `json:"version"`
	Subs     SubStats      `json:"subscriptions"`
	Jobs     []JobHealth   `json:"jobs"`
}

func (r HealthResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(healthWire{r.Now, r.Uptime.Milliseconds(), r.Server, api.Version, r.Subs, r.Jobs})
}

func (r *HealthResult) UnmarshalJSON(data []byte) error {
	var w healthWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = HealthResult{w.Now, time.Duration(w.UptimeMs) * time.Millisecond, w.Server, w.Subs, w.Jobs}
	return nil
}

// Health reports per-job heartbeat state and subscription fan-out. It is
// part of the Client interface; the daemon adds process uptime and identity
// on top of this answer.
func (s *Service) Health() (HealthResult, error) {
	res := HealthResult{Now: s.Now()}
	s.streamsMu.Lock()
	res.Subs.Active = len(s.streams)
	s.streamsMu.Unlock()
	res.Subs.Delivered = s.subDelivered.Value()
	res.Subs.Dropped = s.subDropped.Value()
	for _, id := range s.order {
		h := s.jobs[id]
		res.Jobs = append(res.Jobs, JobHealth{
			Job: id, State: h.health, Since: h.healthSince,
			LastIngest: h.lastIngest, Reason: h.healthReason,
		})
	}
	return res, nil
}

// Health returns the job's current heartbeat verdict.
func (h *JobHandle) Health() HealthState { return h.health }

// armHealthMonitor starts the heartbeat ticker (idempotent). The ticker
// draws no randomness, so arming it never perturbs a seeded run.
func (s *Service) armHealthMonitor() {
	if s.healthTicker != nil {
		return
	}
	s.healthTicker = s.Eng.NewTicker(DefaultStaleAfter/4, func(sim.Time) { s.checkHealth() })
}

// disarmHealthMonitor stops the ticker.
func (s *Service) disarmHealthMonitor() {
	if s.healthTicker != nil {
		s.healthTicker.Stop()
		s.healthTicker = nil
	}
}

// checkHealth is one monitor pass: re-derive every started job's state from
// its ingest watermark and publish transitions. Start/Stop set their states
// silently (lifecycle events already announce those edges); only watermark-
// driven movement emits EventHealth.
func (s *Service) checkHealth() {
	now := s.Now()
	for _, id := range s.order {
		h := s.jobs[id]
		if !h.started {
			continue
		}
		age := now - h.lastIngest
		want, reason := HealthHealthy, ""
		switch {
		case age >= DefaultStaleAfter:
			want = HealthStale
			reason = fmt.Sprintf("no ingest for %v (threshold %v)", age, DefaultStaleAfter)
		case age >= DefaultStaleAfter/2:
			want = HealthDegraded
			reason = fmt.Sprintf("no ingest for %v (threshold %v)", age, DefaultStaleAfter)
		}
		if want == h.health {
			continue
		}
		if want == HealthHealthy {
			reason = "ingest resumed"
		}
		ch := HealthChange{From: h.health, To: want, LastIngest: h.lastIngest, Reason: reason}
		h.health, h.healthSince = want, now
		h.healthReason = ""
		if want != HealthHealthy {
			h.healthReason = reason
		}
		s.dispatch(Event{Job: id, Kind: EventHealth, At: now, Health: &ch})
	}
}
