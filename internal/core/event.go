package core

import (
	"fmt"

	"mycroft/internal/sim"
)

// EventKind discriminates what a backend publishes.
type EventKind uint8

const (
	// EventTrigger carries an Algorithm 1 firing.
	EventTrigger EventKind = iota + 1
	// EventReport carries an Algorithm 2 verdict.
	EventReport
	// EventLifecycle marks a backend state change (Phase names it).
	EventLifecycle
	// EventAction marks a remediation-loop transition (an attempt applied or
	// resolved). The backend never emits it; the service layer's remediation
	// engine does, and it is declared here so every event consumer shares one
	// kind space.
	EventAction
	// EventHealth marks a job health transition (healthy → degraded → stale
	// and back). Like EventAction it is service-layer: the heartbeat monitor
	// emits it when a job's ingest watermark goes quiet past the staleness
	// threshold.
	EventHealth
	// EventLogAnomaly carries a channel finding (log-template divergence or
	// timing-envelope breach) the moment a diagnosis channel spots it —
	// before, and independent of, any report it escalates into. Service-layer,
	// like EventAction and EventHealth.
	EventLogAnomaly
)

func (k EventKind) String() string {
	switch k {
	case EventTrigger:
		return "trigger"
	case EventReport:
		return "report"
	case EventLifecycle:
		return "lifecycle"
	case EventAction:
		return "action"
	case EventHealth:
		return "health"
	case EventLogAnomaly:
		return "log-anomaly"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// eventKindText holds each kind's String name as the bytes MarshalText hands
// out: shared, so encoding a kind allocates nothing.
var eventKindText = func() (t [EventLogAnomaly + 1][]byte) {
	for k := EventTrigger; k <= EventLogAnomaly; k++ {
		t[k] = []byte(k.String())
	}
	return t
}()

// MarshalText and UnmarshalText carry the kind across JSON as its String
// name; a name outside the set is refused.
func (k EventKind) MarshalText() ([]byte, error) {
	if int(k) < len(eventKindText) && eventKindText[k] != nil {
		return eventKindText[k], nil
	}
	return []byte(k.String()), nil
}

func (k *EventKind) UnmarshalText(text []byte) error {
	for i, name := range eventKindText {
		if name != nil && string(name) == string(text) {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown event kind %q", text)
}

// Lifecycle phases.
const (
	PhaseBackendStarted = "backend-started"
	PhaseBackendStopped = "backend-stopped"
)

// Event is one published backend observation. Exactly one of Trigger,
// Report or Phase is set, matching Kind.
type Event struct {
	Kind    EventKind
	At      sim.Time
	Trigger *Trigger
	Report  *Report
	Phase   string
	// LogAnomaly is set for EventLogAnomaly (channel findings).
	LogAnomaly *LogAnomaly
}

// SetPublisher routes every subsequent event (triggers, reports, lifecycle
// changes) to fn. The multi-job service layer installs one publisher per
// hosted job.
func (b *Backend) SetPublisher(fn func(Event)) { b.publish = fn }

// emit hands an event to the publisher, if one is installed.
func (b *Backend) emit(ev Event) {
	if b.publish != nil {
		b.publish(ev)
	}
}
