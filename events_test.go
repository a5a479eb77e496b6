package mycroft

import (
	"testing"
	"time"
)

// TestStreamNextWait: the bounded wait returns immediately when an event is
// buffered, wakes when another goroutine delivers mid-wait, and gives up at
// the deadline instead of blocking forever — the contract a long-poll
// handler depends on.
func TestStreamNextWait(t *testing.T) {
	st := newStream(nil, EventFilter{})

	st.deliver(Event{Job: "a", Kind: EventLifecycle, Phase: "job-started"})
	start := time.Now()
	if e, ok := st.NextWait(5 * time.Second); !ok || e.Phase != "job-started" {
		t.Fatalf("NextWait on buffered stream = %v, %v", e, ok)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("NextWait blocked %v with a buffered event", elapsed)
	}

	// Empty stream: a short wait expires empty-handed.
	start = time.Now()
	if _, ok := st.NextWait(50 * time.Millisecond); ok {
		t.Fatal("NextWait returned an event from an empty stream")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("NextWait deadline off: waited %v for a 50ms timeout", elapsed)
	}

	// Delivery from another goroutine wakes a parked waiter.
	go func() {
		time.Sleep(20 * time.Millisecond)
		st.deliver(Event{Job: "a", Kind: EventLifecycle, Phase: "late"})
	}()
	if e, ok := st.NextWait(5 * time.Second); !ok || e.Phase != "late" {
		t.Fatalf("NextWait missed the cross-goroutine delivery: %v, %v", e, ok)
	}

	// Close wakes a parked waiter too, returning false.
	go func() {
		time.Sleep(20 * time.Millisecond)
		st.Close()
	}()
	if _, ok := st.NextWait(5 * time.Second); ok {
		t.Fatal("NextWait returned an event from a closed empty stream")
	}
}

// TestStreamCloseIdempotent: Close may be called any number of times, from
// the consumer or a tail loop, without error or double-detach effects —
// and buffered events stay consumable after it.
func TestStreamCloseIdempotent(t *testing.T) {
	svc := NewService(ServiceOptions{})
	st := svc.Subscribe(EventFilter{})
	st.deliver(Event{Job: "a", Kind: EventLifecycle, Phase: "one"})
	st.deliver(Event{Job: "a", Kind: EventLifecycle, Phase: "two"})

	if err := st.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n := len(svc.streams); n != 0 {
		t.Fatalf("service still tracks %d streams after Close", n)
	}

	// Buffered events remain consumable; new deliveries are refused.
	st.deliver(Event{Job: "a", Kind: EventLifecycle, Phase: "after-close"})
	if got := st.Drain(); len(got) != 2 || got[0].Phase != "one" || got[1].Phase != "two" {
		t.Fatalf("post-Close Drain = %v", got)
	}
	if _, ok := st.Next(); ok {
		t.Fatal("closed stream accepted a delivery")
	}
}
