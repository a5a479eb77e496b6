package rdma

import (
	"testing"
	"time"

	"mycroft/internal/sim"
)

func pair(t *testing.T) (*sim.Engine, *NIC, *NIC, *QP) {
	t.Helper()
	eng := sim.NewEngine(1)
	a := NewNIC(eng, 0, "nic-a", DefaultNIC())
	b := NewNIC(eng, 1, "nic-b", DefaultNIC())
	return eng, a, b, NewQP(0, a, b)
}

func TestWriteDeliveryAndCQE(t *testing.T) {
	eng, a, b, qp := pair(t)
	_ = b
	var deliveredAt, cqeAt sim.Time = -1, -1
	qp.PostWrite(50_000_000, // 1ms at 50GB/s
		func() { deliveredAt = eng.Now() },
		func() { cqeAt = eng.Now() })
	eng.Run()
	if deliveredAt < 0 || cqeAt < 0 {
		t.Fatal("callbacks did not fire")
	}
	// transmit = 1ms + 1us setup; delivery adds 5us, CQE adds 10us.
	wantDeliver := sim.Time(time.Millisecond + 1*time.Microsecond + 5*time.Microsecond)
	if deliveredAt != wantDeliver {
		t.Fatalf("deliveredAt = %v, want %v", deliveredAt, wantDeliver)
	}
	if cqeAt != wantDeliver.Add(5*time.Microsecond) {
		t.Fatalf("cqeAt = %v, want %v", cqeAt, wantDeliver.Add(5*time.Microsecond))
	}
	if cqeAt <= deliveredAt {
		t.Fatal("CQE must trail delivery")
	}
	c := a.Counters()
	if c.WRsPosted != 1 || c.WRsCompleted != 1 || c.BytesSent != 50_000_000 || c.BytesAcked != 50_000_000 {
		t.Fatalf("counters = %+v", c)
	}
	if qp.Posted() != 1 || qp.Completed() != 1 || qp.BytesSent() != 50_000_000 {
		t.Fatalf("qp counters: posted=%d completed=%d bytes=%d", qp.Posted(), qp.Completed(), qp.BytesSent())
	}
}

func TestNICSerializesWRs(t *testing.T) {
	eng, _, _, qp := pair(t)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		qp.PostWrite(50_000_000, nil, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("got %d CQEs, want 3", len(done))
	}
	// Each transmit is ~1ms; CQEs must be spaced ~1ms apart (serialized).
	for i := 1; i < 3; i++ {
		gap := done[i].Sub(done[i-1])
		if gap < 900*time.Microsecond || gap > 1100*time.Microsecond {
			t.Fatalf("CQE gap %d = %v, want ~1ms", i, gap)
		}
	}
}

func TestTwoQPsShareNIC(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewNIC(eng, 0, "a", DefaultNIC())
	b := NewNIC(eng, 1, "b", DefaultNIC())
	c := NewNIC(eng, 2, "c", DefaultNIC())
	q1 := NewQP(1, a, b)
	q2 := NewQP(2, a, c)
	var t1, t2 sim.Time
	q1.PostWrite(50_000_000, nil, func() { t1 = eng.Now() })
	q2.PostWrite(50_000_000, nil, func() { t2 = eng.Now() })
	eng.Run()
	// Sharing one 50GB/s NIC, the second flow finishes ~1ms after the first.
	if t2.Sub(t1) < 900*time.Microsecond {
		t.Fatalf("flows did not serialize on shared NIC: t1=%v t2=%v", t1, t2)
	}
}

func TestDownNICStallsSilently(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.SetDown(true)
	fired := false
	qp.PostWrite(1000, func() { fired = true }, nil)
	eng.RunFor(10 * time.Second)
	if fired {
		t.Fatal("delivery fired while NIC down")
	}
	if !a.Down() {
		t.Fatal("Down() = false")
	}
	// Gray failure: the WR was accepted (posted counter moves) but nothing
	// completes — exactly what an Op-level tracer cannot see.
	if a.Counters().WRsPosted != 1 || a.Counters().WRsCompleted != 0 {
		t.Fatalf("counters = %+v", a.Counters())
	}
}

func TestRecoveryReplaysPending(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.SetDown(true)
	var delivered []int
	for i := 0; i < 3; i++ {
		i := i
		qp.PostWrite(1000, func() { delivered = append(delivered, i) }, nil)
	}
	eng.After(2*time.Second, func() { a.SetDown(false) })
	eng.Run()
	if len(delivered) != 3 {
		t.Fatalf("delivered %d writes after recovery, want 3", len(delivered))
	}
	for i, d := range delivered {
		if d != i {
			t.Fatalf("recovery replay out of order: %v", delivered)
		}
	}
	if eng.Now() < sim.Time(2*time.Second) {
		t.Fatal("deliveries completed before recovery")
	}
}

func TestFlapFor(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.FlapFor(time.Second)
	var deliveredAt sim.Time = -1
	qp.PostWrite(1000, func() { deliveredAt = eng.Now() }, nil)
	eng.Run()
	if deliveredAt < sim.Time(time.Second) {
		t.Fatalf("delivery at %v, want after 1s flap", deliveredAt)
	}
	if a.Down() {
		t.Fatal("NIC still down after flap window")
	}
}

func TestBandwidthScale(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.SetBandwidthScale(0.5)
	if a.BandwidthScale() != 0.5 {
		t.Fatal("scale not recorded")
	}
	var done sim.Time
	qp.PostWrite(50_000_000, nil, func() { done = eng.Now() })
	eng.Run()
	// At half bandwidth the 1ms transfer takes ~2ms.
	if done < sim.Time(1900*time.Microsecond) || done > sim.Time(2200*time.Microsecond) {
		t.Fatalf("done = %v, want ~2ms", done)
	}
}

func TestLossInflatesGoodput(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.SetLossRate(0.5)
	var done sim.Time
	qp.PostWrite(50_000_000, nil, func() { done = eng.Now() })
	eng.Run()
	if done < sim.Time(1900*time.Microsecond) {
		t.Fatalf("done = %v, want ~2ms with 50%% loss", done)
	}
}

func TestFaultHookValidation(t *testing.T) {
	_, a, _, qp := pair(t)
	for name, fn := range map[string]func(){
		"zero bw scale":  func() { a.SetBandwidthScale(0) },
		"neg bw scale":   func() { a.SetBandwidthScale(-1) },
		"loss = 1":       func() { a.SetLossRate(1) },
		"neg loss":       func() { a.SetLossRate(-0.1) },
		"neg write size": func() { qp.PostWrite(-5, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewNICValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-bandwidth NIC did not panic")
		}
	}()
	NewNIC(sim.NewEngine(1), 0, "bad", NICConfig{Bandwidth: 0})
}

func TestQPAsLink(t *testing.T) {
	eng, _, _, qp := pair(t)
	l := qp.AsLink()
	id, kind := l.Describe()
	if id != 0 || kind != "rdma" {
		t.Fatalf("Describe = (%d, %s)", id, kind)
	}
	if got := qp.String(); got != "qp0(nic-a->nic-b)" {
		t.Fatalf("String = %q", got)
	}
	var stages []string
	l.Send(100, &funcs{
		deliver: func() { stages = append(stages, "deliver") },
		cqe:     func() { stages = append(stages, "cqe") },
	}, 0)
	eng.Run()
	if len(stages) != 2 || stages[0] != "deliver" || stages[1] != "cqe" {
		t.Fatalf("stages = %v, want [deliver cqe]", stages)
	}
	if eng.Dispatched() != 2 {
		t.Fatalf("a WR dispatched %d events, want 2 (delivery, CQE)", eng.Dispatched())
	}
}

func TestWireLossTransmitsButNeverCompletes(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.SetWireLoss(true)
	if !a.WireLoss() {
		t.Fatal("WireLoss() = false")
	}
	var deliver, cqe bool
	qp.Post(1000, &funcs{
		deliver: func() { deliver = true },
		cqe:     func() { cqe = true },
	}, 0)
	if eng.Pending() != 0 {
		t.Fatalf("a black-holed WR scheduled %d events, want none", eng.Pending())
	}
	if c := a.Counters(); c.BytesSent != 0 {
		t.Fatalf("BytesSent = %d before the transmission finished", c.BytesSent)
	}
	eng.RunFor(10 * time.Second)
	if deliver || cqe {
		t.Fatal("delivery or CQE fired despite wire loss")
	}
	// The signature: BytesSent advances, BytesAcked does not.
	c := a.Counters()
	if c.BytesSent != 1000 || c.BytesAcked != 0 || qp.BytesSent() != 1000 {
		t.Fatalf("counters = %+v, qp sent %d, want sent=1000 acked=0", c, qp.BytesSent())
	}
}

func TestNVLink(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewNVLink(eng, 7, 200e9, time.Microsecond)
	id, kind := l.Describe()
	if id != 7 || kind != "nvlink" {
		t.Fatalf("Describe = (%d, %s)", id, kind)
	}
	var done sim.Time
	l.Send(200_000_000, &funcs{deliver: func() { done = eng.Now() }}, 0) // 1ms at 200GB/s
	eng.Run()
	if done < sim.Time(time.Millisecond) || done > sim.Time(time.Millisecond+10*time.Microsecond) {
		t.Fatalf("nvlink delivery at %v, want ~1ms", done)
	}
}

func TestNVLinkSerializationAndScale(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewNVLink(eng, 0, 200e9, 0)
	l.SetBandwidthScale(0.5)
	var times []sim.Time
	l.Send(100_000_000, &funcs{deliver: func() { times = append(times, eng.Now()) }}, 0)
	l.Send(100_000_000, &funcs{deliver: func() { times = append(times, eng.Now()) }}, 0)
	eng.Run()
	if len(times) != 2 {
		t.Fatal("sends incomplete")
	}
	// Each 100MB at 100GB/s effective = 1ms; serialized => 1ms, 2ms.
	if times[0] != sim.Time(time.Millisecond) || times[1] != sim.Time(2*time.Millisecond) {
		t.Fatalf("times = %v, want [1ms 2ms]", times)
	}
}

func TestNVLinkValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-bw nvlink did not panic")
			}
		}()
		NewNVLink(eng, 0, 0, 0)
	}()
	l := NewNVLink(eng, 0, 1e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("zero nvlink scale did not panic")
		}
	}()
	l.SetBandwidthScale(0)
}

func TestSetDownIdempotent(t *testing.T) {
	eng, a, _, qp := pair(t)
	a.SetDown(true)
	a.SetDown(true) // no-op
	fired := false
	qp.PostWrite(10, func() { fired = true }, nil)
	a.SetDown(false)
	a.SetDown(false) // no-op; must not replay twice
	eng.Run()
	if !fired {
		t.Fatal("write not delivered after recovery")
	}
	if qp.Completed() != 1 {
		t.Fatalf("completed = %d, want 1 (double replay?)", qp.Completed())
	}
}

// stageLog is a closure-free Completion: it records which stages each arg saw.
type stageLog struct {
	seen  map[int32]string
	onCQE func(arg int32)
}

func (l *stageLog) OnDeliver(arg int32) { l.seen[arg] += "d" }
func (l *stageLog) OnCQE(arg int32) {
	l.seen[arg] += "c"
	if l.onCQE != nil {
		l.onCQE(arg)
	}
}

// TestWRRecyclingKeepsIdentity: a recycled WR never leaks one transfer's
// receiver or argument into another — not when its completion posts the next
// write at once, and not when a black-holed or parked WR sits beside it.
func TestWRRecyclingKeepsIdentity(t *testing.T) {
	eng, a, _, qp := pair(t)
	log := &stageLog{seen: map[int32]string{}}
	log.onCQE = func(arg int32) {
		if arg < 10 {
			qp.Post(1000, log, arg+10) // reuses the WR that just completed
		}
	}
	for i := int32(0); i < 10; i++ {
		qp.Post(1000, log, i)
	}
	a.SetWireLoss(true)
	qp.Post(1000, log, 100) // transmits, then vanishes: no stage fires
	a.SetWireLoss(false)
	qp.Post(1000, log, 101)
	eng.Run()
	a.SetDown(true)
	qp.Post(1000, log, 102) // parked until the NIC recovers
	eng.RunFor(time.Second)
	if log.seen[102] != "" {
		t.Fatalf("WR on a down NIC progressed: %q", log.seen[102])
	}
	a.SetDown(false)
	qp.Post(1000, log, 103)
	eng.Run()

	for arg := int32(0); arg < 20; arg++ {
		if log.seen[arg] != "dc" {
			t.Errorf("transfer %d saw stages %q, want dc", arg, log.seen[arg])
		}
	}
	for arg, want := range map[int32]string{100: "", 101: "dc", 102: "dc", 103: "dc"} {
		if log.seen[arg] != want {
			t.Errorf("transfer %d saw stages %q, want %q", arg, log.seen[arg], want)
		}
	}
	if c := a.Counters(); c.WRsPosted != 24 || c.WRsCompleted != 23 || c.BytesSent != 24*1000 {
		t.Errorf("counters = %+v, want 24 posted, 23 completed, 24000 bytes sent", c)
	}
	free := 0
	for w := a.free; w != nil; w = w.next {
		free++
	}
	if free > 12 {
		t.Errorf("free list holds %d WRs for at most 12 in flight", free)
	}
}
