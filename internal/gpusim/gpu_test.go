package gpusim

import (
	"testing"
	"time"

	"mycroft/internal/sim"
)

// doneFunc adapts a plain func to CopyDone; it ignores the argument.
type doneFunc func()

func (f doneFunc) CopyDone(int32) { f() }

func newGPU(t *testing.T) (*sim.Engine, *GPU) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, 0, DefaultGPU())
}

func TestCopyTiming(t *testing.T) {
	eng, g := newGPU(t)
	var done sim.Time
	g.Copy(200_000_000, doneFunc(func() { done = eng.Now() }), 0) // 1ms at 200GB/s
	eng.Run()
	want := sim.Time(time.Millisecond + 3*time.Microsecond)
	if done != want {
		t.Fatalf("copy done at %v, want %v", done, want)
	}
	if g.Copies() != 1 || g.BytesStaged() != 200_000_000 {
		t.Fatalf("counters: copies=%d bytes=%d", g.Copies(), g.BytesStaged())
	}
}

func TestCopySerialization(t *testing.T) {
	eng, g := newGPU(t)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		g.Copy(200_000_000, doneFunc(func() { done = append(done, eng.Now()) }), 0)
	}
	eng.Run()
	for i := 1; i < 3; i++ {
		gap := done[i].Sub(done[i-1])
		if gap < time.Millisecond {
			t.Fatalf("copies overlapped: gap %v", gap)
		}
	}
}

func TestHangStallsCopies(t *testing.T) {
	eng, g := newGPU(t)
	g.SetHang(true)
	fired := false
	g.Copy(1000, doneFunc(func() { fired = true }), 0)
	eng.RunFor(time.Minute)
	if fired {
		t.Fatal("copy completed while hung")
	}
	if !g.Hung() {
		t.Fatal("Hung() = false")
	}
	if g.Copies() != 0 {
		t.Fatal("counter advanced while hung")
	}
}

func TestUnhangReplays(t *testing.T) {
	eng, g := newGPU(t)
	g.SetHang(true)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		g.Copy(1000, doneFunc(func() { order = append(order, i) }), 0)
	}
	eng.After(time.Second, func() { g.SetHang(false) })
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("replayed %d copies, want 3", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("replay out of order: %v", order)
		}
	}
	if eng.Now() < sim.Time(time.Second) {
		t.Fatal("copies completed before unhang")
	}
}

func TestSetHangIdempotent(t *testing.T) {
	eng, g := newGPU(t)
	g.SetHang(true)
	g.SetHang(true)
	g.Copy(10, nil, 0)
	g.SetHang(false)
	g.SetHang(false)
	eng.Run()
	if g.Copies() != 1 {
		t.Fatalf("copies = %d, want 1", g.Copies())
	}
}

func TestSlowFactorStretchesCompute(t *testing.T) {
	eng, g := newGPU(t)
	g.SetSlowFactor(3)
	if g.SlowFactor() != 3 {
		t.Fatal("slow factor not recorded")
	}
	var done sim.Time
	g.Compute(100*time.Millisecond, sim.Func(func() { done = eng.Now() }), 0)
	eng.Run()
	if done != sim.Time(300*time.Millisecond) {
		t.Fatalf("compute done at %v, want 300ms", done)
	}
}

func TestSlowFactorStretchesCopies(t *testing.T) {
	eng, g := newGPU(t)
	g.SetSlowFactor(2)
	var done sim.Time
	g.Copy(200_000_000, doneFunc(func() { done = eng.Now() }), 0)
	eng.Run()
	// 1ms nominal × 2 slow + 3µs launch
	if done < sim.Time(2*time.Millisecond) || done > sim.Time(2*time.Millisecond+10*time.Microsecond) {
		t.Fatalf("slowed copy done at %v, want ~2ms", done)
	}
}

func TestCopyBandwidthScale(t *testing.T) {
	eng, g := newGPU(t)
	g.SetCopyBandwidthScale(0.25)
	var done sim.Time
	g.Copy(200_000_000, doneFunc(func() { done = eng.Now() }), 0)
	eng.Run()
	if done < sim.Time(4*time.Millisecond) {
		t.Fatalf("PCIe-degraded copy done at %v, want ≥4ms", done)
	}
}

func TestComputeZeroDelay(t *testing.T) {
	eng, g := newGPU(t)
	fired := false
	g.Compute(0, sim.Func(func() { fired = true }), 0)
	eng.Run()
	if !fired {
		t.Fatal("zero-duration compute never completed")
	}
}

func TestValidation(t *testing.T) {
	eng, g := newGPU(t)
	_ = eng
	cases := map[string]func(){
		"neg copy":       func() { g.Copy(-1, nil, 0) },
		"zero slow":      func() { g.SetSlowFactor(0) },
		"zero copyScale": func() { g.SetCopyBandwidthScale(0) },
		"neg compute":    func() { g.Compute(-time.Second, nil, 0) },
		"bad config":     func() { New(eng, 1, Config{CopyBandwidth: 0}) },
	}
	for name, fn := range cases {
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

// argLog is a closure-free CopyDone: it records the arguments it completes
// with and can start the next copy from inside a completion.
type argLog struct {
	done []int32
	next func(arg int32)
}

func (l *argLog) CopyDone(arg int32) {
	l.done = append(l.done, arg)
	if l.next != nil {
		l.next(arg)
	}
}

// TestCopyRecyclingKeepsIdentity: a recycled request carries its own
// argument — when a completion starts the next copy at once, and when
// requests sat stalled through a hang.
func TestCopyRecyclingKeepsIdentity(t *testing.T) {
	eng, g := newGPU(t)
	log := &argLog{}
	log.next = func(arg int32) {
		if arg < 4 {
			g.Copy(1000, log, arg+4) // reuses the request that just completed
		}
	}
	for i := int32(0); i < 4; i++ {
		g.Copy(1000, log, i)
	}
	eng.Run()
	g.SetHang(true)
	g.Copy(1000, log, 8)
	g.Copy(1000, log, 9)
	eng.RunFor(time.Second)
	g.SetHang(false)
	g.Copy(1000, log, 10)
	eng.Run()
	for i, arg := range log.done {
		if arg != int32(i) {
			t.Fatalf("completions = %v, want 0..10 in order", log.done)
		}
	}
	if len(log.done) != 11 || g.Copies() != 11 {
		t.Fatalf("%d completions, %d copies, want 11", len(log.done), g.Copies())
	}
	free := 0
	for r := g.free; r != nil; r = r.next {
		free++
	}
	if free > 4 {
		t.Fatalf("free list holds %d requests for at most 4 in flight", free)
	}
}
