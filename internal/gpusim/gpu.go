// Package gpusim models the GPU half of NCCL's hardware–software
// coordination (§4.2 of the paper): a copy engine that stages chunks from
// user memory into the proxy's preallocated buffer ("SM copies" feeding the
// GPU_ready counter), and a compute model for the gaps between collectives.
//
// Fault hooks reproduce the GPU-side fault classes of §7.1:
//
//   - Hang: the copy engine stops completing work (stuck CUDA kernel).
//   - SlowFactor: compute (and optionally copies) run slower — a compute
//     straggler.
//   - CopyBandwidthScale: degraded staging path (PCIe degrade signature:
//     GPU_ready advances abnormally slowly while compute is healthy).
package gpusim

import (
	"fmt"
	"time"

	"mycroft/internal/sim"
)

// ID identifies a GPU (global, equals rank in this model).
type ID int

// Config sets a GPU's nominal characteristics.
type Config struct {
	CopyBandwidth float64       // staging copy bytes/second (SM copy into proxy buffer)
	LaunchLat     time.Duration // kernel launch latency per copy
}

// DefaultGPU approximates an A100: 200 GB/s effective staging bandwidth,
// 3 µs launch latency.
func DefaultGPU() Config {
	return Config{CopyBandwidth: 200e9, LaunchLat: 3 * time.Microsecond}
}

// GPU is a simulated device. Copies serialize on the copy engine; compute is
// modelled as pure delay scaled by the straggler factor.
type GPU struct {
	eng *sim.Engine
	id  ID

	copyBW    float64
	launchLat time.Duration

	// Fault state.
	hang      bool
	slow      float64 // multiplies compute (and copy) durations; 1 = healthy
	copyScale float64 // multiplies copy bandwidth; 1 = healthy

	copyFree sim.Time // copy-engine serialization pointer
	stalled  []*copyReq
	free     *copyReq // recycled requests, linked through next

	copies      uint64
	bytesStaged uint64
}

// CopyDone receives a staging copy's completion. arg is whatever the caller
// passed to Copy (the CCL passes the chunk index), so one long-lived receiver
// serves every copy of a pipeline without a closure per chunk.
type CopyDone interface {
	CopyDone(arg int32)
}

// copyReq is one staging copy and the receiver of its completion event. It
// returns to the GPU's free list when that event fires; a request stalled by
// a hang is held, not recycled, until it has run.
type copyReq struct {
	g     *GPU
	bytes int64
	done  CopyDone
	arg   int32
	next  *copyReq // the next free request, while this one is free
}

// New creates a GPU on the engine.
func New(eng *sim.Engine, id ID, cfg Config) *GPU {
	if cfg.CopyBandwidth <= 0 {
		panic(fmt.Sprintf("gpusim: non-positive copy bandwidth %v", cfg.CopyBandwidth))
	}
	return &GPU{eng: eng, id: id, copyBW: cfg.CopyBandwidth, launchLat: cfg.LaunchLat, slow: 1, copyScale: 1}
}

// ID returns the GPU id.
func (g *GPU) ID() ID { return g.id }

// Copies returns how many staging copies completed.
func (g *GPU) Copies() uint64 { return g.copies }

// BytesStaged returns the total bytes staged by completed copies.
func (g *GPU) BytesStaged() uint64 { return g.bytesStaged }

// Hung reports whether the copy engine is hung.
func (g *GPU) Hung() bool { return g.hang }

// SlowFactor returns the current compute slowdown (1 = healthy).
func (g *GPU) SlowFactor() float64 { return g.slow }

// SetHang hangs or un-hangs the copy engine. Un-hanging replays stalled
// copies in order.
func (g *GPU) SetHang(h bool) {
	if g.hang == h {
		return
	}
	g.hang = h
	if !h {
		replay := g.stalled
		g.stalled = nil
		if g.copyFree < g.eng.Now() {
			g.copyFree = g.eng.Now()
		}
		for _, r := range replay {
			g.schedule(r)
		}
	}
}

// SetSlowFactor sets the compute slowdown multiplier (must be ≥ 1 for a
// straggler; exactly 1 restores health).
func (g *GPU) SetSlowFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("gpusim: non-positive slow factor %v", f))
	}
	g.slow = f
}

// SetCopyBandwidthScale throttles the staging path (PCIe degrade).
func (g *GPU) SetCopyBandwidthScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("gpusim: non-positive copy scale %v", s))
	}
	g.copyScale = s
}

// Copy stages n bytes into the proxy buffer and calls done.CopyDone(arg) on
// completion (done may be nil). While hung, requests queue silently (the
// gray-failure signature: the proxy's GPU_ready counter simply stops
// advancing).
func (g *GPU) Copy(n int64, done CopyDone, arg int32) {
	if n < 0 {
		panic(fmt.Sprintf("gpusim: negative copy size %d", n))
	}
	r := g.free
	if r == nil {
		r = new(copyReq)
	} else {
		g.free = r.next
	}
	*r = copyReq{g: g, bytes: n, done: done, arg: arg}
	if g.hang {
		g.stalled = append(g.stalled, r)
		return
	}
	g.schedule(r)
}

func (g *GPU) schedule(r *copyReq) {
	start := g.copyFree
	if now := g.eng.Now(); start < now {
		start = now
	}
	start = start.Add(g.launchLat)
	bw := g.copyBW * g.copyScale / g.slow
	dur := time.Duration(float64(r.bytes) / bw * float64(time.Second))
	finish := start.Add(dur)
	g.copyFree = finish
	g.eng.Schedule(finish, r, 0)
}

// Fire implements sim.Handler: the copy finished.
func (r *copyReq) Fire(int32) {
	g, done, arg := r.g, r.done, r.arg
	g.copies++
	g.bytesStaged += uint64(r.bytes)
	r.next, g.free = g.free, r
	if done != nil {
		done.CopyDone(arg)
	}
}

// Compute models a compute phase of nominal duration d, stretched by the
// straggler factor, then fires done with arg. A hung GPU still computes (the
// hang fault targets the copy engine / CUDA stream feeding communication).
func (g *GPU) Compute(d time.Duration, done sim.Handler, arg int32) {
	if d < 0 {
		panic(fmt.Sprintf("gpusim: negative compute duration %v", d))
	}
	g.eng.ScheduleAfter(time.Duration(float64(d)*g.slow), done, arg)
}
