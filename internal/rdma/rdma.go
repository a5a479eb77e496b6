// Package rdma simulates the RDMA data plane that NCCL-style collective
// communication rides on: RNICs with finite bandwidth, queue pairs (QPs)
// between them, work requests (WRs) and completion-queue entries (CQEs).
//
// The model is intentionally at the granularity Mycroft observes (§3 of the
// paper): per-flow (QP) transmission progress and completion signals. It
// reproduces the fault signatures that matter for root-cause analysis:
//
//   - NIC down: WRs are accepted but neither deliver nor complete until the
//     NIC recovers (gray failure — nothing errors out).
//   - bandwidth degradation: transmissions serialize at a fraction of the
//     nominal rate.
//   - packet loss: goodput inflates by the retransmission factor.
//   - link flap: a timed down/up cycle.
//
// All state lives on a sim.Engine; the package is deterministic.
package rdma

import (
	"fmt"
	"time"

	"mycroft/internal/sim"
)

// NICID identifies an RNIC.
type NICID int

// Counters aggregates per-NIC statistics, exposed for RDMA-level tracers
// (the Aegis-style baseline) and tests.
type Counters struct {
	WRsPosted    uint64
	WRsCompleted uint64
	BytesSent    uint64
	BytesAcked   uint64
}

// NIC is a simulated RNIC. A NIC serializes its outbound transmissions:
// concurrent WRs queue behind one another, which is how congestion between
// flows sharing a NIC arises.
type NIC struct {
	eng  *sim.Engine
	id   NICID
	name string

	// Nominal performance.
	bw      float64       // bytes/second at full health
	propLat time.Duration // one-way propagation latency
	wrSetup time.Duration // per-WR doorbell/DMA setup cost

	// Mutable health state (fault hooks).
	down     bool
	bwScale  float64
	loss     float64 // packet loss probability in [0, 1)
	wireLoss bool    // bytes leave the NIC but never arrive nor ack

	nextFree sim.Time // transmit serialization pointer
	pending  []*wr    // WRs accepted while down
	free     sim.FreeList[wr]

	counters Counters
}

// NICConfig sets a NIC's nominal characteristics.
type NICConfig struct {
	Bandwidth float64       // bytes/second (e.g. 50e9 for 400 Gbps)
	PropLat   time.Duration // one-way latency
	WRSetup   time.Duration // fixed per-WR cost
}

// DefaultNIC is a 400 Gbps RNIC with 5 µs one-way latency, matching the
// paper's testbed NICs.
func DefaultNIC() NICConfig {
	return NICConfig{Bandwidth: 50e9, PropLat: 5 * time.Microsecond, WRSetup: 1 * time.Microsecond}
}

// NewNIC creates a NIC on the engine.
func NewNIC(eng *sim.Engine, id NICID, name string, cfg NICConfig) *NIC {
	if cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("rdma: non-positive bandwidth %v", cfg.Bandwidth))
	}
	return &NIC{
		eng: eng, id: id, name: name,
		bw: cfg.Bandwidth, propLat: cfg.PropLat, wrSetup: cfg.WRSetup,
		bwScale: 1,
	}
}

// ID returns the NIC id.
func (n *NIC) ID() NICID { return n.id }

// Name returns the NIC's human-readable name.
func (n *NIC) Name() string { return n.name }

// Counters returns a snapshot of the NIC's counters.
func (n *NIC) Counters() Counters { return n.counters }

// Down reports whether the NIC is currently down.
func (n *NIC) Down() bool { return n.down }

// BandwidthScale returns the current throttle factor.
func (n *NIC) BandwidthScale() float64 { return n.bwScale }

// SetDown takes the NIC down or brings it back up. Recovering replays WRs
// accepted while down, in order.
func (n *NIC) SetDown(down bool) {
	if n.down == down {
		return
	}
	n.down = down
	if !down {
		replay := n.pending
		n.pending = nil
		if n.nextFree < n.eng.Now() {
			n.nextFree = n.eng.Now()
		}
		for _, w := range replay {
			n.transmit(w)
		}
	}
}

// FlapFor takes the NIC down now and back up after d.
func (n *NIC) FlapFor(d time.Duration) {
	n.SetDown(true)
	n.eng.After(d, func() { n.SetDown(false) })
}

// SetBandwidthScale throttles (or restores) the NIC. scale must be > 0.
func (n *NIC) SetBandwidthScale(scale float64) {
	if scale <= 0 {
		panic(fmt.Sprintf("rdma: non-positive bandwidth scale %v", scale))
	}
	n.bwScale = scale
}

// SetLossRate sets the packet loss probability (goodput inflates by
// 1/(1-loss), modelling go-back-N retransmission cost).
func (n *NIC) SetLossRate(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("rdma: loss rate %v out of [0,1)", p))
	}
	n.loss = p
}

// SetWireLoss makes transmissions black-hole after leaving the NIC: the
// sender observes normal transmit progress (RDMA_transmitted advances) but
// data never delivers and no CQE ever arrives (RDMA_done stalls). This is the
// link/remote-failure signature of the root-cause table, distinct from a
// local NIC-down where nothing transmits at all.
func (n *NIC) SetWireLoss(on bool) { n.wireLoss = on }

// WireLoss reports whether the black-hole fault is active.
func (n *NIC) WireLoss() bool { return n.wireLoss }

// Completion receives the three observation points of one transfer, in
// temporal order. arg is whatever the sender passed with the transfer (the
// CCL passes the chunk index), so one long-lived receiver observes every
// transfer of a flow without a closure per chunk. A nil Completion observes
// nothing.
type Completion interface {
	// OnTransmit fires when the sender NIC finished pushing the bytes onto
	// the wire (this is what the proxy's RDMA_transmitted counter observes).
	OnTransmit(arg int32)
	// OnDeliver fires when the data lands at the receiver.
	OnDeliver(arg int32)
	// OnCQE fires when the sender polls the completion-queue entry.
	OnCQE(arg int32)
}

// funcs adapts plain funcs to Completion for callers off the per-chunk path
// (PostWrite, tests). Any may be nil.
type funcs struct{ transmit, deliver, cqe func() }

func (f *funcs) OnTransmit(int32) { call(f.transmit) }
func (f *funcs) OnDeliver(int32)  { call(f.deliver) }
func (f *funcs) OnCQE(int32)      { call(f.cqe) }

func call(fn func()) {
	if fn != nil {
		fn()
	}
}

// The stages of a transfer, as the engine-event argument.
const (
	stageTransmit int32 = iota
	stageDeliver
	stageCQE
)

// wr is an in-flight work request and the receiver of its own three engine
// events. It returns to its NIC's free list when the last of them has fired.
type wr struct {
	qp        *QP
	bytes     int64
	done      Completion
	arg       int32
	blackHole bool // transmit is the last event: nothing delivers or completes
}

// QP is a queue pair: a unidirectional flow from a source NIC to a
// destination NIC (NCCL opens one or more QPs per channel per peer).
type QP struct {
	id  int
	src *NIC
	dst *NIC

	posted    uint64
	completed uint64
	bytesSent uint64
}

// NewQP connects src to dst. The id is carried into trace metadata (QP_id in
// Table 2).
func NewQP(id int, src, dst *NIC) *QP {
	return &QP{id: id, src: src, dst: dst}
}

// ID returns the QP id.
func (q *QP) ID() int { return q.id }

// Src returns the source NIC.
func (q *QP) Src() *NIC { return q.src }

// Dst returns the destination NIC.
func (q *QP) Dst() *NIC { return q.dst }

// Posted returns the number of WRs posted on this QP.
func (q *QP) Posted() uint64 { return q.posted }

// Completed returns the number of CQEs delivered for this QP.
func (q *QP) Completed() uint64 { return q.completed }

// BytesSent returns the bytes for which transmission finished.
func (q *QP) BytesSent() uint64 { return q.bytesSent }

func (q *QP) String() string { return fmt.Sprintf("qp%d(%s->%s)", q.id, q.src.name, q.dst.name) }

// Post posts an RDMA write of n bytes; done observes its transmit, delivery
// and completion with arg.
//
// If the source NIC is down the WR is queued and will transmit after
// recovery — exactly the silent-stall gray failure of §2.1: the post
// "succeeds" and nothing errors out.
func (q *QP) Post(n int64, done Completion, arg int32) {
	if n < 0 {
		panic(fmt.Sprintf("rdma: negative write size %d", n))
	}
	q.posted++
	nic := q.src
	nic.counters.WRsPosted++
	w := nic.free.Get()
	*w = wr{qp: q, bytes: n, done: done, arg: arg}
	if nic.down {
		nic.pending = append(nic.pending, w)
		return
	}
	nic.transmit(w)
}

// PostWrite is a convenience wrapper over Post for callers that want plain
// funcs and do not need the transmit stage.
func (q *QP) PostWrite(n int64, onDelivered, onCQE func()) {
	q.Post(n, &funcs{deliver: onDelivered, cqe: onCQE}, 0)
}

// transmit serializes w on the NIC and schedules transmit/delivery/CQE.
func (n *NIC) transmit(w *wr) {
	start := n.nextFree
	if now := n.eng.Now(); start < now {
		start = now
	}
	start = start.Add(n.wrSetup)
	goodput := n.bw * n.bwScale * (1 - n.loss)
	dur := time.Duration(float64(w.bytes) / goodput * float64(time.Second))
	finish := start.Add(dur)
	n.nextFree = finish
	w.blackHole = n.wireLoss

	n.eng.Schedule(finish, w, stageTransmit)
	if w.blackHole {
		return // data vanishes on the wire: no delivery, no CQE
	}
	n.eng.Schedule(finish.Add(n.propLat), w, stageDeliver)
	n.eng.Schedule(finish.Add(2*n.propLat), w, stageCQE)
}

// Fire implements sim.Handler: one stage of the transfer.
func (w *wr) Fire(stage int32) {
	q, done, arg := w.qp, w.done, w.arg
	n := q.src
	switch stage {
	case stageTransmit:
		// Transmission finished at the sender; bytes leave the wire propLat later.
		n.counters.BytesSent += uint64(w.bytes)
		q.bytesSent += uint64(w.bytes)
		if w.blackHole {
			n.free.Put(w)
		}
		if done != nil {
			done.OnTransmit(arg)
		}
	case stageDeliver:
		if done != nil {
			done.OnDeliver(arg)
		}
	case stageCQE:
		n.counters.WRsCompleted++
		n.counters.BytesAcked += uint64(w.bytes)
		q.completed++
		n.free.Put(w)
		if done != nil {
			done.OnCQE(arg)
		}
	}
}

// Link is an abstract point-to-point transport. RDMA QPs and intra-node
// NVLink paths both satisfy it, so the CCL can pipeline over either.
type Link interface {
	// Send moves n bytes, reporting the transmit/deliver/CQE stages to done
	// with arg.
	Send(n int64, done Completion, arg int32)
	// Describe returns trace metadata for this flow.
	Describe() (qpID int, kind string)
}

// qpLink adapts QP to Link.
type qpLink struct{ qp *QP }

// AsLink exposes the QP as a generic Link.
func (q *QP) AsLink() Link { return qpLink{q} }

func (l qpLink) Send(n int64, done Completion, arg int32) { l.qp.Post(n, done, arg) }
func (l qpLink) Describe() (int, string)                  { return l.qp.id, "rdma" }

// NVLink is a dedicated intra-node path between two GPUs: full bandwidth per
// pair, no NIC contention. It shares the QP fault hooks shape where relevant
// (an NVLink can degrade too, though the paper's faults are NIC/GPU-side).
type NVLink struct {
	eng      *sim.Engine
	id       int
	bw       float64
	lat      time.Duration
	nextFree sim.Time
	scale    float64
	free     sim.FreeList[nvSend]
}

// nvSend is one NVLink transfer and the receiver of its two engine events.
type nvSend struct {
	l    *NVLink
	done Completion
	arg  int32
}

// NewNVLink creates an intra-node link (default A100-class: 200 GB/s,
// 1 µs latency).
func NewNVLink(eng *sim.Engine, id int, bw float64, lat time.Duration) *NVLink {
	if bw <= 0 {
		panic("rdma: non-positive nvlink bandwidth")
	}
	return &NVLink{eng: eng, id: id, bw: bw, lat: lat, scale: 1}
}

// SetBandwidthScale throttles the link.
func (l *NVLink) SetBandwidthScale(s float64) {
	if s <= 0 {
		panic("rdma: non-positive nvlink scale")
	}
	l.scale = s
}

// Send implements Link. NVLink transfers report all three stages at the
// completion instant (there is no separate ACK path on the fabric).
func (l *NVLink) Send(n int64, done Completion, arg int32) {
	start := l.nextFree
	if now := l.eng.Now(); start < now {
		start = now
	}
	dur := time.Duration(float64(n) / (l.bw * l.scale) * float64(time.Second))
	finish := start.Add(dur)
	l.nextFree = finish
	s := l.free.Get()
	*s = nvSend{l: l, done: done, arg: arg}
	l.eng.Schedule(finish, s, stageTransmit)
	l.eng.Schedule(finish.Add(l.lat), s, stageDeliver)
}

// Fire implements sim.Handler: transmit, then delivery and completion
// together.
func (s *nvSend) Fire(stage int32) {
	done, arg := s.done, s.arg
	if stage == stageTransmit {
		if done != nil {
			done.OnTransmit(arg)
		}
		return
	}
	s.l.free.Put(s)
	if done != nil {
		done.OnDeliver(arg)
		done.OnCQE(arg)
	}
}

// Describe implements Link.
func (l *NVLink) Describe() (int, string) { return l.id, "nvlink" }
