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
// A transfer has two observation points, delivery and completion (CQE), and
// each is one engine event. Transmission progress is counted, not scheduled:
// a NIC serializes its transmissions, so it knows when each will finish the
// moment it is posted, and BytesSent counts what has finished by Now()
// whenever it is read. A black-holed transfer schedules nothing at all.
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

	nextFree sim.Time       // transmit serialization pointer
	pending  []*wr          // WRs accepted while down
	sending  []transmission // transmitted bytes BytesSent has yet to count
	free     *wr            // recycled WRs, linked through next

	counters Counters
}

// transmission is one WR's bytes on the wire, which BytesSent counts from
// finish on. A NIC serializes its transmissions, so finish never decreases
// along NIC.sending and credit takes them off the front.
type transmission struct {
	finish sim.Time
	bytes  int64
	qp     *QP
}

// sendingCap is how many uncounted transmissions a NIC has room for before
// NIC.sending grows: twice the most a self-healing 512-rank job has been seen
// to hold on one NIC (8, when a recovered NIC replays its parked WRs), so the
// queue is sized once, when the NIC is built.
const sendingCap = 16

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
		sending: make([]transmission, 0, sendingCap),
	}
}

// ID returns the NIC id.
func (n *NIC) ID() NICID { return n.id }

// Name returns the NIC's human-readable name.
func (n *NIC) Name() string { return n.name }

// Counters returns a snapshot of the NIC's counters. BytesSent covers every
// transmission that finished by Now().
func (n *NIC) Counters() Counters {
	n.credit()
	return n.counters
}

// credit counts the bytes of every transmission that finished by Now().
func (n *NIC) credit() {
	now := n.eng.Now()
	i := 0
	for ; i < len(n.sending) && n.sending[i].finish <= now; i++ {
		s := &n.sending[i]
		n.counters.BytesSent += uint64(s.bytes)
		s.qp.bytesSent += uint64(s.bytes)
	}
	if i > 0 {
		n.sending = n.sending[:copy(n.sending, n.sending[i:])]
	}
}

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

// Completion receives the two observation points of one transfer, in
// temporal order. arg is whatever the sender passed with the transfer (the
// CCL passes the chunk index), so one long-lived receiver observes every
// transfer of a flow without a closure per chunk. A nil Completion observes
// nothing. The end of transmission is not an observation point: it schedules
// no event, and NIC.Counters and QP.BytesSent count it.
type Completion interface {
	// OnDeliver fires when the data lands at the receiver.
	OnDeliver(arg int32)
	// OnCQE fires when the sender polls the completion-queue entry.
	OnCQE(arg int32)
}

// funcs adapts plain funcs to Completion for callers off the per-chunk path
// (PostWrite, tests). Either may be nil.
type funcs struct{ deliver, cqe func() }

func (f *funcs) OnDeliver(int32) { call(f.deliver) }
func (f *funcs) OnCQE(int32)     { call(f.cqe) }

func call(fn func()) {
	if fn != nil {
		fn()
	}
}

// The stages of a transfer, as the engine-event argument.
const (
	stageDeliver int32 = iota
	stageCQE
)

// wr is an in-flight work request and the receiver of its own two engine
// events. It returns to its NIC's free list when the last of them has fired,
// or at once if it is black-holed and schedules none.
type wr struct {
	qp    *QP
	bytes int64
	done  Completion
	arg   int32
	next  *wr // the next free WR, while this one is free
}

// put returns w to n's free list. Nothing scheduled may still refer to it.
func (n *NIC) put(w *wr) { w.next, n.free = n.free, w }

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

// BytesSent returns the bytes for which transmission finished by Now().
func (q *QP) BytesSent() uint64 {
	q.src.credit()
	return q.bytesSent
}

func (q *QP) String() string { return fmt.Sprintf("qp%d(%s->%s)", q.id, q.src.name, q.dst.name) }

// Post posts an RDMA write of n bytes; done observes its delivery and
// completion with arg.
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
	w := nic.free
	if w == nil {
		w = new(wr)
	} else {
		nic.free = w.next
	}
	*w = wr{qp: q, bytes: n, done: done, arg: arg}
	if nic.down {
		nic.pending = append(nic.pending, w)
		return
	}
	nic.transmit(w)
}

// PostWrite is a convenience wrapper over Post for callers that want plain
// funcs.
func (q *QP) PostWrite(n int64, onDelivered, onCQE func()) {
	q.Post(n, &funcs{deliver: onDelivered, cqe: onCQE}, 0)
}

// transmit serializes w on the NIC, queues its bytes for BytesSent at the
// instant transmission finishes, and schedules delivery and CQE.
func (n *NIC) transmit(w *wr) {
	n.credit()
	start := n.nextFree
	if now := n.eng.Now(); start < now {
		start = now
	}
	start = start.Add(n.wrSetup)
	goodput := n.bw * n.bwScale * (1 - n.loss)
	dur := time.Duration(float64(w.bytes) / goodput * float64(time.Second))
	finish := start.Add(dur)
	n.nextFree = finish
	n.sending = append(n.sending, transmission{finish: finish, bytes: w.bytes, qp: w.qp})

	if n.wireLoss {
		n.put(w) // data vanishes on the wire: no delivery, no CQE
		return
	}
	n.eng.Schedule(finish.Add(n.propLat), w, stageDeliver)
	n.eng.Schedule(finish.Add(2*n.propLat), w, stageCQE)
}

// Fire implements sim.Handler: one stage of the transfer.
func (w *wr) Fire(stage int32) {
	q, done, arg := w.qp, w.done, w.arg
	n := q.src
	if stage == stageDeliver {
		n.credit()
		if done != nil {
			done.OnDeliver(arg)
		}
		return
	}
	n.counters.WRsCompleted++
	n.counters.BytesAcked += uint64(w.bytes)
	q.completed++
	n.put(w)
	if done != nil {
		done.OnCQE(arg)
	}
}

// Link is an abstract point-to-point transport. RDMA QPs and intra-node
// NVLink paths both satisfy it, so the CCL can pipeline over either.
type Link interface {
	// Send moves n bytes, reporting the deliver and CQE stages to done with
	// arg.
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
	free     *nvSend // recycled transfers, linked through next
}

// nvSend is one NVLink transfer and the receiver of its one engine event.
type nvSend struct {
	l    *NVLink
	done Completion
	arg  int32
	next *nvSend // the next free transfer, while this one is free
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

// Send implements Link. NVLink transfers report both stages at the delivery
// instant (there is no separate ACK path on the fabric).
func (l *NVLink) Send(n int64, done Completion, arg int32) {
	start := l.nextFree
	if now := l.eng.Now(); start < now {
		start = now
	}
	dur := time.Duration(float64(n) / (l.bw * l.scale) * float64(time.Second))
	finish := start.Add(dur)
	l.nextFree = finish
	s := l.free
	if s == nil {
		s = new(nvSend)
	} else {
		l.free = s.next
	}
	*s = nvSend{l: l, done: done, arg: arg}
	l.eng.Schedule(finish.Add(l.lat), s, stageDeliver)
}

// Fire implements sim.Handler: delivery and completion together.
func (s *nvSend) Fire(int32) {
	done, arg := s.done, s.arg
	s.next, s.l.free = s.l.free, s
	if done != nil {
		done.OnDeliver(arg)
		done.OnCQE(arg)
	}
}

// Describe implements Link.
func (l *NVLink) Describe() (int, string) { return l.id, "nvlink" }
