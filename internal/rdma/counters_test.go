package rdma

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mycroft/internal/sim"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden")

// counterRig is the two-NIC setup TestCountersGolden drives: three QPs from
// the first NIC to the second and one back.
type counterRig struct {
	eng  *sim.Engine
	nics [2]*NIC
	qps  []*QP
}

// newCounterRig schedules the seeded program on a fresh engine: 160
// mixed-size posts over 5 ms, and every fault hook switched on and off again
// on either NIC while transmissions are in flight. The program ends with both
// NICs healthy, so every accepted WR eventually completes or vanishes.
// onDeliver, if not nil, observes every delivery.
func newCounterRig(seed int64, onDeliver func()) *counterRig {
	eng := sim.NewEngine(1)
	a := NewNIC(eng, 0, "a", DefaultNIC())
	b := NewNIC(eng, 1, "b", DefaultNIC())
	r := &counterRig{eng: eng, nics: [2]*NIC{a, b}}
	r.qps = []*QP{NewQP(0, a, b), NewQP(1, a, b), NewQP(2, a, b), NewQP(3, b, a)}

	rng := rand.New(rand.NewSource(seed))
	const horizon = 5 * time.Millisecond
	sizes := []int64{512, 4 << 10, 64 << 10, 1 << 20, 4 << 20}
	for i := 0; i < 160; i++ {
		q := r.qps[rng.Intn(len(r.qps))]
		n := sizes[rng.Intn(len(sizes))] + rng.Int63n(4096)
		eng.After(time.Duration(rng.Int63n(int64(horizon))), func() { q.PostWrite(n, onDeliver, nil) })
	}
	for i := 0; i < 12; i++ {
		nic := r.nics[rng.Intn(2)]
		from := time.Duration(rng.Int63n(int64(horizon)))
		to := from + time.Duration(rng.Int63n(int64(time.Millisecond)))
		scale, loss := 0.25+0.75*rng.Float64(), 0.5*rng.Float64()
		var on, off func()
		switch i % 4 {
		case 0:
			on, off = func() { nic.SetDown(true) }, func() { nic.SetDown(false) }
		case 1:
			on, off = func() { nic.SetWireLoss(true) }, func() { nic.SetWireLoss(false) }
		case 2:
			on, off = func() { nic.SetBandwidthScale(scale) }, func() { nic.SetBandwidthScale(1) }
		case 3:
			on, off = func() { nic.SetLossRate(loss) }, func() { nic.SetLossRate(0) }
		}
		eng.After(from, on)
		eng.After(to, off)
	}
	return r
}

// read writes one line: every NIC's and every QP's counters.
func (r *counterRig) read(out *bytes.Buffer, label string) {
	out.WriteString(label)
	for _, n := range r.nics {
		c := n.Counters()
		fmt.Fprintf(out, " %s=%d/%d/%d/%d", n.Name(), c.WRsPosted, c.WRsCompleted, c.BytesSent, c.BytesAcked)
	}
	for _, q := range r.qps {
		fmt.Fprintf(out, " q%d=%d/%d/%d", q.ID(), q.Posted(), q.Completed(), q.BytesSent())
	}
	out.WriteByte('\n')
}

// TestCountersGolden pins what the NIC and QP counters read at ~200 instants
// of a seeded program: random instants, the exact instant some WRs finish
// transmitting, and instants between a WR's finish and its delivery. The
// program runs twice: the first run only learns the delivery instants (a
// delivered WR finished transmitting one propagation latency earlier), the
// second reads the counters there. The file was recorded while transmit
// progress was an engine event of its own and has not been regenerated since:
// a diff here means BytesSent no longer counts exactly what finished by Now().
func TestCountersGolden(t *testing.T) {
	const seed = 7
	propLat := DefaultNIC().PropLat

	var finishes []sim.Time
	var learn *counterRig
	learn = newCounterRig(seed, func() { finishes = append(finishes, learn.eng.Now().Add(-propLat)) })
	learn.eng.Run()
	if len(finishes) < 100 {
		t.Fatalf("only %d WRs delivered", len(finishes))
	}

	rng := rand.New(rand.NewSource(seed))
	var instants []sim.Time
	for i := 0; i < 80; i++ {
		instants = append(instants, sim.Time(rng.Int63n(int64(10*time.Millisecond))))
	}
	for i := 0; i < 60; i++ {
		f := finishes[rng.Intn(len(finishes))]
		instants = append(instants, f, f.Add(propLat/2))
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i] < instants[j] })

	var out bytes.Buffer
	rig := newCounterRig(seed, nil)
	for _, at := range instants {
		rig.eng.RunUntil(at)
		rig.read(&out, fmt.Sprintf("@%d", int64(at)))
	}
	rig.eng.Run()
	rig.read(&out, "end")

	const path = "testdata/counters.golden"
	if *updateCounters {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(exp) || got[i] != exp[i] {
			wantLine := "(end of file)"
			if i < len(exp) {
				wantLine = exp[i]
			}
			t.Fatalf("counters drifted from %s at line %d:\n got  %s\n want %s", path, i+1, got[i], wantLine)
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("counters are a prefix of %s: %d lines, want %d", path, len(got), len(exp))
	}
}
