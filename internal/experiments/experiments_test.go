package experiments

import (
	"strings"
	"testing"
	"time"

	"mycroft/internal/baseline"
	"mycroft/internal/faults"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

func TestTableFormatting(t *testing.T) {
	s := Table([]string{"a", "long-header"}, [][]string{{"xxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table = %q", s)
	}
	if !strings.HasPrefix(lines[0], "a    long-header") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestHelpers(t *testing.T) {
	if dur(0) != "-" || dur(1500*time.Millisecond) != "1.5s" {
		t.Fatal("dur helper wrong")
	}
	if yn(true) != "yes" || mark(false) != "x" {
		t.Fatal("yn/mark wrong")
	}
	if gbps(50e9) != "50.0 GB/s" {
		t.Fatalf("gbps = %q", gbps(50e9))
	}
}

func TestRunCaseNICDown(t *testing.T) {
	c := RunCase(1, topo.Small(), faults.Spec{Kind: faults.NICDown, Rank: 5}, 15*time.Second, 40*time.Second)
	if c.Trigger == nil || c.Report == nil {
		t.Fatalf("case = %+v", c)
	}
	if c.Suspect != faults.SuspectExact || !c.RightCategory || c.Diagnosed != c.Report {
		t.Fatalf("verdict wrong: %+v report=%v", c, c.Report)
	}
	if c.TriggerAfter <= 0 || c.TriggerAfter > 15*time.Second {
		t.Fatalf("detect latency = %v", c.TriggerAfter)
	}
	if c.ReportAfter < c.TriggerAfter {
		t.Fatalf("RCA before detection: %v < %v", c.ReportAfter, c.TriggerAfter)
	}
}

// TestRunCaseIgnoresPreFaultVerdicts: at 64 ranks the backend fires and
// blames a rank during warm-up, before any fault exists. That verdict is
// spurious, not the case's detection — RunCase must score the first firing
// and report at or after the injection.
func TestRunCaseIgnoresPreFaultVerdicts(t *testing.T) {
	c := RunCase(1, matrixTopo, faults.Spec{Kind: faults.NICDown, Rank: 0}, 15*time.Second, 30*time.Second)
	if c.Trigger == nil || c.Report == nil {
		t.Fatalf("nothing fired after the fault: %+v", c)
	}
	if at := sim.Time(c.Spec.At); c.Trigger.At < at || c.Report.AnalyzedAt < at {
		t.Fatalf("scored a verdict from before the fault at %v: trigger %v, report %v", at, c.Trigger, c.Report)
	}
	if c.Report.Suspect != 0 || len(c.Spurious) == 0 {
		t.Fatalf("first post-fault report %v, spurious %v; want rank 0 and the warm-up verdict counted spurious", c.Report, c.Spurious)
	}
}

func TestE1Capability(t *testing.T) {
	r := RunE1(1)
	if len(r.Static) != 4 || len(r.Dynamic) != 8 {
		t.Fatalf("shape = %d static, %d dynamic", len(r.Static), len(r.Dynamic))
	}
	// Mycroft must detect and localize both faults; op-level neither
	// localizes.
	for _, row := range r.Dynamic {
		design, detected, localized := row[1], row[2], row[3]
		if design == string(baseline.Coll) && (detected != "yes" || localized != "yes") {
			t.Fatalf("mycroft row = %v", row)
		}
		if design == string(baseline.OpLevel) && localized == "yes" {
			t.Fatalf("op-level localized: %v", row)
		}
	}
	if !strings.Contains(r.Table(), "Table 1") {
		t.Fatal("table render broken")
	}
}

func TestE1KernelVsRDMAAsymmetry(t *testing.T) {
	r := RunE1(1)
	// Kernel-level (GPU events only) should localize the GPU hang; the
	// RDMA-level tracer should localize the NIC fault. The matrix must show
	// at least one localization from each partial design to demonstrate the
	// complementary blind spots.
	byKey := map[string]string{}
	for _, row := range r.Dynamic {
		byKey[row[0]+"/"+row[1]] = row[3]
	}
	if byKey[string(faults.GPUHang)+"/"+string(baseline.KernelLevel)] != "yes" {
		t.Fatalf("kernel tracer missed GPU hang: %v", byKey)
	}
	if byKey[string(faults.NICDown)+"/"+string(baseline.RDMALevel)] != "yes" {
		t.Fatalf("rdma tracer missed NIC down: %v", byKey)
	}
}

func TestE2SmallCampaign(t *testing.T) {
	r := RunE2(1)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1] != "1/1" {
			t.Fatalf("fault %s not detected: %v", row[0], row)
		}
		if row[3] != "1/1" {
			t.Fatalf("fault %s not localized: %v", row[0], row)
		}
	}
	if !strings.Contains(r.Table(), "fault injection") {
		t.Fatal("table broken")
	}
}

func TestE3CampaignMeetsPaperShape(t *testing.T) {
	r := RunE3(14) // two per fault class
	if r.Misses != 0 {
		t.Fatalf("%d/%d undetected", r.Misses, r.Runs)
	}
	if got := r.Detect.FractionBelow(15); got < 0.9 {
		t.Fatalf("detection <15s fraction = %.2f, want ≥0.9 (paper: 90%%)", got)
	}
	if got := r.RCA.FractionBelow(20); got < 0.6 {
		t.Fatalf("RCA <20s fraction = %.2f, want ≥0.6 (paper: 60%%)", got)
	}
	if !strings.Contains(r.Table(), "CDF") {
		t.Fatal("table broken")
	}
}

func TestE4OverheadShape(t *testing.T) {
	r := RunE4(1)
	base := r.BusBW[baseline.None]
	if base <= 0 {
		t.Fatal("no baseline bandwidth")
	}
	// Mycroft within a few percent of no-tracing.
	if r.BusBW[baseline.Coll] < 0.97*base {
		t.Fatalf("mycroft bw %.3g vs base %.3g", r.BusBW[baseline.Coll], base)
	}
	// Kernel-level loses roughly two thirds (accept 50–85%).
	loss := 1 - r.BusBW[baseline.KernelLevel]/base
	if loss < 0.5 || loss > 0.85 {
		t.Fatalf("kernel-level bw loss = %.2f, want ≈2/3", loss)
	}
	if !strings.Contains(r.Table(), "overhead") {
		t.Fatal("table broken")
	}
}

func TestE5PropagationShape(t *testing.T) {
	r := RunE5([]int{8, 32})
	p8, p32 := r.Propagation[8], r.Propagation[32]
	if p8 <= 0 || p32 <= 0 {
		t.Fatalf("propagation = %v / %v", p8, p32)
	}
	// Cluster-wide within a second (paper: a few hundred ms), growing with
	// scale.
	if p32 > time.Second {
		t.Fatalf("32-rank propagation = %v, want sub-second", p32)
	}
	if p32 < p8 {
		t.Fatalf("propagation shrank with scale: %v < %v", p32, p8)
	}
}

func TestE6VolumeShape(t *testing.T) {
	r := RunE6(1)
	if r.MycroftPerGPU <= 0 || r.KernelPerGPU <= 0 {
		t.Fatal("no volume measured")
	}
	// Mycroft's design point is single-digit TB/day at 10k GPUs; the
	// kernel-level firehose is at least an order of magnitude above it.
	if r.Mycroft10kTBpd > 10 {
		t.Fatalf("mycroft volume = %.1f TB/day, want single digits", r.Mycroft10kTBpd)
	}
	if r.KernelPerGPU < 5*r.MycroftPerGPU {
		t.Fatalf("kernel %.0f B/s not ≫ mycroft %.0f B/s", r.KernelPerGPU, r.MycroftPerGPU)
	}
}

func TestE7SamplingEquivalence(t *testing.T) {
	r := RunE7(1)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] == "-" {
			t.Fatalf("policy %q failed to detect: %v", row[0], row)
		}
		if row[3] != "yes" {
			t.Fatalf("policy %q failed to localize: %v", row[0], row)
		}
	}
}

func TestE8ThresholdTradeoff(t *testing.T) {
	r := RunE8(1)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The 1s (paper default) row must detect the true straggler with the
	// correct verdict and at most as many false positives as the tight row.
	var tight, def []string
	for _, row := range r.Rows {
		switch row[0] {
		case "200ms":
			tight = row
		case "1s":
			def = row
		}
	}
	if def == nil || tight == nil {
		t.Fatalf("rows missing: %v", r.Rows)
	}
	if def[2] != "yes" || def[3] != "yes" {
		t.Fatalf("1s threshold failed on true straggler: %v", def)
	}
	if tight[1] < def[1] {
		t.Fatalf("tight threshold has fewer false positives than default: %v vs %v", tight, def)
	}
}

func TestE9TriageRouting(t *testing.T) {
	r := RunE9(1)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[3] != "yes" {
			t.Fatalf("triage scenario %q misrouted: %v", row[0], row)
		}
	}
}
