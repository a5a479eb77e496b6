package logdiag

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"mycroft/internal/core"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

func at(d time.Duration) sim.Time { return sim.Time(d) }

func TestTemplateClustering(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"NIC rnic5 down: send queue stalled", "NIC rnic12 down: send queue stalled", true},
		{"iteration 100 done in 2.5s", "iteration 2000 done in 2.7s", true},
		{"NIC rnic5 down", "GPU gpu5 hang", false},
		{"dataloader fetch ok", "dataloader fetch ok", true},
	}
	for _, c := range cases {
		sa, sb := TemplateOf(c.a), TemplateOf(c.b)
		if (sa == sb) != c.same {
			t.Errorf("TemplateOf(%q)=%q vs TemplateOf(%q)=%q, same=%v want %v", c.a, sa, c.b, sb, sa == sb, c.same)
		}
		if (TemplateID(sa) == TemplateID(sb)) != c.same {
			t.Errorf("TemplateID mismatch for %q vs %q", c.a, c.b)
		}
	}
}

func TestDetectorFlagsLocalizedErrorSpike(t *testing.T) {
	d := New(8, Config{})
	// Fleet-wide info chatter: every rank logs an iteration line each second.
	for sec := 0; sec < 12; sec++ {
		for r := 0; r < 8; r++ {
			d.Ingest(Line{Rank: topo.Rank(r), At: at(time.Duration(sec) * time.Second),
				Level: "info", Text: fmt.Sprintf("iteration %d done in 2.5s", sec)})
		}
	}
	// Rank 5 spikes an error template.
	for i := 0; i < 6; i++ {
		d.Ingest(Line{Rank: 5, At: at(time.Duration(6+i) * time.Second),
			Level: "error", Text: fmt.Sprintf("NIC rnic5 down: send queue stalled wr=%d", i)})
	}
	got := d.Analyze(at(12 * time.Second))
	if len(got) != 1 {
		t.Fatalf("Analyze = %d anomalies (%v), want exactly 1", len(got), got)
	}
	a := got[0]
	if a.Rank != 5 {
		t.Errorf("dominant rank = %d, want 5", a.Rank)
	}
	if a.Category != core.CatNetworkSendPath {
		t.Errorf("category = %s, want %s", a.Category, core.CatNetworkSendPath)
	}
	if a.Level != "error" {
		t.Errorf("level = %s, want error", a.Level)
	}
	if a.Score <= 0 || a.Score > 1 {
		t.Errorf("score = %v, want (0,1]", a.Score)
	}
}

func TestDetectorIgnoresFleetWideSpike(t *testing.T) {
	d := New(8, Config{})
	// Every rank logs the same warn template: a phase change, not a fault.
	for sec := 0; sec < 10; sec++ {
		for r := 0; r < 8; r++ {
			d.Ingest(Line{Rank: topo.Rank(r), At: at(time.Duration(sec) * time.Second),
				Level: "warn", Text: "gradient allreduce retry busy"})
		}
	}
	if got := d.Analyze(at(10 * time.Second)); len(got) != 0 {
		t.Fatalf("fleet-wide template flagged: %v", got)
	}
}

func TestDetectorWindowExpiry(t *testing.T) {
	d := New(4, Config{})
	for i := 0; i < 6; i++ {
		d.Ingest(Line{Rank: 1, At: at(time.Duration(i) * time.Second), Level: "error", Text: "GPU xid 79 error"})
	}
	if got := d.Analyze(at(6 * time.Second)); len(got) == 0 {
		t.Fatal("fresh spike not flagged")
	}
	// 30 s later the window is empty: the anomaly must have aged out.
	if got := d.Analyze(at(36 * time.Second)); len(got) != 0 {
		t.Fatalf("expired spike still flagged: %v", got)
	}
}

func TestDetectorDeterministicOrder(t *testing.T) {
	mk := func() []Anomaly {
		d := New(8, Config{})
		for i := 0; i < 5; i++ {
			d.Ingest(Line{Rank: 2, At: at(time.Duration(i) * time.Second), Level: "error", Text: "NIC rnic2 link flap"})
			d.Ingest(Line{Rank: 6, At: at(time.Duration(i) * time.Second), Level: "error", Text: "GPU gpu6 xid 79"})
		}
		return d.Analyze(at(5 * time.Second))
	}
	a, b := mk(), mk()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("want 2 anomalies, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TemplateID != b[i].TemplateID || a[i].Rank != b[i].Rank {
			t.Fatalf("analysis order not deterministic: %v vs %v", a, b)
		}
	}
}

func TestMapCategory(t *testing.T) {
	cases := []struct {
		text string
		want core.Category
	}{
		{"NIC <*> down: send queue stalled", core.CatNetworkSendPath},
		{"rdma qp <*> timeout retry exceeded", core.CatNetworkSendPath},
		{"port <*> bandwidth throttled to <*>", core.CatNetworkDegrade},
		{"GPU <*> xid <*> fatal", core.CatGPUHang},
		{"cuda launch failure on device <*>", core.CatGPUHang},
		{"pcie link width degraded to x<*>", core.CatPCIeDegrade},
		{"proxy thread exited unexpectedly", core.CatProxyCrash},
		{"dataloader worker <*> stuck", core.CatNotLaunched},
		{"compute step running slow on rank <*>", core.CatComputeStraggler},
		{"mysterious flux capacitor event", core.CatUnknown},
	}
	for _, c := range cases {
		if got := MapCategory(c.text); got != c.want {
			t.Errorf("MapCategory(%q) = %s, want %s", c.text, got, c.want)
		}
	}
}

func BenchmarkLogIngest(b *testing.B) {
	d := New(32, Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Ingest(Line{
			Rank: topo.Rank(i % 32), At: sim.Time(i) * sim.Time(time.Millisecond),
			Level: "info", Text: "iteration 1234 done in 2.5s loss 0.25",
		})
	}
}

func BenchmarkTemplateCluster(b *testing.B) {
	lines := []string{
		"iteration 1234 done in 2.5s loss 0.25",
		"NIC rnic5 down: send queue stalled wr=17",
		"GPU gpu3 xid 79 fallen off the bus",
		"checkpoint shard 12 written in 1.2s",
		"allreduce comm 7 seq 42 launched",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TemplateID(TemplateOf(lines[i%len(lines)]))
	}
}

// TestIngestKnownTemplateAllocatesNothing: a line whose template exists is
// hashed while scanned and filed in place, so the steady-state ingest path
// (64 lines a post) allocates nothing.
func TestIngestKnownTemplateAllocatesNothing(t *testing.T) {
	d := New(256, Config{})
	i := 0
	ingest := func() {
		d.Ingest(Line{
			Rank: topo.Rank(i % 256), At: sim.Time(i) * sim.Time(10*time.Millisecond),
			Level: "info", Text: "iteration 1234 done in 2.5s loss 0.25",
		})
		i++
	}
	for i < 5000 {
		ingest()
	}
	if n := testing.AllocsPerRun(1000, ingest); n != 0 {
		t.Fatalf("Ingest made %v mallocs per known line, want 0", n)
	}
	if d.Templates() != 1 {
		t.Fatalf("templates = %d, want 1", d.Templates())
	}
}

// TestAnalyzeFleetWideAllocatesNothing: scoring a template every rank emits
// (a phase change, not an anomaly) reuses the detector's scratch.
func TestAnalyzeFleetWideAllocatesNothing(t *testing.T) {
	d := New(256, Config{})
	for r := 0; r < 256; r++ {
		for k := 0; k < 3; k++ {
			d.Ingest(Line{Rank: topo.Rank(r), At: at(time.Duration(k) * time.Second), Level: "error", Text: "checkpoint shard 4 saved"})
		}
	}
	if got := d.Analyze(at(3 * time.Second)); got != nil {
		t.Fatalf("fleet-wide template flagged: %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { d.Analyze(at(3 * time.Second)) }); n != 0 {
		t.Fatalf("Analyze made %v mallocs per pass, want 0", n)
	}
}

// TestTemplateKeepsNoLine: a line's text may be a slice of a whole request
// body, and TemplateOf hands back a one-word line's own text, so a new
// template keeps a copy of its text and its level is the constant, never
// the line's own strings.
func TestTemplateKeepsNoLine(t *testing.T) {
	body := `{"lines":[{"rank":0,"level":"warn","text":"dataloader-stalled"}]}`
	slice := func(s string) string { i := strings.Index(body, s); return body[i : i+len(s)] }
	d := New(8, Config{})
	d.Ingest(Line{Rank: 0, Level: slice("warn"), Text: slice("dataloader-stalled")})
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	for _, tpl := range d.templates {
		for _, s := range []string{tpl.Text, tpl.Level} {
			if p := addr(s); p >= addr(body) && p < addr(body)+uintptr(len(body)) {
				t.Errorf("template keeps %q, a slice of the line's body", s)
			}
		}
	}
}
