package logdiag

import (
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
)

// FuzzTemplateCluster throws arbitrary log text at the templater and the
// detector and checks the clustering invariants: templating is a pure
// function, the id is FNV-64a as hash/fnv computes it, the id the ingest
// path hashes without building the template equals the built template's
// (ASCII separators, Unicode whitespace and invalid UTF-8 alike), templates
// never retain a digit-bearing token, and ingest/analyze never panic or
// violate basic accounting on any input.
func FuzzTemplateCluster(f *testing.F) {
	f.Add("NIC rnic5 down: send queue stalled", uint8(3), uint8(1))
	f.Add("iteration 100 done in 2.5s", uint8(0), uint8(0))
	f.Add("", uint8(7), uint8(2))
	f.Add("   \t\n  ", uint8(1), uint8(1))
	f.Add("GPU gpu3 xid 79 fallen off the bus", uint8(2), uint8(0))
	f.Add("<*> already templated <*>", uint8(4), uint8(2))
	f.Add("unicode ° ± ∞ rank 5 weirdness", uint8(5), uint8(1))
	f.Add("step\t12\tok", uint8(6), uint8(0))
	f.Add("iter\v7\fdone\r\n", uint8(12), uint8(1))
	f.Add("nbsp\u00a0rank\u00a03 done", uint8(8), uint8(1))
	f.Add("nel\u0085qp 9\u0085stall", uint8(9), uint8(2))
	f.Add("em\u2003space\u3000ideographic 7\v\fdone\r\n", uint8(10), uint8(3))
	f.Add("rank 5 \xff\xfe 3\xc2 invalid", uint8(11), uint8(0))

	levels := []string{"info", "warn", "error", "verbose"}
	f.Fuzz(func(t *testing.T, text string, rank uint8, level uint8) {
		tpl := TemplateOf(text)
		if tpl != TemplateOf(text) {
			t.Fatalf("TemplateOf not deterministic for %q", text)
		}
		h := fnv.New64a()
		h.Write([]byte(tpl))
		if got, want := TemplateID(tpl), h.Sum64(); got != want {
			t.Fatalf("TemplateID(%q) = %x, hash/fnv FNV-64a %x", tpl, got, want)
		}
		// The ingest path hashes while scanning; it must land on the id of
		// the template it never builds.
		if got, want := templateIDOf(text), TemplateID(tpl); got != want {
			t.Fatalf("templateIDOf(%q) = %x, TemplateID(%q) = %x", text, got, tpl, want)
		}
		// Idempotence: templating a template changes nothing.
		if again := TemplateOf(tpl); again != tpl {
			t.Fatalf("TemplateOf not idempotent: %q -> %q", tpl, again)
		}
		for _, tok := range strings.Fields(tpl) {
			if tok != "<*>" && hasDigit(tok) {
				t.Fatalf("template %q retains digit token %q", tpl, tok)
			}
		}

		d := New(16, Config{})
		for i := 0; i < 3; i++ {
			d.Ingest(Line{
				Rank: topo.Rank(rank % 16), At: sim.Time(i) * sim.Time(time.Second),
				Level: levels[int(level)%len(levels)], Text: text,
			})
		}
		if d.Ingested() != 3 {
			t.Fatalf("Ingested = %d, want 3", d.Ingested())
		}
		if d.Templates() != 1 {
			t.Fatalf("Templates = %d after one distinct line, want 1", d.Templates())
		}
		for _, a := range d.Analyze(sim.Time(3 * time.Second)) {
			if a.Score <= 0 || a.Score > 1 {
				t.Fatalf("score %v out of (0,1]", a.Score)
			}
			if a.Count > a.Fleet {
				t.Fatalf("affected count %d exceeds fleet count %d", a.Count, a.Fleet)
			}
		}
	})
}
