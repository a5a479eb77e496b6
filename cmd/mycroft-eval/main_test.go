package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateTables = flag.Bool("update-tables", false, "rewrite testdata/tables.golden")

// wallTime matches the one line per table that is not a function of the seed.
var wallTime = regexp.MustCompile(`(?m)^\(\w+ wall time: .*\)\n`)

// TestTablesGolden pins every reproduced table at the default flags, byte
// for byte. The file was recorded before the experiments moved onto
// mycroft.Service and onto faults.Judge, and is never regenerated to make a
// refactor pass: a diff here is a changed result.
func TestTablesGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	got := wallTime.ReplaceAll(out.Bytes(), nil)
	const path = "testdata/tables.golden"
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "(end of output)", "(end of file)"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tables drifted from %s at line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// Every documented id must be selectable, and a typo must be refused before
// the first table is rendered — not after the tables named before it have
// burned their wall time. An unknown id rides behind each valid one so no
// experiment runs here.
func TestOnlyValidatesEveryIDUpFront(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "svc", "abl"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-only", id + ",typo"}, &out, &errb); code != 2 {
			t.Errorf("-only %s,typo: exit %d, want 2", id, code)
		}
		if out.Len() != 0 {
			t.Errorf("-only %s,typo rendered output before refusing:\n%s", id, out.String())
		}
		if msg := errb.String(); !strings.Contains(msg, `"typo"`) || strings.Contains(msg, `"`+id+`"`) {
			t.Errorf("-only %s,typo: stderr should name only the typo, got %q", id, msg)
		}
	}
}

// The two cheapest tables, selected together, both print.
func TestOnlyPrintsSelectedTables(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "E1, svc"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"=== E1 — ", "=== SVC — ", "rank 5 network-degrade"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "=== E2") {
		t.Errorf("unselected table rendered:\n%s", out.String())
	}
}
