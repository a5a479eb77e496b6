package main

import (
	"bytes"
	"strings"
	"testing"
)

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
