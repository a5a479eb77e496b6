package trace

import "testing"

// TestMinJSONSize: MinJSONSize is the length of the shortest record
// AppendJSON writes, so it bounds how many records a body holds.
func TestMinJSONSize(t *testing.T) {
	out, ok := AppendJSON(nil, &Record{Kind: KindState})
	if !ok || len(out) != MinJSONSize {
		t.Fatalf("shortest record %q (%v) is %d bytes, MinJSONSize %d", out, ok, len(out), MinJSONSize)
	}
	if _, ok := ParseJSON(out, new(Record)); !ok {
		t.Fatalf("ParseJSON refused %q", out)
	}
}
