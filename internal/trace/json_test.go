package trace

import (
	"testing"
	"unsafe"
)

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

// TestTextIn: a verbatim string is sliced from the document's string, and
// one encoding/json escapes is decoded as json.Unmarshal decodes it.
func TestTextIn(t *testing.T) {
	doc := `["plain ✓","a\"b<cé"]`
	p := JSONReader{B: []byte(doc), OK: true}
	var got []string
	for i := 0; p.Elem(i); i++ {
		got = append(got, p.TextIn(doc))
	}
	if !p.OK || len(got) != 2 || got[0] != "plain ✓" || got[1] != `a"b<cé` {
		t.Fatalf("read %q (ok %v)", got, p.OK)
	}
	if unsafe.StringData(got[0]) != unsafe.StringData(doc[2:]) {
		t.Error("the verbatim string is not a slice of the document")
	}
}
