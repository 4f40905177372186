package yaml

import (
	"reflect"
	"strconv"
	"testing"
)

// FuzzYAML feeds arbitrary text to Unmarshal, which must never panic.
// When the first document is a mapping — a Deployment or Service
// manifest always is — Marshal must write a document that Unmarshal
// reads back to a reflect.DeepEqual value. The checked-in corpus
// (testdata/fuzz/FuzzYAML/) holds one input per way that round trip
// used to break: a key with a double quote (written unescaped), an
// integral float (written as an int), a key ending in a tab (trimmed on
// the way back), an escaped quote before " #" (read as a comment), a
// "-" sequence item (read as a nested sequence) and NaN (never equal to
// itself; it is now the string it is in YAML, whose NaN is .nan).
func FuzzYAML(f *testing.F) {
	f.Add(nginxDeployment)
	f.Fuzz(func(t *testing.T, doc string) {
		v, err := Unmarshal(doc)
		if _, ok := v.(map[string]any); err != nil || !ok {
			return
		}
		out := Marshal(v)
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(v)): %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("round trip changed the value:\n%s\nwant %#v\ngot  %#v", out, v, back)
		}
	})
}

// FuzzNumberPrecheck holds couldBeNumber to its promise: whenever it
// says a string cannot be a number, strconv.ParseInt(s, 10, 64) and
// strconv.ParseFloat(s, 64) both reject it, so skipping them changes no
// scalar's type and no string's quoting.
func FuzzNumberPrecheck(f *testing.F) {
	for _, s := range []string{"", "+", "-", "inf", "-Infinity", "NaN", "+.5", ".5e3", "0x1p-2", "1_000", "0b101", "edge-203-0-113-1-80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if couldBeNumber(s) {
			return
		}
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			t.Errorf("couldBeNumber(%q) = false, but ParseInt reads %d", s, i)
		}
		if x, err := strconv.ParseFloat(s, 64); err == nil {
			t.Errorf("couldBeNumber(%q) = false, but ParseFloat reads %v", s, x)
		}
	})
}
