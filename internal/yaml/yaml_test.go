package yaml

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

const nginxDeployment = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx
  labels:
    app: nginx
spec:
  replicas: 0
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
`

func TestUnmarshalDeployment(t *testing.T) {
	v, err := Unmarshal(nginxDeployment)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("top level is %T", v)
	}
	if m["kind"] != "Deployment" || m["apiVersion"] != "apps/v1" {
		t.Errorf("header = %v / %v", m["kind"], m["apiVersion"])
	}
	spec := m["spec"].(map[string]any)
	if spec["replicas"] != int64(0) {
		t.Errorf("replicas = %v (%T)", spec["replicas"], spec["replicas"])
	}
	containers := spec["template"].(map[string]any)["spec"].(map[string]any)["containers"].([]any)
	if len(containers) != 1 {
		t.Fatalf("containers = %d", len(containers))
	}
	c := containers[0].(map[string]any)
	if c["image"] != "nginx:1.23.2" {
		t.Errorf("image = %v (colon in value must not split the key)", c["image"])
	}
	ports := c["ports"].([]any)
	if ports[0].(map[string]any)["containerPort"] != int64(80) {
		t.Errorf("containerPort = %v", ports[0])
	}
}

func TestUnmarshalScalars(t *testing.T) {
	v, err := Unmarshal(`a: 1
b: -7
c: 2.5
d: true
e: false
f: null
g: ~
h: hello world
i: "quoted: string"
j: 'single # quoted'
k: {}
l: []
m: "42"
n: "tab\there"
o: "x\/y"
"p\/q": r
`)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	want := map[string]any{
		"a": int64(1), "b": int64(-7), "c": 2.5, "d": true, "e": false,
		"f": nil, "g": nil, "h": "hello world",
		"i": "quoted: string", "j": "single # quoted",
		"k": map[string]any{}, "l": []any{}, "m": "42",
		"n": "tab\there", "o": `x\/y`, `p\/q`: "r", // an escape Go rejects keeps its backslash
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("got %#v\nwant %#v", m, want)
	}
}

func TestUnmarshalComments(t *testing.T) {
	v, err := Unmarshal(`# full line comment
name: web # trailing comment
image: "nginx#tagged" # hash inside quotes survives
`)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["name"] != "web" {
		t.Errorf("name = %q", m["name"])
	}
	if m["image"] != "nginx#tagged" {
		t.Errorf("image = %q", m["image"])
	}
}

func TestUnmarshalMultiDocument(t *testing.T) {
	docs, err := UnmarshalAll(`kind: Deployment
name: a
---
kind: Service
name: b
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[0].(map[string]any)["kind"] != "Deployment" || docs[1].(map[string]any)["kind"] != "Service" {
		t.Errorf("docs = %v", docs)
	}
}

func TestUnmarshalTopLevelSequence(t *testing.T) {
	v, err := Unmarshal(`- a
- 2
- name: x
  port: 80
`)
	if err != nil {
		t.Fatal(err)
	}
	seq := v.([]any)
	if len(seq) != 3 || seq[0] != "a" || seq[1] != int64(2) {
		t.Fatalf("seq = %#v", seq)
	}
	if seq[2].(map[string]any)["port"] != int64(80) {
		t.Errorf("inline map item = %#v", seq[2])
	}
}

func TestUnmarshalSequenceOfNestedBlocks(t *testing.T) {
	v, err := Unmarshal(`items:
-
  name: first
- name: second
`)
	if err != nil {
		t.Fatal(err)
	}
	items := v.(map[string]any)["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("items = %#v", items)
	}
	if items[0].(map[string]any)["name"] != "first" || items[1].(map[string]any)["name"] != "second" {
		t.Errorf("items = %#v", items)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"tab indent":    "a:\n\tb: 1\n",
		"duplicate key": "a: 1\na: 2\n",
		"not a mapping": "just words without colon\n",
		"unterminated":  `"broken: 1` + "\n",
		"missing colon": `"key" 1` + "\n",
	}
	for name, doc := range cases {
		if _, err := Unmarshal(doc); err == nil {
			t.Errorf("%s: no error for %q", name, doc)
		}
	}
}

func TestUnmarshalEmpty(t *testing.T) {
	v, err := Unmarshal("")
	if err != nil || v != nil {
		t.Errorf("empty doc = %v, %v", v, err)
	}
	v, err = Unmarshal("# only a comment\n")
	if err != nil || v != nil {
		t.Errorf("comment-only doc = %v, %v", v, err)
	}
}

func TestMarshalRoundTripDeployment(t *testing.T) {
	v, err := Unmarshal(nginxDeployment)
	if err != nil {
		t.Fatal(err)
	}
	out := Marshal(v)
	v2, err := Unmarshal(out)
	if err != nil {
		t.Fatalf("re-parse of marshalled output: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Errorf("round trip changed value:\n%s", out)
	}
}

func TestMarshalQuotesAmbiguousStrings(t *testing.T) {
	in := map[string]any{
		"a": "42",
		"b": "true",
		"c": "null",
		"d": "has: colon",
		"e": "",
		"f": "- leading dash",
	}
	// Strings strconv reads as numbers, the special float words
	// included, next to strings that only start like one.
	for i, s := range []string{"inf", "-Infinity", "NaN", "+INF", "+.5", ".5e3", "0x1p-2", "1_000", "0b101", "-7", "1e400",
		"nginx", "infra", "n", "+", "-x", ".hidden", "edge-203-0-113-1-80"} {
		in["n"+strconv.Itoa(i)] = s
	}
	out := Marshal(in)
	v, err := Unmarshal(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !reflect.DeepEqual(v, in) {
		t.Errorf("ambiguous strings mangled:\n%s\ngot %#v", out, v)
	}
}

func TestMarshalAllSeparator(t *testing.T) {
	out := MarshalAll(map[string]any{"a": int64(1)}, map[string]any{"b": int64(2)})
	if !strings.Contains(out, "---\n") {
		t.Errorf("missing separator:\n%s", out)
	}
	docs, err := UnmarshalAll(out)
	if err != nil || len(docs) != 2 {
		t.Errorf("round trip: %v, %d docs", err, len(docs))
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := map[string]any{"z": int64(1), "a": int64(2), "m": int64(3)}
	first := Marshal(m)
	for i := 0; i < 10; i++ {
		if Marshal(m) != first {
			t.Fatal("marshal output not deterministic")
		}
	}
	if strings.Index(first, "a:") > strings.Index(first, "z:") {
		t.Error("keys not sorted")
	}
}

// genValue builds a random YAML-representable value of bounded depth.
func genValue(rnd func(int) int, depth int) any {
	if depth <= 0 {
		return genScalar(rnd)
	}
	switch rnd(4) {
	case 0:
		n := rnd(4)
		m := map[string]any{}
		for i := 0; i < n+1; i++ {
			m[genKey(rnd, i)] = genValue(rnd, depth-1)
		}
		return m
	case 1:
		n := rnd(4)
		s := make([]any, 0, n)
		for i := 0; i < n; i++ {
			s = append(s, genValue(rnd, depth-1))
		}
		if len(s) == 0 {
			return []any{}
		}
		return s
	default:
		return genScalar(rnd)
	}
}

func genKey(rnd func(int) int, i int) string {
	words := []string{"name", "image", "spec", "metadata", "labels", "app", "replicas", "ports"}
	return words[rnd(len(words))] + string(rune('a'+i))
}

func genScalar(rnd func(int) int) any {
	switch rnd(6) {
	case 0:
		return int64(rnd(10000) - 5000)
	case 1:
		return rnd(2) == 0
	case 2:
		return nil
	case 3:
		words := []string{"nginx:1.23.2", "hello world", "x", "true-ish", "0.0.0.0:80", "a#b", "with: colon", ""}
		return words[rnd(len(words))]
	default:
		return "svc-" + string(rune('a'+rnd(26)))
	}
}

// Property: Marshal then Unmarshal is the identity on supported values.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		state := uint64(seed)
		rnd := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		v := genValue(rnd, 3)
		m, ok := v.(map[string]any)
		if !ok || len(m) == 0 {
			return true // top level must be a non-empty mapping or sequence
		}
		out := Marshal(m)
		back, err := Unmarshal(out)
		if err != nil {
			t.Logf("parse error %v on:\n%s", err, out)
			return false
		}
		if !reflect.DeepEqual(back, v) {
			t.Logf("mismatch:\n%s\nwant %#v\ngot  %#v", out, v, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

var (
	sinkString string
	sinkAny    any
)

// TestPlainScalarAllocs: a plain string that cannot be a number, such
// as an edge address, is written without calling strconv (each of its
// rejections allocates an error) and read back with only the one
// allocation that boxes the string into parseScalar's any result.
func TestPlainScalarAllocs(t *testing.T) {
	s := "edge-203-0-113-1-80"
	if a := testing.AllocsPerRun(100, func() { sinkString = encodeString(s) }); a != 0 {
		t.Errorf("encodeString(%q): %v allocs/op, want 0", s, a)
	}
	if a := testing.AllocsPerRun(100, func() { sinkAny = parseScalar(s) }); a > 1 {
		t.Errorf("parseScalar(%q): %v allocs/op, want at most the 1 that boxes the result", s, a)
	}
	if sinkString != s || sinkAny != s {
		t.Fatalf("encodeString = %q, parseScalar = %#v, want %q unchanged", sinkString, sinkAny, s)
	}
}
