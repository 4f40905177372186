package main

import (
	"os"
	"strings"
	"testing"

	"github.com/c3lab/transparentedge/bench/layers"
)

// TestQuickSmoke is `go run ./bench -quick` without the child
// processes: every workload and every layer driver at 1/50 size, one
// rep, through the same measuring and summarising code, checking that
// each passes its own correctness checks and that every metric
// BENCHMARK.json names gets a value.
func TestQuickSmoke(t *testing.T) {
	drivers := layers.RunAll(quickScale)
	for i := range drivers {
		drivers[i].HostRate = make([]float64, len(drivers[i].Ns))
		for j := range drivers[i].HostRate {
			drivers[i].HostRate[j] = 1 // what the harness's speedometer fills in
		}
	}
	if len(drivers) != len(layers.Drivers) {
		t.Fatalf("%d driver results for %d drivers", len(drivers), len(layers.Drivers))
	}
	for _, d := range drivers {
		if d.Err != "" {
			t.Errorf("layer driver %s: %s", d.Name, d.Err)
		}
		if ns, _ := driverStat(d, 1); !(ns > 0) {
			t.Errorf("layer driver %s: %v ns per call", d.Name, ns)
		}
	}
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	attr := newAttribution()
	if err := attr.addTraces(f); err != nil {
		t.Fatal(err)
	}

	for _, w := range workloads {
		rep, err := measureRep(w, 1, quickScale)
		if err != nil {
			t.Fatal(err)
		}
		rep.HostRate = 1
		sum := summarize(&samples{w: w, reps: []Rep{*rep}, traced: []Rep{*rep}, attr: attr}, []timed{{S: 1.5, HostRate: 1}}, drivers, 1)
		if !sum.valid() {
			t.Errorf("%s: %v", w.Name, sum.Problems)
		}
		if sum.Attempted <= 0 || sum.Failed < 0 || sum.Failed > sum.Attempted/10 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, sum.Attempted, sum.Failed)
		}
		for _, m := range endToEnd {
			st, ok := sum.EndToEnd[m.Name]
			if !ok || (!m.Virtual && st.Value <= 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); a bounded metric must never be 0", w.Name, m.Name, st.Value, ok)
			}
		}
		for _, m := range perLayer() {
			// The phase split exists on the figures workload only.
			phase := strings.Contains(m.Name, ".virt_") && w.Name != "figures"
			if _, ok := sum.PerLayer[m.Name]; !ok && !phase {
				t.Errorf("%s: per-layer metric %s has no value", w.Name, m.Name)
			}
		}
	}
}

// Untraced reps of one seed that disagree anywhere on the virtual axis
// make the workload invalid, whichever workload it is — beyond the one
// rep in eight HEAD's own same-instant races account for, which is
// noted. A traced rep has to match in its op count.
func TestSummarizeHoldsRepsToOneVirtualResult(t *testing.T) {
	base := Rep{Ops: 100, Failed: 3, ByDesign: 2, WallS: 1, HostRate: 1, VirtP50Ms: 8, VirtP99Ms: 20, VirtSamples: 100, Fingerprint: "aa"}
	reps := func(n int, others ...Rep) []Rep {
		out := append([]Rep(nil), others...)
		for len(out) < n {
			out = append(out, base)
		}
		return out
	}
	for name, change := range map[string]func(r *Rep){
		"fingerprint": func(r *Rep) { r.Fingerprint = "ab" },
		"virt_p99_ms": func(r *Rep) { r.VirtP99Ms = 20.5 },
		"failed":      func(r *Rep) { r.Failed = 4 },
		"by design":   func(r *Rep) { r.ByDesign = 1 },
		"ops":         func(r *Rep) { r.Ops = 101 },
	} {
		other := base
		change(&other)
		for _, w := range workloads {
			run := func(untraced, traced []Rep) *summary {
				return summarize(&samples{w: w, reps: untraced, traced: traced, attr: newAttribution()}, nil, nil, 1)
			}
			sum := run(reps(7), reps(1))
			if !sum.valid() || len(sum.Notes) != 0 {
				t.Fatalf("%s: identical reps: problems %v, notes %v", w.Name, sum.Problems, sum.Notes)
			}
			// `failed` leaves out the ops failed by design; the shares do not.
			if sum.Attempted != 800 || sum.Failed != 8 || sum.EndToEnd["answered_share"].Value != 0.97 {
				t.Fatalf("%s: attempted %d, failed %d, answered_share %v", w.Name, sum.Attempted, sum.Failed, sum.EndToEnd["answered_share"].Value)
			}
			if sum := run(reps(6, other), nil); sum.valid() {
				t.Errorf("%s: 1 of 6 reps differing in %s accepted", w.Name, name)
			}
			if sum := run(reps(7, other), nil); !sum.valid() || len(sum.Notes) != 1 || sum.Fingerprint != base.Fingerprint {
				t.Errorf("%s: 1 of 7 reps differing in %s: problems %v, notes %v, fingerprint %s", w.Name, name, sum.Problems, sum.Notes, sum.Fingerprint)
			}
			if sum := run(reps(7, other, other), nil); sum.valid() {
				t.Errorf("%s: 2 of 7 reps differing in %s accepted", w.Name, name)
			}
			if sum := run(reps(7), []Rep{other}); sum.valid() != (name != "ops") {
				t.Errorf("%s: traced rep differing in %s: valid = %v", w.Name, name, sum.valid())
			}
		}
	}
}

func TestFirstDifference(t *testing.T) {
	if d := firstDifference([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Errorf("equal transcripts: %q", d)
	}
	if d := firstDifference([]byte("a\nB\n"), []byte("a\nb\n")); !strings.Contains(d, "line 2") {
		t.Errorf("differing line not named: %q", d)
	}
	if d := firstDifference([]byte("a"), []byte("a\nb")); !strings.Contains(d, "1 lines") {
		t.Errorf("truncated transcript not reported: %q", d)
	}
}
