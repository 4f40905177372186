package main

import (
	"encoding/json"
	"fmt"
	"regexp"

	"github.com/c3lab/transparentedge/bench/layers"
)

// metricDef declares one metric: the name later issues cite, its unit
// and which direction is better.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the regression bound of an end-to-end metric: the share
	// of the baseline by which it may worsen (Absolute: the absolute
	// amount) before a change counts as a regression.
	Bound    float64
	Absolute bool
	// Virtual marks the virtual-time axis: what the modelled system did,
	// not how fast the emulator ran. Virtual metrics can be 0 or read the
	// same on every run, which the run contract does not allow of a
	// bounded metric, so BENCHMARK.json lists them with the per-layer
	// metrics; -aa still holds them to their bounds.
	Virtual bool
	// Pick is how the reps' values become the reported one; the median
	// when empty.
	Pick pick
}

type pick string

const (
	// overall is the rate over all reps together — total ops ÷ total
	// time, the harmonic mean of the reps' rates. Reps of the same work
	// come out in clusters by host state (README, "Host speed"), so a
	// quantile of them jumps from one cluster to the other between runs;
	// the overall rate moves smoothly.
	overall pick = "overall rate"
	// highest suits a peak that sampling catches only on some reps.
	highest pick = "max"
)

// endToEnd are the eight end-to-end metrics, reported per workload. Each
// host bound is three times the spread (quartile distance ÷ median) that
// contract runs on thirty seeds showed on the worst workload, capped at
// the contract's 25 % (README, "End-to-end metrics"): allocs_per_op 4.3 %
// and peak_live_heap_mib 7.6 %, both on chaos, whose fault schedule
// differs from seed to seed; ops_per_s up to 11.5 % over ten runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Pick: overall},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.13},
	{Name: "peak_live_heap_mib", Unit: "MiB", Better: "lower", Bound: 0.23, Pick: highest},
	// answered_share is 1 − failed_share: the same count, stated so that it
	// is never 0 and the run contract can hold it to a bound. Half a
	// percent is two more failed requests in a 1/5-size chaos run, and
	// twice the quartile distance three seeds in ten with one failed
	// request each would show; at HEAD one seed in fifteen has one.
	{Name: "answered_share", Unit: "ratio", Better: "higher", Bound: 0.005},
	{Name: "virt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.02, Virtual: true},
	{Name: "virt_p99_ms", Unit: "ms", Better: "lower", Bound: 0.02, Virtual: true},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0.001, Absolute: true, Virtual: true},
}

// countMetrics are read from the untraced reps' results and from the
// runtime, outside the program under test.
var countMetrics = []metricDef{
	{Name: "core.packet_ins_per_op", Unit: "1/op", Better: "lower"},
	{Name: "core.memory_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.dispatches_per_op", Unit: "1/op", Better: "lower"},
	{Name: "core.flows_installed_per_op", Unit: "1/op", Better: "lower"},
	{Name: "core.candidate_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "core.resync_runs", Unit: "count", Better: "lower"},
	{Name: "core.reinstalled_flows", Unit: "count", Better: "lower"},
	{Name: "core.channel_drops", Unit: "count", Better: "lower"},
	{Name: "core.resteered_flows_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.peak_goroutines", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "testbed.cpu_s", Unit: "s", Better: "lower"},
	{Name: "testbed.peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "testbed.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	// The median host speed during the reps, and the throughput on the
	// wall clock, before it was restated at the host's fastest speed.
	{Name: "host.speed", Unit: "ratio", Better: "higher"},
	{Name: "host.wall_ops_per_s", Unit: "1/s", Better: "higher"},
	// The paper's phase split (Figs. 11-15) on the virtual axis; zero on
	// every workload but figures. The two scale-up phases come from the
	// deploy drivers: PhaseResult does not export them.
	{Name: "registry.virt_pull_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "docker.virt_create_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "docker.virt_scaleup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kube.virt_create_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kube.virt_scaleup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.virt_wait_ready_p50_ms", Unit: "ms", Better: "lower"},
}

// workloadLayerMetrics are the per-layer metrics taken per workload: the
// traced run's self time per layer, then the counts.
func workloadLayerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: l + ".cpu_us_per_op", Unit: "us/op", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"})
	return append(defs, countMetrics...)
}

// perLayer lists every per-layer metric of BENCHMARK.json: the virtual
// end-to-end metrics, the per-workload ones, and the layer drivers'.
func perLayer() []metricDef {
	var defs []metricDef
	for _, m := range endToEnd {
		if m.Virtual {
			defs = append(defs, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	defs = append(defs, workloadLayerMetrics()...)
	for _, d := range layers.Drivers {
		defs = append(defs,
			metricDef{Name: d.Name + "_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: d.Name + "_allocs", Unit: "allocs", Better: "lower"})
	}
	return defs
}

// amount renders a bound, or a difference held against it: a share of
// the baseline, or an absolute amount.
func (m metricDef) amount(v float64) string {
	if m.Absolute {
		return fmt.Sprintf("%g", v)
	}
	return fmt.Sprintf("%.1f%%", v*100)
}

// contractSeconds is how long one contract run measures.
const contractSeconds = 12

// benchmarkDoc is BENCHMARK.json: exactly the keys the run contract
// names, generated from the tables above (`go run ./bench -spec`).
type benchmarkDoc struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []docNameWhy `json:"workloads"`
	EndToEnd   []docMetric  `json:"end_to_end"`
	PerLayer   []docMetric  `json:"per_layer"`
}

type docNameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: contractSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, docNameWhy{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		if !m.Virtual {
			b := m.Bound
			doc.EndToEnd = append(doc.EndToEnd, docMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &b})
		}
	}
	for _, m := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, docMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDoc checks raw against the run contract's schema limits.
func validateDoc(raw []byte) (*benchmarkDoc, error) {
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("%d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, err
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		return nil, fmt.Errorf("%d top-level keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			return nil, fmt.Errorf("missing key %q", k)
		}
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	switch {
	case len(doc.Command) == 0 || len(doc.Command) > 32:
		return nil, fmt.Errorf("command has %d strings, want 1..32", len(doc.Command))
	case len(doc.Paths) == 0 || len(doc.Paths) > 16:
		return nil, fmt.Errorf("%d paths, want 1..16", len(doc.Paths))
	case doc.RunSeconds < 1 || doc.RunSeconds > 60:
		return nil, fmt.Errorf("run_seconds %d, want 1..60", doc.RunSeconds)
	case len(doc.Workloads) < 2 || len(doc.Workloads) > 8:
		return nil, fmt.Errorf("%d workloads, want 2..8", len(doc.Workloads))
	case len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16:
		return nil, fmt.Errorf("%d end-to-end metrics, want 1..16", len(doc.EndToEnd))
	case len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128:
		return nil, fmt.Errorf("%d per-layer metrics, want 1..128", len(doc.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range doc.Workloads {
		if err := name(w.Name); err != nil {
			return nil, err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return nil, fmt.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	metric := func(m docMetric, bounded bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if bounded != (m.Bound != nil) {
			return fmt.Errorf("metric %s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
		}
		if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		return nil
	}
	setup := false
	for _, m := range doc.EndToEnd {
		if err := metric(m, true); err != nil {
			return nil, err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return nil, fmt.Errorf(`no end-to-end metric "setup_s" with unit "s", better "lower"`)
	}
	for _, m := range doc.PerLayer {
		if err := metric(m, false); err != nil {
			return nil, err
		}
	}
	return &doc, nil
}
