package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The committed BENCHMARK.json must satisfy the run contract and say
// exactly what the harness reports: same names, units, directions and
// bounds as the tables in spec.go (regenerate with `go run ./bench -spec`).
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := validateDoc(raw)
	if err != nil {
		t.Fatalf("BENCHMARK.json breaks the contract: %v", err)
	}
	if want := buildDoc(); !reflect.DeepEqual(*got, want) {
		t.Errorf("BENCHMARK.json is stale: run `go run ./bench -spec > BENCHMARK.json`")
	}
	if got.RunSeconds != contractSeconds {
		t.Errorf("run_seconds %d, want %d", got.RunSeconds, contractSeconds)
	}
}

func TestValidateDocRejects(t *testing.T) {
	mutate := func(f func(d map[string]any)) []byte {
		raw, _ := json.Marshal(buildDoc())
		var d map[string]any
		json.Unmarshal(raw, &d)
		f(d)
		out, _ := json.Marshal(d)
		return out
	}
	metric := func(d map[string]any, list string, i int) map[string]any {
		return d[list].([]any)[i].(map[string]any)
	}
	for name, raw := range map[string][]byte{
		"extra key":         mutate(func(d map[string]any) { d["host"] = "x" }),
		"missing key":       mutate(func(d map[string]any) { delete(d, "paths") }),
		"bad name":          mutate(func(d map[string]any) { metric(d, "per_layer", 0)["name"] = "virt p50" }),
		"long name":         mutate(func(d map[string]any) { metric(d, "per_layer", 0)["name"] = strings.Repeat("x", 65) }),
		"duplicate name":    mutate(func(d map[string]any) { metric(d, "per_layer", 1)["name"] = metric(d, "per_layer", 0)["name"] }),
		"bad unit":          mutate(func(d map[string]any) { metric(d, "per_layer", 0)["unit"] = "µs per op" }),
		"no direction":      mutate(func(d map[string]any) { metric(d, "end_to_end", 1)["better"] = "" }),
		"bound too wide":    mutate(func(d map[string]any) { metric(d, "end_to_end", 1)["bound"] = 0.3 }),
		"unbounded e2e":     mutate(func(d map[string]any) { delete(metric(d, "end_to_end", 1), "bound") }),
		"bounded per-layer": mutate(func(d map[string]any) { metric(d, "per_layer", 0)["bound"] = 0.1 }),
		"no setup_s":        mutate(func(d map[string]any) { metric(d, "end_to_end", 0)["name"] = "warmup_s" }),
		"one workload":      mutate(func(d map[string]any) { d["workloads"] = d["workloads"].([]any)[:1] }),
		"nine workloads": mutate(func(d map[string]any) {
			ws := d["workloads"].([]any)
			for i := 0; len(ws) < 9; i++ {
				ws = append(ws, map[string]any{"name": "w" + string(rune('a'+i)), "why": "x"})
			}
			d["workloads"] = ws
		}),
		"why too long":  mutate(func(d map[string]any) { metric(d, "workloads", 0)["why"] = strings.Repeat("y", 201) }),
		"run too long":  mutate(func(d map[string]any) { d["run_seconds"] = 61 }),
		"not an object": []byte(`[]`),
	} {
		if _, err := validateDoc(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if len(perLayer()) > 128 || len(workloads) > 8 {
		t.Errorf("%d per-layer metrics, %d workloads: over the contract's limits", len(perLayer()), len(workloads))
	}
}
