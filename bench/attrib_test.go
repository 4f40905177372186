package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestAttributionFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := newAttribution()
	if err := a.addTraces(f); err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"vclock":        10 * time.Millisecond,   // innermost repo frame, not core further out
		"core":          20 * time.Millisecond,   // mapassign charged to the layer that caused it
		"runtime.gc":    50 * time.Millisecond,   // mark worker + an assist with no repo frame
		"runtime.sched": 500 * time.Microsecond,  // no repo frame, not GC
		"pcap":          1500 * time.Millisecond, // a repo package cpuLayers does not list
		"netem":         40 * time.Millisecond,   // label line skipped; assist charged to netem
	}
	for layer, d := range want {
		if a.ByLayer[layer] != d {
			t.Errorf("%s: %v, want %v", layer, a.ByLayer[layer], d)
		}
	}
	if len(a.ByLayer) != len(want) {
		t.Errorf("buckets %v, want exactly %d", a.ByLayer, len(want))
	}
	if total := 1620500 * time.Microsecond; a.Total != total {
		t.Errorf("total %v, want %v", a.Total, total)
	}
	if got, want := a.attributed(), 120.5/1620.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("attributed share %v, want %v (pcap is the unattributed part)", got, want)
	}
}

func TestAttributionRejectsBadValue(t *testing.T) {
	in := "-----------+---\n      10parsecs   runtime.futex\n"
	if err := newAttribution().addTraces(strings.NewReader(in)); err == nil {
		t.Fatal("a sample value that is not a duration was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", modulePrefix + "vclock.(*Virtual).Sleep", modulePrefix + "core.x"}, "vclock"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2"}, "runtime.sched"},
		{[]string{"runtime.bgsweep", "runtime.gcenable.gowrap1"}, "runtime.gc"},
		{[]string{"github.com/c3lab/transparentedge/bench/layers.packetHop"}, "runtime.sched"},
		{[]string{modulePrefix + "testbed.RunLoad"}, "testbed"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
