package testbed

import (
	"fmt"
	"testing"
	"time"
)

// loadFingerprint reduces a LoadResult to its deterministic fields —
// everything except wall time.
func loadFingerprint(t *testing.T, res *LoadResult) []int64 {
	t.Helper()
	fp := []int64{
		int64(res.Arrivals),
		int64(res.Punts),
		res.Dispatch.Count(),
		int64(res.Dispatch.Median()),
		int64(res.Dispatch.Percentile(99)),
		int64(res.VirtualDuration),
		res.Stats.PacketIns,
		res.Stats.MemoryHits,
		res.Stats.ScheduleCalls,
		res.Stats.FlowsInstalled,
		res.Stats.CloudForwards,
		res.DroppedReplies,
	}
	for _, n := range res.ServiceArrivals {
		fp = append(fp, int64(n))
	}
	return fp
}

// TestLoadDeterminism runs the same config twice: every deterministic
// field must be identical (wall time is the only run-dependent output).
func TestLoadDeterminism(t *testing.T) {
	cfg := LoadConfig{Flows: 1500, Rate: 3000, Seed: 7}
	a, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := loadFingerprint(t, a), loadFingerprint(t, b)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fingerprint[%d] differs across identical runs: %d vs %d\n%v\n%v", i, fa[i], fb[i], fa, fb)
		}
	}
}

// TestLoadRegimes checks the run exercises all three dispatch regimes:
// a cold punt per flow, in-switch forwarding for fast revisits, and
// FlowMemory hits for revisits after the switch flow idled out. The
// short SwitchFlowIdle forces the third regime inside a small run.
func TestLoadRegimes(t *testing.T) {
	res, err := RunLoad(LoadConfig{
		Flows:          2000,
		Rate:           4000,
		SwitchFlowIdle: 200 * time.Millisecond,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 4000 {
		t.Fatalf("arrivals = %d, want 4000", res.Arrivals)
	}
	// Every flow's debut punts; some revisits punt again after their
	// switch flow expired, and those must be FlowMemory hits, not
	// re-dispatches of known flows.
	if res.Punts <= 2000 {
		t.Fatalf("punts = %d, want > flows (2000): expiry-driven re-punts missing", res.Punts)
	}
	if res.Stats.MemoryHits == 0 {
		t.Fatal("no FlowMemory hits: revisit regime not reached")
	}
	// Every packet-in is a memory hit, a dispatch, or a concurrent
	// duplicate the controller deduplicated (a revisit punting while the
	// same flow's earlier punt is still in flight) — never anything else.
	if got := res.Stats.MemoryHits + res.Stats.ScheduleCalls; got > res.Stats.PacketIns {
		t.Fatalf("memory hits (%d) + dispatches (%d) = %d > packet-ins (%d)",
			res.Stats.MemoryHits, res.Stats.ScheduleCalls, got, res.Stats.PacketIns)
	} else if dedups := res.Stats.PacketIns - got; dedups > res.Stats.PacketIns/10 {
		t.Fatalf("%d of %d packet-ins deduplicated: too many to be the in-flight race", dedups, res.Stats.PacketIns)
	}
	if res.Stats.CloudForwards != 0 {
		t.Fatalf("cloud forwards = %d, want 0 (every service pre-deployed)", res.Stats.CloudForwards)
	}
	if res.Dispatch.Count() != int64(res.Punts) {
		t.Fatalf("dispatch samples = %d, want = punts (%d)", res.Dispatch.Count(), res.Punts)
	}
	if res.PeakHeap == 0 {
		t.Fatal("peak heap not sampled")
	}
	// Replies to synthetic sources must terminate at the injection host:
	// one RST per arrival, except deduplicated punts (their held packet
	// is dropped, never forwarded) — no loops, no leaks.
	dedups := res.Stats.PacketIns - res.Stats.MemoryHits - res.Stats.ScheduleCalls
	if want := int64(res.Arrivals) - dedups; res.DroppedReplies != want {
		t.Fatalf("dropped replies = %d, want %d (arrivals %d - dedups %d)",
			res.DroppedReplies, want, res.Arrivals, dedups)
	}
	// The Zipf assignment must actually skew: rank 0 strictly most
	// popular.
	for i := 1; i < len(res.ServiceArrivals); i++ {
		if res.ServiceArrivals[0] <= res.ServiceArrivals[i] {
			t.Fatalf("service 0 (%d arrivals) not the Zipf mode: service %d has %d",
				res.ServiceArrivals[0], i, res.ServiceArrivals[i])
		}
	}
}

// TestRunLoadAllocsPerArrival holds the open-loop load engine, end to
// end, to 13.52 allocations per arrival — sequential and across four
// shards. The ceiling is the one the 250 k-flow run had (6.76 M per
// 500 k arrivals); this run is 5 000 flows at the same rate and, after
// AllocsPerRun's warm-up run, measures 10.7–10.9 sequential and
// 11.8–12.2 sharded.
func TestRunLoadAllocsPerArrival(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	const ceiling = 13.52
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var res *LoadResult
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				res, err = RunLoad(LoadConfig{Flows: 5000, Rate: 100_000, Seed: 1, Shards: shards})
			})
			if err != nil {
				t.Fatal(err)
			}
			perArrival := allocs / float64(res.Arrivals)
			t.Logf("%.0f allocs, %.2f per arrival", allocs, perArrival)
			if perArrival > ceiling {
				t.Errorf("%.2f allocs per arrival, ceiling %v", perArrival, ceiling)
			}
		})
	}
}
