package testbed

import (
	"testing"
	"time"
)

// TestShardServicesPartition checks the deterministic balanced service
// assignment: every service owned, owners in range, shards=1 all zero,
// and the most popular service alone on its shard when shards permit.
func TestShardServicesPartition(t *testing.T) {
	if got := shardServices(8, 1.1, 1); len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	} else {
		for si, s := range got {
			if s != 0 {
				t.Fatalf("shards=1: service %d on shard %d", si, s)
			}
		}
	}
	owner := shardServices(8, 1.1, 4)
	counts := make([]int, 4)
	for si, s := range owner {
		if s < 0 || s >= 4 {
			t.Fatalf("service %d assigned to shard %d", si, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d owns no services", s)
		}
	}
	// Zipf rank 0 is ~40% of the load at s=1.1: the LPT greedy must not
	// pair it with another service while an emptier shard exists.
	if counts[owner[0]] != 1 {
		t.Errorf("most popular service shares shard %d with %d others",
			owner[0], counts[owner[0]]-1)
	}
	// Determinism: the assignment is a pure function of the config.
	again := shardServices(8, 1.1, 4)
	for si := range owner {
		if owner[si] != again[si] {
			t.Fatalf("assignment not deterministic at service %d", si)
		}
	}
}

// TestShardFingerprintInvariance is the tentpole's correctness gate:
// one load run, sharded {1,2,4,8} ways across three seeds, must produce
// identical LoadResult fingerprints — every deterministic field of the
// merged result is byte-identical to the sequential run.
func TestShardFingerprintInvariance(t *testing.T) {
	cfg := LoadConfig{Flows: 1500, Rate: 5000}
	for _, seed := range []int64{1, 2, 3} {
		cfg.Seed = seed
		cfg.Shards = 1
		base, err := RunLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := base.Fingerprint()
		for _, n := range []int{2, 4, 8} {
			cfg.Shards = n
			r, err := RunLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Fingerprint(); got != want {
				t.Errorf("seed=%d shards=%d fingerprint %s, want %s\nseq:   %+v\nshard: %+v",
					seed, n, got, want, base.Stats, r.Stats)
			}
		}
	}
}

// TestShardMergeInvariants checks the merged result's internal
// relations — the same ones TestLoadRegimes asserts of a sequential
// run — hold after the shard merge, on a config that reaches the
// memory-hit regime.
func TestShardMergeInvariants(t *testing.T) {
	res, err := RunLoad(LoadConfig{
		Flows: 2500, Rate: 2500, Shards: 4, Seed: 7,
		SwitchFlowIdle: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Punts <= res.Config.Flows {
		t.Errorf("punts = %d, want > %d (revisit punts missing)", res.Punts, res.Config.Flows)
	}
	if res.Stats.MemoryHits == 0 {
		t.Error("no memory hits after merge")
	}
	if got := int64(res.Dispatch.Count()); got != int64(res.Punts) {
		t.Errorf("dispatch samples = %d, punts = %d", got, res.Punts)
	}
	arrivals := 0
	for _, n := range res.ServiceArrivals {
		arrivals += n
	}
	if arrivals != res.Arrivals {
		t.Errorf("per-service arrivals sum to %d, want %d", arrivals, res.Arrivals)
	}
	if res.PeakHeap == 0 {
		t.Error("PeakHeap not sampled")
	}
	if res.Config.Shards != 4 {
		t.Errorf("merged result echoes Shards = %d, want 4", res.Config.Shards)
	}
}

// TestPuntsMatchDispatchSamples crosses two independent counts of the
// answered punts: the controller's memory hits and dispatches less the
// switch's dropped packet-outs (Punts), and the samples of the
// punt-to-release histogram (Dispatch). A punt recorded twice, or
// answered but never recorded, makes them differ — sequential and after
// the shard merge.
func TestPuntsMatchDispatchSamples(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, shards := range []int{1, 4} {
			res, err := RunLoad(LoadConfig{
				Flows: 1500, Rate: 3000, Shards: shards, Seed: seed,
				SwitchFlowIdle: 300 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.MemoryHits == 0 {
				t.Errorf("seed=%d shards=%d: no memory hits, only one kind of punt crossed", seed, shards)
			}
			if got := res.Dispatch.Count(); got != int64(res.Punts) {
				t.Errorf("seed=%d shards=%d: %d dispatch samples for %d answered punts", seed, shards, got, res.Punts)
			}
		}
	}
}

// TestShardRaceStress is the -race exercise: a small sharded run with
// every shard's replica, clock, and merge running concurrently. The
// assertions are minimal — the value of the test is the race detector
// sweeping the fan-out, per-shard clocks, and merge path.
func TestShardRaceStress(t *testing.T) {
	res, err := RunLoad(LoadConfig{Flows: 800, Rate: 8000, Shards: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Punts == 0 {
		t.Error("no punts recorded")
	}
}

// TestRunLoadErrorPath checks a shard's set-up error comes back from
// RunLoad as it is — nil result, the catalog's text, the same for every
// shard count (RunParallel returns the lowest-index error).
func TestRunLoadErrorPath(t *testing.T) {
	const want = `catalog: unknown service "no-such-service"`
	for _, n := range []int{1, 4} {
		res, err := RunLoad(LoadConfig{ServiceKey: "no-such-service", Shards: n})
		if res != nil || err == nil || err.Error() != want {
			t.Errorf("shards=%d: result %v, error %v; want nil, %s", n, res, err, want)
		}
	}
}
