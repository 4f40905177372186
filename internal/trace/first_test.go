package trace

import (
	"sort"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// phaseConfig is the workload a phase cell draws its first requests
// from: the bigFlows shape with hot services and seed varied.
func phaseConfig(hot int, seed int64) Config {
	cfg := DefaultBigFlows()
	cfg.HotServices = hot
	cfg.Seed = seed
	return cfg
}

// TestFirstRequestsMatchesGenerate holds FirstRequests to its oracle:
// each service's first entry in the sorted trace Generate builds.
func TestFirstRequestsMatchesGenerate(t *testing.T) {
	cfgs := []Config{DefaultBigFlows()}
	for hot := 1; hot <= 42; hot++ {
		for seed := int64(1); seed <= 50; seed++ {
			cfgs = append(cfgs, phaseConfig(hot, seed))
		}
	}
	for _, cfg := range cfgs {
		tr := Generate(cfg)
		want := make([]Request, cfg.HotServices)
		seen := make([]bool, cfg.HotServices)
		for _, r := range tr.Requests {
			if !seen[r.Service] {
				seen[r.Service] = true
				want[r.Service] = r
			}
		}
		got := FirstRequests(cfg)
		if len(got) != len(want) {
			t.Fatalf("hot=%d seed=%d: %d first requests, want %d", cfg.HotServices, cfg.Seed, len(got), len(want))
		}
		for i := range want {
			if got[i].At != want[i].At || got[i].Client != want[i].Client || got[i].Service != want[i].Service {
				t.Fatalf("hot=%d seed=%d service %d: FirstRequests = %+v, Generate's first = %+v",
					cfg.HotServices, cfg.Seed, i, got[i], want[i])
			}
		}
	}
}

// TestGenerateOrderUnchanged pins Generate's request order to a
// reference that makes the same draws and sorts them with sort.Slice on
// (At, Service), the order every replay and fingerprint is built on.
func TestGenerateOrderUnchanged(t *testing.T) {
	cfgs := []Config{DefaultBigFlows()}
	for _, hot := range []int{1, 8, 42} {
		for seed := int64(1); seed <= 10; seed++ {
			cfgs = append(cfgs, phaseConfig(hot, seed))
		}
	}
	for _, cfg := range cfgs {
		rng := vclock.NewRand(cfg.Seed)
		var want []Request
		for svc, n := range popularityCounts(cfg) {
			for k := 0; k < n; k++ {
				window := cfg.Duration
				if rng.Float64() < cfg.FrontLoadFrac {
					window = cfg.FrontLoadWindow
				}
				at := time.Duration(rng.Float64() * float64(window))
				want = append(want, Request{At: at, Service: svc, Client: rng.Intn(cfg.Clients)})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].At != want[j].At {
				return want[i].At < want[j].At
			}
			return want[i].Service < want[j].Service
		})
		got := Generate(cfg).Requests
		if len(got) != len(want) {
			t.Fatalf("hot=%d seed=%d: %d requests, want %d", cfg.HotServices, cfg.Seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hot=%d seed=%d request %d: %+v, want %+v", cfg.HotServices, cfg.Seed, i, got[i], want[i])
			}
		}
	}
}
