package testbed

import (
	"runtime"
	"testing"

	"github.com/c3lab/transparentedge/internal/cluster"
)

// TestRunLoadRetainsNothing: a finished run leaves neither goroutines nor
// heap behind, so runs can be chained in one process. Before Run released
// what its clock started, every RunLoad of this size left ≈ 15 MiB and 17
// parked goroutines reachable, and every Kubernetes testbed its watch
// loops.
func TestRunLoadRetainsNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs int
		run  func() error
	}{
		{"RunLoad", 3, func() error {
			_, err := RunLoad(LoadConfig{Flows: 30000, Revisits: -1, Rate: 5000, Seed: 1})
			return err
		}},
		{"RunCreateScaleUp", 2, func() error {
			_, err := RunCreateScaleUp("nginx", cluster.Kubernetes, 8, 1)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var firstHeap uint64
			var firstGoroutines int
			for i := 1; i <= tc.runs; i++ {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.GC() // the second collection empties the sync.Pools
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap, goroutines := ms.HeapAlloc, runtime.NumGoroutine()
				t.Logf("run %d: %.1f MiB live, %d goroutines", i, float64(heap)/(1<<20), goroutines)
				if i == 1 {
					firstHeap, firstGoroutines = heap, goroutines
					continue
				}
				if heap > firstHeap+1<<20 {
					t.Errorf("run %d: %.1f MiB live, %.1f MiB after run 1", i, float64(heap)/(1<<20), float64(firstHeap)/(1<<20))
				}
				if goroutines != firstGoroutines {
					t.Errorf("run %d: %d goroutines, %d after run 1", i, goroutines, firstGoroutines)
				}
			}
		})
	}
}
