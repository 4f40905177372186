package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// BenchmarkFlowMemoryScale drives a FlowMemory with a large resident
// population (200 k memorized flows across 64 services) from parallel
// goroutines, mixing lookups (each a move to the list's tail) and
// re-remembers; every goroutine takes the memory's one lock, and one
// timer is pending however many flows are resident. Neither operation
// parks, so the b.RunParallel goroutines need no clock goroutine of
// their own. It is a -race and contention smoke that checks no resident
// entry goes missing, not a number to quote: core.flowmemory_lookup and
// core.flowmemory_remember in `go run ./bench` time the same operations
// one at a time.
func BenchmarkFlowMemoryScale(b *testing.B) {
	const (
		nEntries  = 200_000
		nServices = 64
	)
	fm := NewFlowMemory(vclock.New(), time.Hour)
	inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "edge"}
	keys := make([]netem.IP, nEntries)
	svcs := make([]netem.HostPort, nEntries)
	names := make([]string, nServices)
	for i := range names {
		names[i] = fmt.Sprintf("svc-%d", i)
	}
	for i := range keys {
		keys[i] = netem.IP(0x0a000000 + uint32(i))
		svcs[i] = netem.HostPort{IP: netem.IP(0xcb007100 + uint32(i%nServices)), Port: 80}
		fm.Remember(keys[i], svcs[i], names[i%nServices], inst)
	}
	if fm.Len() != nEntries {
		b.Fatalf("Len = %d, want %d", fm.Len(), nEntries)
	}

	var gids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gid := int(gids.Add(1))
		i := gid * 7919
		for pb.Next() {
			k := i % nEntries
			switch i % 8 {
			case 7:
				// Occasional re-remember (instance moved).
				fm.Remember(keys[k], svcs[k], names[k%nServices], inst)
			default:
				if _, ok := fm.Lookup(keys[k], svcs[k]); !ok {
					b.Error("resident entry missing")
					return
				}
			}
			i++
		}
	})
}
