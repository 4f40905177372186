package testbed

import (
	"fmt"
	"testing"
)

// TestScaleWaves runs the control-plane scale experiment at two client
// counts and checks its accounting: every client gets one cold and one
// warm request, the cold wave dispatches once per client and the warm
// wave is all FlowMemory hits, and every cold dispatch asks the
// candidate cache once. Only the misses that arrive while the first
// candidate gather is still in flight miss the cache, so their number
// does not grow with the client count.
func TestScaleWaves(t *testing.T) {
	misses := map[int]int64{}
	for _, clients := range []int{20, 100} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			res, err := RunScale("nginx", clients, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := int64(clients)
			if res.Cold.Len() != clients || res.Warm.Len() != clients {
				t.Errorf("cold/warm samples = %d/%d, want %d each", res.Cold.Len(), res.Warm.Len(), clients)
			}
			s := res.Stats
			if s.PacketIns != 2*n {
				t.Errorf("packet-ins = %d, want %d", s.PacketIns, 2*n)
			}
			if s.MemoryHits != n || s.ScheduleCalls != n {
				t.Errorf("memory hits / schedule calls = %d/%d, want %d each", s.MemoryHits, s.ScheduleCalls, n)
			}
			if got := s.CandidateHits + s.CandidateMisses; got != n {
				t.Errorf("candidate hits + misses = %d, want %d", got, n)
			}
			t.Logf("%d candidate misses", s.CandidateMisses)
			misses[clients] = s.CandidateMisses
		})
	}
	if misses[20] != misses[100] {
		t.Errorf("candidate misses = %d at 20 clients, %d at 100: they grow with the client count", misses[20], misses[100])
	}
}
