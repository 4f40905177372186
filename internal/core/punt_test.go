package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestPuntsRunToCompletion pins the cost model of the event-driven
// packet-in path: once the candidate snapshot is cached, a cold punt
// (miss, schedule onto a running instance, install, packet-out) and a
// memorized punt (FlowMemory hit, re-install, packet-out) both run
// entirely on the clock's event loop — no goroutine is started for
// either — within a fixed allocation budget, and each leaves nothing
// behind: no held packet, no flow-key claim.
func TestPuntsRunToCompletion(t *testing.T) {
	const (
		warm = 256  // cold punts before measuring: fills the pools and the candidate cache
		n    = 2048 // punts per measured kind
		// Measured 17.5 and 13.1 allocs per punt (the flow entries, their
		// index buckets and timer events, the redirect specs, the scheduler's
		// sorted copy, the memory entry); the ceilings leave room for map
		// growth landing inside a measured window.
		coldCeiling   = 19.0
		memhitCeiling = 15.0
	)
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, pulled: true, created: true}
		rig := newResilienceRig(t, clk, func(cfg *Config) {
			// One gather serves the whole run, and nothing expires under it.
			cfg.CandidateTTL = time.Hour
			cfg.SwitchFlowIdle = time.Hour
			cfg.MemoryIdle = time.Hour
		}, near)
		inst := cluster.Instance{Addr: near.host.Addr(near.port), Cluster: near.name}
		near.insts = []cluster.Instance{inst} // running, no listener: the host answers every segment with a reset

		// One host owns the whole client block and absorbs the resets.
		base, mask := netem.ParseIP("100.64.0.0"), netem.ParseIP("255.192.0.0")
		load := rig.net.NewHost("load", netem.ParseIP("192.168.1.10"))
		in := rig.sw.Port(3)
		rig.net.Connect(load.NIC(), in, netem.LinkConfig{Latency: 200 * time.Microsecond})
		rig.sw.AddRouteRange(base, mask, in.ID)

		next := 0 // next unused client
		inject := func(count int) {
			for i := 0; i < count; i++ {
				pkt := netem.NewPacket()
				pkt.Src = netem.HostPort{IP: base + netem.IP(next), Port: 40000}
				pkt.Dst = rig.svc.Addr
				next++
				rig.sw.HandlePacket(pkt, in)
				clk.Sleep(200 * time.Microsecond)
			}
			clk.Sleep(100 * time.Millisecond) // the last punts finish, the resets arrive
		}
		measure := func(kind string, ceiling float64) {
			t.Helper()
			spawned, live := clk.Spawned(), netem.LivePackets()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			inject(n)
			runtime.ReadMemStats(&after)
			if got := clk.Spawned() - spawned; got != 0 {
				t.Errorf("%s: %d goroutines started for %d punts, want 0", kind, got, n)
			}
			if got := float64(after.Mallocs-before.Mallocs) / n; got > ceiling && !raceEnabled {
				t.Errorf("%s: %.1f allocs per punt, ceiling %.1f", kind, got, ceiling)
			}
			if got := netem.LivePackets() - live; got != 0 {
				t.Errorf("%s: %d packets still held", kind, got)
			}
		}

		inject(warm)
		measure("cold", coldCeiling)
		for i := 0; i < n; i++ {
			rig.ctrl.fm.Remember(base+netem.IP(next+i), rig.svc.Addr, rig.svc.Name, inst)
		}
		measure("memorized", memhitCeiling)

		s := rig.ctrl.Stats()
		if s.PacketIns != warm+2*n || s.ScheduleCalls != warm+n || s.MemoryHits != n || s.CandidateMisses != 1 {
			t.Errorf("%d packet-ins, %d dispatches, %d memory hits, %d gathers; want %d, %d, %d, 1",
				s.PacketIns, s.ScheduleCalls, s.MemoryHits, s.CandidateMisses, warm+2*n, warm+n, n)
		}
		if got := load.Dropped(); got != warm+2*n {
			t.Errorf("%d of %d arrivals answered by the instance", got, warm+2*n)
		}
		if got := rig.ctrl.pendingClaims(); got != 0 {
			t.Errorf("%d flow-key claims still held", got)
		}
	})
}
