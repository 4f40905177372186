package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
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
		// Measured 3.10 and 2.09 allocs per punt, + 10 %: what is left is
		// the flow entries' share of their chunks, the timer events and,
		// for a cold punt, the memory entry; the redirect specs and the
		// scheduler's decision allocate nothing.
		coldCeiling   = 3.41
		memhitCeiling = 2.30
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
			got := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%s: %.2f allocs per punt", kind, got)
			if got > ceiling && !raceEnabled {
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

// TestBackToBackPuntsKeepTheirFlows sends two clients of one service to
// two different instances with two punts, one after the other. At one P
// the second punt runs in the record the first left in the pool, so a
// flow that kept anything of the record — its spec buffer — would now
// rewrite the first client to the second instance. Each client's flows
// must still rewrite to its own instance.
func TestBackToBackPuntsKeepTheirFlows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, pulled: true, created: true}
		far := &stubCluster{name: "far", loc: cluster.Location{Latency: 5 * time.Millisecond}, pulled: true, created: true}
		rig := newResilienceRig(t, clk, func(cfg *Config) { cfg.SwitchFlowIdle = time.Hour }, near, far)
		svc := rig.svc.Addr
		clients := []netem.IP{netem.ParseIP("100.64.0.1"), netem.ParseIP("100.64.0.2")}
		insts := []netem.HostPort{near.host.Addr(near.port), far.host.Addr(far.port)}
		want := map[openflow.FlowID]string{puntSpec(rig.svc).ID(): "punt rule"}
		for i, client := range clients {
			rig.ctrl.fm.Remember(client, svc, rig.svc.Name, cluster.Instance{Addr: insts[i], Cluster: []string{"near", "far"}[i]})
			forward := openflow.FlowSpec{
				Priority: redirectPriority,
				Match:    openflow.Match{SrcIP: client, DstIP: svc.IP, DstPort: svc.Port},
				Actions:  []openflow.Action{openflow.SetDstIP{IP: insts[i].IP}, openflow.SetDstPort{Port: insts[i].Port}, openflow.OutputNormal{}},
			}
			reverse := openflow.FlowSpec{
				Priority: redirectPriority,
				Match:    openflow.Match{SrcIP: insts[i].IP, SrcPort: insts[i].Port, DstIP: client},
				Actions:  []openflow.Action{openflow.SetSrcIP{IP: svc.IP}, openflow.SetSrcPort{Port: svc.Port}, openflow.OutputNormal{}},
			}
			want[forward.ID()] = fmt.Sprintf("%v → %v", client, insts[i])
			want[reverse.ID()] = fmt.Sprintf("%v → %v", insts[i], client)
		}
		for _, client := range clients {
			pkt := netem.NewPacket()
			pkt.Src, pkt.Dst = netem.HostPort{IP: client, Port: 40000}, svc
			rig.ctrl.handlePacketIn(rig.sw, openflow.PacketIn{Pkt: pkt, InPort: 4, At: clk.Now()})
		}
		if s := rig.ctrl.Stats(); s.MemoryHits != 2 || s.FlowsInstalled != 2 {
			t.Fatalf("%d memory hits, %d redirects installed; want 2, 2", s.MemoryHits, s.FlowsInstalled)
		}
		table := rig.sw.FlowTable()
		for _, spec := range table {
			if _, ok := want[spec.ID()]; !ok {
				t.Errorf("unexpected flow %v %v", spec.Match, spec.Actions)
			}
			delete(want, spec.ID())
		}
		for _, flow := range want {
			t.Errorf("flow %s missing", flow)
		}
	})
}

// TestDispatchLatency pins what the controller records as a punt's
// punt-to-release latency: a FlowMemory hit takes four channel
// latencies (packet-in, two flow-mods, packet-out); a punt whose
// packet-out the channel lost and a duplicate coalesced into an earlier
// punt of its flow release nothing, so they record nothing.
func TestDispatchLatency(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults *openflow.ChannelFaults
		copies int   // packets of one flow punted at one instant
		want   int64 // samples recorded
	}{
		{"memory_hit", nil, 1, 1},
		{"lost_packet_out", &openflow.ChannelFaults{Seed: 1, PacketOutLoss: 1}, 1, 0},
		{"coalesced_duplicate", nil, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.New()
			clk.Run(func() {
				near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, pulled: true, created: true}
				rig := newResilienceRig(t, clk, nil, near)
				inst := cluster.Instance{Addr: near.host.Addr(near.port), Cluster: near.name}
				load := rig.net.NewHost("load", netem.ParseIP("192.168.1.10"))
				in := rig.sw.Port(3)
				rig.net.Connect(load.NIC(), in, netem.LinkConfig{Latency: 200 * time.Microsecond})

				client := netem.ParseIP("100.64.0.1")
				rig.ctrl.fm.Remember(client, rig.svc.Addr, rig.svc.Name, inst)
				rig.sw.SetChannelFaults(tc.faults)
				for i := 0; i < tc.copies; i++ {
					pkt := netem.NewPacket()
					pkt.Src = netem.HostPort{IP: client, Port: 40000}
					pkt.Dst = rig.svc.Addr
					rig.sw.HandlePacket(pkt, in)
				}
				clk.Sleep(100 * time.Millisecond)

				if s := rig.ctrl.Stats(); s.PacketIns != int64(tc.copies) || s.MemoryHits != 1 {
					t.Fatalf("%d packet-ins, %d memory hits; want %d, 1", s.PacketIns, s.MemoryHits, tc.copies)
				}
				h := rig.ctrl.DispatchLatency()
				if h.Count() != tc.want {
					t.Fatalf("%d samples recorded, want %d", h.Count(), tc.want)
				}
				if want := 4 * rig.sw.CtrlLatency; tc.want > 0 && (h.Min() != want || h.Max() != want) {
					t.Errorf("punt-to-release latency %v..%v, want %v", h.Min(), h.Max(), want)
				}
			})
		})
	}
}
