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

// puntLoad drives punts through a resilience rig whose one cluster
// already runs the service: each injected packet is the first of a new
// client, from a host that owns the whole client block and absorbs the
// instance's resets (it runs no listener, so the instance's host
// answers every segment with one).
type puntLoad struct {
	clk  *vclock.Virtual
	rig  *resilienceRig
	inst cluster.Instance
	load *netem.Host
	in   *netem.Port
	base netem.IP
	next int // next unused client
}

func newPuntLoad(t *testing.T, clk *vclock.Virtual, mut func(*Config)) *puntLoad {
	t.Helper()
	near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, pulled: true, created: true}
	rig := newResilienceRig(t, clk, mut, near)
	l := &puntLoad{clk: clk, rig: rig, inst: cluster.Instance{Addr: near.host.Addr(near.port), Cluster: near.name}}
	near.insts = []cluster.Instance{l.inst}
	base, mask := netem.ParseIP("100.64.0.0"), netem.ParseIP("255.192.0.0")
	l.base = base
	l.load = rig.net.NewHost("load", netem.ParseIP("192.168.1.10"))
	l.in = rig.sw.Port(3)
	rig.net.Connect(l.load.NIC(), l.in, netem.LinkConfig{Latency: 200 * time.Microsecond})
	rig.sw.AddRouteRange(base, mask, l.in.ID)
	return l
}

// inject punts count new clients, 200 µs apart, and waits until the
// last punts have finished and their resets arrived.
func (l *puntLoad) inject(count int) {
	for i := 0; i < count; i++ {
		pkt := netem.NewPacket()
		pkt.Src = netem.HostPort{IP: l.base + netem.IP(l.next), Port: 40000}
		pkt.Dst = l.rig.svc.Addr
		l.next++
		l.rig.sw.HandlePacket(pkt, l.in)
		l.clk.Sleep(200 * time.Microsecond)
	}
	l.clk.Sleep(100 * time.Millisecond)
}

// measure injects n punts and checks their cost: at most ceiling
// allocations per punt, exactly spawn goroutines started per punt, and
// no packet still held afterwards.
func (l *puntLoad) measure(t *testing.T, kind string, n int, ceiling float64, spawn int64) {
	t.Helper()
	spawned, live := l.clk.Spawned(), netem.LivePackets()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.inject(n)
	runtime.ReadMemStats(&after)
	if got := l.clk.Spawned() - spawned; got != spawn*int64(n) {
		t.Errorf("%s: %d goroutines started for %d punts, want %d", kind, got, n, spawn*int64(n))
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%s: %.2f allocs per punt", kind, got)
	if got > ceiling && !raceEnabled {
		t.Errorf("%s: %.2f allocs per punt, ceiling %.2f", kind, got, ceiling)
	}
	if got := netem.LivePackets() - live; got != 0 {
		t.Errorf("%s: %d packets still held", kind, got)
	}
}

// TestPuntsRunToCompletion pins the cost model of the event-driven
// packet-in path: once the candidate snapshot is cached, a cold punt
// (miss, schedule onto a running instance, install, packet-out) and a
// memorized punt (FlowMemory hit, re-install, packet-out) both run
// entirely on the clock's event loop — no goroutine is started for
// either — within a fixed allocation budget, and each leaves nothing
// behind: no held packet, no flow-key claim.
func TestPuntsRunToCompletion(t *testing.T) {
	const (
		warm = 256  // cold punts before measuring: fills the freelists and the candidate cache
		n    = 2048 // punts per measured kind
		// Measured at most 0.16 and 0.14 allocs per punt (GOGC=5, 1 to
		// 8 Ps), + 10 %: what is left is the chunks' share — of flow
		// entries, timer events and, for a cold punt, memory entries; the
		// redirect specs and the scheduler's decision allocate nothing.
		coldCeiling   = 0.18
		memhitCeiling = 0.16
	)
	clk := vclock.New()
	clk.Run(func() {
		l := newPuntLoad(t, clk, func(cfg *Config) {
			// One gather serves the whole run, and nothing expires under it.
			cfg.CandidateTTL = time.Hour
			cfg.SwitchFlowIdle = time.Hour
			cfg.MemoryIdle = time.Hour
		})
		l.inject(warm)
		l.measure(t, "cold", n, coldCeiling, 0)
		for i := 0; i < n; i++ {
			l.rig.ctrl.fm.Remember(l.base+netem.IP(l.next+i), l.rig.svc.Addr, l.rig.svc.Name, l.inst)
		}
		l.measure(t, "memorized", n, memhitCeiling, 0)

		s := l.rig.ctrl.Stats()
		if s.PacketIns != warm+2*n || s.ScheduleCalls != warm+n || s.MemoryHits != n || s.CandidateMisses != 1 {
			t.Errorf("%d packet-ins, %d dispatches, %d memory hits, %d gathers; want %d, %d, %d, 1",
				s.PacketIns, s.ScheduleCalls, s.MemoryHits, s.CandidateMisses, warm+2*n, warm+n, n)
		}
		if got := l.load.Dropped(); got != warm+2*n {
			t.Errorf("%d of %d arrivals answered by the instance", got, warm+2*n)
		}
		if got := l.rig.ctrl.pendingClaims(); got != 0 {
			t.Errorf("%d flow-key claims still held", got)
		}
	})
}

// TestCandidateMissPuntAllocs pins the cost of a punt whose candidate
// snapshot missed (the cache is off, so every punt gathers): it waits
// on one goroutine, whose body is bound to the punt record once, and
// allocates the goroutine's start and the snapshot on top of a cached
// punt's chunk share. With HoldTimeout set, the bounded wait adds a
// second goroutine with its start and closure, that closure's two
// result cells, a gate and the timed wait's settle record.
func TestCandidateMissPuntAllocs(t *testing.T) {
	const (
		warm = 256
		n    = 2048
	)
	// Measured at most 2.17 and 8.18 allocs per punt (GOGC=5, 1 to 8
	// Ps), + 10 %.
	for _, tc := range []struct {
		name    string
		hold    time.Duration
		ceiling float64
		spawn   int64
	}{
		{"no_hold", 0, 2.39, 1},
		{"hold", time.Second, 9.00, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.New()
			clk.Run(func() {
				l := newPuntLoad(t, clk, func(cfg *Config) {
					cfg.CandidateTTL = -1 // off: every dispatch gathers
					cfg.SwitchFlowIdle = time.Hour
					cfg.MemoryIdle = time.Hour
					cfg.HoldTimeout = tc.hold
				})
				l.inject(warm)
				l.measure(t, "miss", n, tc.ceiling, tc.spawn)
				s := l.rig.ctrl.Stats()
				if s.CandidateMisses != warm+n || s.DegradedToCloud != 0 {
					t.Errorf("%d gathers, %d degraded; want %d, 0", s.CandidateMisses, s.DegradedToCloud, warm+n)
				}
				if got := l.load.Dropped(); got != warm+n {
					t.Errorf("%d of %d arrivals answered by the instance", got, warm+n)
				}
				if got := l.rig.ctrl.pendingClaims(); got != 0 {
					t.Errorf("%d flow-key claims still held", got)
				}
			})
		})
	}
}

// TestOlderSnapshotKeepsItsInstances: a candidate snapshot shares the
// clusters' instance lists rather than copying them, and a decision's
// FastInstance points into them. A gather after the origin moved
// (SetInstance) and after a deployment must leave a snapshot taken
// before both as it was.
func TestOlderSnapshotKeepsItsInstances(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		cloud := cluster.NewStaticCluster("cloud", cluster.Location{Tier: 9, Latency: 40 * time.Millisecond})
		rig := newResilienceRig(t, clk, func(cfg *Config) { cfg.Clusters = append(cfg.Clusters, cloud) }, near)
		first, moved := netem.ParseHostPort("198.51.100.1:80"), netem.ParseHostPort("198.51.100.2:80")
		cloud.SetInstance(rig.svc.Name, first)

		instances := func(cands []Candidate) (nearN int, cloudAt netem.HostPort) {
			for _, c := range cands {
				switch c.Cluster {
				case near:
					nearN = len(c.Instances)
				case cloud:
					if len(c.Instances) == 1 {
						cloudAt = c.Instances[0].Addr
					}
				}
			}
			return nearN, cloudAt
		}
		older := rig.ctrl.gatherCandidates(rig.svc, rig.sw.DeviceName())
		cloud.SetInstance(rig.svc.Name, moved)
		if _, err := rig.ctrl.PreDeploy(rig.svc.Addr, "near"); err != nil {
			t.Fatal(err)
		}
		newer := rig.ctrl.gatherCandidates(rig.svc, rig.sw.DeviceName())
		if n, at := instances(newer); n != 1 || at != moved {
			t.Fatalf("newer snapshot: %d near instances, cloud at %v; want 1, %v", n, at, moved)
		}
		if n, at := instances(older); n != 0 || at != first {
			t.Errorf("older snapshot now has %d near instances, cloud at %v; want 0, %v", n, at, first)
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
