package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestConcurrentPacketInStress drives the control plane with many
// packet-ins in flight at once — run with -race at several Ps: memory
// hits, dispatch misses, SYN-retransmit dedup, and flow-removed
// refreshes interleave across many clients behind two ingress switches,
// with a service registration landing mid-storm. Every client, duplicate
// and reader is a clock goroutine, and Go starts them in parallel until
// they park, so their packet-ins race through the pending-claim table,
// the FlowMemory and the service registry. Afterwards the
// stats must be internally consistent, no pending claim may leak, and
// every non-duplicate packet-in must have released its held packet
// through a redirect flow.
func TestConcurrentPacketInStress(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() { packetInStorm(t, clk) })
}

func packetInStorm(t *testing.T, clk *vclock.Virtual) {
	n := netem.NewNetwork(clk, 1)

	const (
		clientsPerSwitch = 24
		rounds           = 4
	)

	// gnb1 hosts the clusters and the controller; gnb2 is a second
	// ingress switch whose instance-bound traffic crosses a trunk link.
	sw1 := openflow.NewSwitch(n, "gnb1", 8)
	sw2 := openflow.NewSwitch(n, "gnb2", 4)
	sw1.CtrlLatency = 0
	sw2.CtrlLatency = 0

	link := netem.LinkConfig{Latency: 50 * time.Microsecond}
	near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, clk: clk, port: 20000}
	near.host = n.NewHost("near", netem.ParseIP("10.0.0.2"))
	n.Connect(near.host.NIC(), sw1.Port(1), link)
	sw1.AddRoute(near.host.IP(), 1)

	far := &stubCluster{name: "far", loc: cluster.Location{Latency: 8 * time.Millisecond}, clk: clk, port: 20000}
	far.host = n.NewHost("far", netem.ParseIP("10.0.1.2"))
	n.Connect(far.host.NIC(), sw1.Port(2), link)
	sw1.AddRoute(far.host.IP(), 2)

	ctrlHost := n.NewHost("ctrl", netem.ParseIP("10.0.254.1"))
	n.Connect(ctrlHost.NIC(), sw1.Port(3), link)
	sw1.AddRoute(ctrlHost.IP(), 3)

	// Trunk gnb2 → gnb1 for instance-bound traffic. Neither switch has a
	// default route, so unroutable packets drop instead of looping.
	n.Connect(sw1.Port(4), sw2.Port(1), netem.LinkConfig{Latency: 100 * time.Microsecond})
	sw2.AddRoute(near.host.IP(), 1)
	sw2.AddRoute(far.host.IP(), 1)

	ctrl, err := New(clk, Config{
		Host:           ctrlHost,
		Switch:         sw1,
		ExtraSwitches:  []*openflow.Switch{sw2},
		Clusters:       []cluster.Cluster{near, far},
		ProbeInterval:  time.Millisecond,
		SwitchFlowIdle: time.Hour, // keep flow counters stable for the final audit
		MemoryIdle:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ctrl.RegisterService(netem.ParseHostPort("203.0.113.1:80"), leanNginx)
	if err != nil {
		t.Fatal(err)
	}
	unregistered := netem.ParseHostPort("198.51.100.9:80")

	mkPin := func(client netem.IP, dst netem.HostPort) openflow.PacketIn {
		return openflow.PacketIn{
			Pkt:    &netem.Packet{Src: netem.HostPort{IP: client, Port: 43000}, Dst: dst, Flags: netem.FlagSYN},
			InPort: 2,
		}
	}

	var storm vclock.Group
	var total, registered int64
	var countMu sync.Mutex
	for si, sw := range []*openflow.Switch{sw1, sw2} {
		for i := 0; i < clientsPerSwitch; i++ {
			client := netem.ParseIP(fmt.Sprintf("192.168.%d.%d", si+1, i+10))
			storm.Go(clk, func() {
				sent, reg := int64(0), int64(0)
				for r := 0; r < rounds; r++ {
					switch r {
					case 1:
						// SYN retransmission: a concurrent duplicate of the
						// same flow, racing the original.
						var dup vclock.Group
						dup.Go(clk, func() { ctrl.handlePacketIn(sw, mkPin(client, svc.Addr)) })
						ctrl.handlePacketIn(sw, mkPin(client, svc.Addr))
						dup.Wait(clk)
						sent, reg = sent+2, reg+2
					case 2:
						// Flow-removed refresh racing other packet-ins.
						ctrl.FlowRemoved(nil, openflow.FlowRemoved{
							Match:       openflow.Match{SrcIP: client, DstIP: svc.Addr.IP, DstPort: svc.Addr.Port},
							Cookie:      svc.cookie,
							IdleTimeout: true,
						})
						ctrl.handlePacketIn(sw, mkPin(client, unregistered))
						sent++
					default:
						ctrl.handlePacketIn(sw, mkPin(client, svc.Addr))
						sent, reg = sent+1, reg+1
					}
				}
				countMu.Lock()
				total += sent
				registered += reg
				countMu.Unlock()
			})
		}
	}

	// A registration lands mid-storm: the append-only service registry
	// and the punt-rule installs race the packet-in fast path.
	var regErr error
	storm.Go(clk, func() {
		_, regErr = ctrl.RegisterService(netem.ParseHostPort("203.0.113.2:80"), leanNginx)
	})
	// A concurrent reader of the shared state. It sleeps between reads:
	// a loop that never parks would stop virtual time.
	var stop atomic.Bool
	var readers vclock.Group
	readers.Go(clk, func() {
		for !stop.Load() {
			_ = ctrl.Stats()
			_ = ctrl.FlowMemory().Len()
			_, _ = ctrl.ClientLocation(netem.ParseIP("192.168.1.10"))
			clk.Sleep(100 * time.Microsecond)
		}
	})

	storm.Wait(clk)
	stop.Store(true)
	readers.Wait(clk)
	if regErr != nil {
		t.Fatalf("mid-storm registration: %v", regErr)
	}

	s := ctrl.Stats()
	if s.PacketIns != total {
		t.Errorf("PacketIns = %d, want %d", s.PacketIns, total)
	}
	// Every packet-in for the registered service either hit the memory,
	// dispatched, or was deduplicated against an in-flight twin.
	dups := registered - s.MemoryHits - s.ScheduleCalls
	if dups < 0 {
		t.Errorf("MemoryHits=%d + ScheduleCalls=%d exceed %d registered packet-ins", s.MemoryHits, s.ScheduleCalls, registered)
	}
	if s.FlowsInstalled != s.MemoryHits+s.ScheduleCalls {
		t.Errorf("FlowsInstalled = %d, want MemoryHits+ScheduleCalls = %d", s.FlowsInstalled, s.MemoryHits+s.ScheduleCalls)
	}
	if s.CandidateHits+s.CandidateMisses != s.ScheduleCalls {
		t.Errorf("CandidateHits+CandidateMisses = %d, want ScheduleCalls = %d", s.CandidateHits+s.CandidateMisses, s.ScheduleCalls)
	}
	// Zero lost held packets: each non-duplicate packet-in released its
	// packet via PacketOut, which traversed the freshly installed
	// forward redirect flow of its ingress switch.
	var released int64
	for _, sw := range []*openflow.Switch{sw1, sw2} {
		for _, f := range sw.Flows() {
			if f.Priority == redirectPriority && f.Match.DstIP == svc.Addr.IP && f.Match.DstPort == svc.Addr.Port {
				released += f.Packets
			}
		}
	}
	if released != s.FlowsInstalled {
		t.Errorf("released packets = %d, want %d (one per installed redirect)", released, s.FlowsInstalled)
	}
	// No pending claim may survive the storm.
	if n := ctrl.pendingClaims(); n != 0 {
		t.Errorf("%d pending claims leaked", n)
	}
	// FlowMemory bookkeeping: one entry per distinct client, counts in
	// sync with the entries.
	fm := ctrl.FlowMemory()
	if got, want := fm.Len(), 2*clientsPerSwitch; got != want {
		t.Errorf("FlowMemory.Len = %d, want %d", got, want)
	}
	if got := fm.ServiceFlows(svc.Name); got != fm.Len() {
		t.Errorf("ServiceFlows = %d, want %d (all entries belong to one service)", got, fm.Len())
	}
}
