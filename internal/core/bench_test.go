package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// BenchmarkPacketInThroughput drives the controller's warm packet-in
// path — memorized flow, redirect re-install, packet release — from
// parallel goroutines on vclock.Real: many clients behind several
// ingress switches (b.RunParallel spreads them over GOMAXPROCS
// goroutines), all meeting on the client table's and the FlowMemory's
// one lock each. No binary runs the controller this way — handlers run
// one at a time on the event loop — so this is the -race and contention
// smoke beside TestConcurrentPacketInStress and
// TestOverlappingAuditsShareNoBuffers, with a self-check, not a
// throughput to quote: that is core.packetin_memhit in `go run ./bench`.
//
// It uses zero control-channel latency and a short switch flow idle
// timeout, so the flow tables self-prune instead of growing with b.N.
func BenchmarkPacketInThroughput(b *testing.B) {
	const (
		nSwitches = 4
		nClients  = 4096 // total, striped across switches
	)
	clk := vclock.NewReal()
	n := netem.NewNetwork(clk, 1)

	sws := make([]*openflow.Switch, nSwitches)
	for i := range sws {
		sws[i] = openflow.NewSwitch(n, fmt.Sprintf("gnb%d", i), 4)
		sws[i].CtrlLatency = 0
	}

	stub := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, clk: clk, port: 20000}
	stub.host = n.NewHost("near", netem.ParseIP("10.0.0.2"))
	n.Connect(stub.host.NIC(), sws[0].Port(1), netem.LinkConfig{Latency: 50 * time.Microsecond})

	ctrlHost := n.NewHost("ctrl", netem.ParseIP("10.0.254.1"))
	n.Connect(ctrlHost.NIC(), sws[0].Port(2), netem.LinkConfig{Latency: 50 * time.Microsecond})

	ctrl, err := New(clk, Config{
		Host:           ctrlHost,
		Switch:         sws[0],
		ExtraSwitches:  sws[1:],
		Clusters:       []cluster.Cluster{stub},
		SwitchFlowIdle: 20 * time.Millisecond,
		MemoryIdle:     time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctrl.Start() // drain flow-removed messages from the self-pruning tables
	svc, err := ctrl.RegisterService(netem.ParseHostPort("203.0.113.1:80"), leanNginx)
	if err != nil {
		b.Fatal(err)
	}

	// Pre-warm the FlowMemory: every client already has a memorized
	// instance, so each packet-in takes the fast path. The instance
	// address is unroutable on the switches — the released packet is
	// accounted by the redirect flow, then dropped, keeping the
	// benchmark about the control plane rather than data delivery.
	inst := cluster.Instance{Addr: netem.ParseHostPort("10.9.9.9:20000"), Cluster: "near"}
	clients := make([]netem.IP, nClients)
	for i := range clients {
		clients[i] = netem.ParseIP(fmt.Sprintf("192.%d.%d.%d", 168+i/65536, (i/256)%256, i%256))
		ctrl.fm.Remember(clients[i], svc.Addr, svc.Name, inst)
	}

	var gids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine walks its own stripe of the client space so
		// concurrent packet-ins come from distinct clients, as in a real
		// packet-in storm.
		gid := int(gids.Add(1))
		i := gid * 7919 // a prime stride decorrelates the stripes
		for pb.Next() {
			client := clients[i%nClients]
			sw := sws[i%nSwitches]
			i++
			ctrl.handlePacketIn(sw, openflow.PacketIn{
				Pkt:    &netem.Packet{Src: netem.HostPort{IP: client, Port: 43000}, Dst: svc.Addr, Flags: netem.FlagSYN},
				InPort: 2,
			})
		}
	})
	b.StopTimer()
	s := ctrl.Stats()
	// A packet-in that is not a memory hit is one of two things. Two
	// stripes can meet on one client while its punt is still in flight —
	// on a wall clock every control message of a punt fires on its own
	// timer goroutine, so a punt is in flight for tens of microseconds —
	// and the second packet-in is deduplicated: it never reaches the
	// memory, and never leaves the warm path either. Or a released packet
	// punted back: if the goroutine is descheduled longer than
	// SwitchFlowIdle between the flow-mod and the packet-out, the fresh
	// redirect idles out before the held packet traverses it — the same
	// FlowMod-vs-PacketOut race a slow OpenFlow controller sees in
	// production. That packet is not lost (it re-enters the control plane
	// and is served again), so the warm-path check only bounds what went
	// through the Scheduler by the punt count.
	var punted int64
	for _, sw := range sws {
		p, _, _ := sw.Counters()
		punted += p
	}
	if s.ScheduleCalls > punted {
		b.Fatalf("benchmark left the warm path: %d dispatches and %d hits for %d packet-ins (%d punts)", s.ScheduleCalls, s.MemoryHits, s.PacketIns, punted)
	}
}

// BenchmarkFlowMemoryScale drives a FlowMemory with a large resident
// population (200 k memorized flows across 64 services) from parallel
// goroutines on vclock.Real, mixing lookups (each a move to the list's
// tail) and re-remembers; every goroutine takes the memory's one lock,
// and one timer is pending however many flows are resident. Like
// BenchmarkPacketInThroughput it is a -race and contention smoke that
// checks no resident entry goes missing, not a number to quote:
// core.flowmemory_lookup and core.flowmemory_remember in
// `go run ./bench` time the same operations one at a time.
func BenchmarkFlowMemoryScale(b *testing.B) {
	const (
		nEntries  = 200_000
		nServices = 64
	)
	clk := vclock.NewReal()
	fm := NewFlowMemory(clk, time.Hour)
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
