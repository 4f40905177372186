package layers

import (
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/testbed"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// stubCluster is an edge cluster whose one instance is always running,
// so a dispatch never deploys: the packet-in drivers measure the
// controller, not the deploy substrate.
type stubCluster struct{ inst cluster.Instance }

func (s *stubCluster) Name() string                        { return s.inst.Cluster }
func (s *stubCluster) Kind() cluster.Kind                  { return cluster.Docker }
func (s *stubCluster) Location() cluster.Location          { return cluster.Location{Latency: time.Millisecond} }
func (s *stubCluster) CanHost(cluster.Spec) bool           { return true }
func (s *stubCluster) HasImages(cluster.Spec) bool         { return true }
func (s *stubCluster) Pull(cluster.Spec) error             { return nil }
func (s *stubCluster) Created(string) bool                 { return true }
func (s *stubCluster) Create(cluster.Spec) error           { return nil }
func (s *stubCluster) ScaleUp(string) error                { return nil }
func (s *stubCluster) ScaleDown(string) error              { return nil }
func (s *stubCluster) Remove(string) error                 { return nil }
func (s *stubCluster) DeleteImages(cluster.Spec) error     { return nil }
func (s *stubCluster) Instances(string) []cluster.Instance { return []cluster.Instance{s.inst} }

var (
	rigClientBase = netem.ParseIP("100.64.0.0")
	rigClientMask = netem.ParseIP("255.192.0.0")
)

// coreRig is the smallest control plane a packet-in can cross: one
// switch, the controller, a stub cluster's instance host, and a load
// host that owns the whole synthetic client block and absorbs replies.
type coreRig struct {
	clk  *vclock.Virtual
	sw   *openflow.Switch
	ctrl *core.Controller
	svc  *core.Service
	inst cluster.Instance
	load *netem.Host
	next int // next unused synthetic client
}

func newCoreRig(clk *vclock.Virtual, m *M) *coreRig {
	n := netem.NewNetwork(clk, 1)
	sw := openflow.NewSwitch(n, "gnb", 3)
	access := netem.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: netem.GbpsToBytes(10)}
	load := n.NewHost("load", netem.ParseIP("192.168.1.10"))
	n.Connect(load.NIC(), sw.Port(1), access)
	sw.AddRouteRange(rigClientBase, rigClientMask, 1)
	edge := n.NewHost("edge", netem.ParseIP("10.0.0.2"))
	n.Connect(edge.NIC(), sw.Port(2), access)
	sw.AddRoute(edge.IP(), 2)
	ctrlHost := n.NewHost("ctrl", netem.ParseIP("10.0.254.1"))
	n.Connect(ctrlHost.NIC(), sw.Port(3), access)
	sw.AddRoute(ctrlHost.IP(), 3)

	r := &coreRig{clk: clk, sw: sw, load: load, inst: cluster.Instance{Addr: edge.Addr(20000), Cluster: "stub"}}
	ctrl, err := core.New(clk, core.Config{
		Host:           ctrlHost,
		Switch:         sw,
		Clusters:       []cluster.Cluster{&stubCluster{inst: r.inst}},
		SwitchFlowIdle: time.Hour, // no expiry churn: the packet-in path alone
		MemoryIdle:     time.Hour,
	})
	if err != nil {
		m.Failf("core.New: %v", err)
		return nil
	}
	ctrl.Start()
	nginx, _ := catalog.ByKey("nginx")
	if r.svc, err = ctrl.RegisterService(trace.ServiceAddr(0), nginx.Definition); err != nil {
		m.Failf("RegisterService: %v", err)
		return nil
	}
	r.ctrl = ctrl
	return r
}

func (r *coreRig) client(i int) netem.IP { return rigClientBase + netem.IP(i) }

// inject punts one bare segment from each of the next n unused clients
// at 5000 arrivals/s of virtual time, then lets the last ones drain.
func (r *coreRig) inject(n int) {
	in := r.sw.Port(1)
	for i := 0; i < n; i++ {
		pkt := netem.NewPacket()
		pkt.Src = netem.HostPort{IP: r.client(r.next), Port: 40000}
		pkt.Dst = r.svc.Addr
		pkt.ConnID = uint64(r.next) + 1
		r.next++
		r.sw.HandlePacket(pkt, in)
		r.clk.Sleep(200 * time.Microsecond)
	}
	r.clk.Sleep(100 * time.Millisecond)
}

// packetInCold is one first arrival: punt, FlowMemory miss, candidate
// cache, Global Scheduler, flow install, packet-out, and the instance's
// reply coming back through the reverse rule.
func packetInCold(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		r := newCoreRig(clk, m)
		if r == nil {
			return
		}
		m.Measure(nil, r.inject)
		s, want := r.ctrl.Stats(), int64(measurements*m.N)
		if s.ScheduleCalls != want || s.MemoryHits != 0 || s.FlowsInstalled < want {
			m.Failf("%d dispatches, %d memory hits, %d flows installed for %d cold arrivals", s.ScheduleCalls, s.MemoryHits, s.FlowsInstalled, want)
		}
		if got := r.load.Dropped(); got != want {
			m.Failf("%d of %d arrivals answered by the instance", got, want)
		}
	})
}

// packetInMemHit is one arrival of a memorized flow whose switch rules
// are gone: punt, FlowMemory hit, flow re-install, packet-out.
func packetInMemHit(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		r := newCoreRig(clk, m)
		if r == nil {
			return
		}
		total := measurements * m.N
		for i := 0; i < total; i++ {
			r.ctrl.FlowMemory().Remember(r.client(i), r.svc.Addr, r.svc.Name, r.inst)
		}
		m.Measure(nil, r.inject)
		s := r.ctrl.Stats()
		if s.MemoryHits != int64(total) || s.ScheduleCalls != 0 {
			m.Failf("%d memory hits, %d dispatches for %d memorized arrivals", s.MemoryHits, s.ScheduleCalls, total)
		}
		if got := r.load.Dropped(); got != int64(total) {
			m.Failf("%d of %d arrivals answered by the instance", got, total)
		}
	})
}

const flowMemoryServices = 64

func flowMemoryKey(i int) (netem.IP, netem.HostPort) {
	return netem.IP(0x0a000000 + uint32(i)), netem.HostPort{IP: netem.IP(0xcb007100 + uint32(i%flowMemoryServices)), Port: 80}
}

// residentMemory fills a FlowMemory with 200 k entries.
func residentMemory(clk *vclock.Virtual, m *M) (*core.FlowMemory, int, cluster.Instance) {
	entries := m.Resident(200_000)
	fm := core.NewFlowMemory(clk, time.Hour)
	inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "edge"}
	for i := 0; i < entries; i++ {
		c, s := flowMemoryKey(i)
		fm.Remember(c, s, "svc", inst)
	}
	if fm.Len() != entries {
		m.Failf("FlowMemory holds %d entries, want %d", fm.Len(), entries)
	}
	return fm, entries, inst
}

// flowMemoryRemember memorizes new flows next to 200 k resident ones.
func flowMemoryRemember(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		fm, resident, inst := residentMemory(clk, m)
		m.Measure(func() {
			for i := 0; i < m.N; i++ {
				fm.Forget(flowMemoryKey(resident + i))
			}
		}, func(n int) {
			for i := 0; i < n; i++ {
				c, s := flowMemoryKey(resident + i)
				fm.Remember(c, s, "svc", inst)
			}
		})
		if got, want := fm.Len(), resident+m.N; got != want {
			m.Failf("FlowMemory holds %d entries, want %d", got, want)
		}
	})
}

// flowMemoryLookup looks up (and thereby refreshes) resident flows.
func flowMemoryLookup(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		fm, resident, inst := residentMemory(clk, m)
		m.Measure(nil, func(n int) {
			for i := 0; i < n; i++ {
				if got, ok := fm.Lookup(flowMemoryKey(i * 7919 % resident)); !ok || got != inst {
					m.Failf("lookup %d: %v, %v", i, got, ok)
					return
				}
			}
		})
	})
}

// handover is one full re-home of a mobile client with a live session:
// Network.Rehome, Controller.Handover, route convergence, then a
// verified round on the surviving connection.
func handover(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		tb, err := testbed.New(clk, testbed.Options{
			TwoZones: true, MobileClients: 1, SwitchFlowIdle: time.Hour, MemoryIdle: time.Hour, Seed: 1,
		})
		if err != nil {
			m.Failf("testbed.New: %v", err)
			return
		}
		asm, _ := catalog.ByKey("asm")
		h, err := tb.RegisterCatalogService(asm, trace.ServiceAddr(0))
		if err == nil {
			err = tb.PrePull(h, "edge-docker")
		}
		if err == nil {
			_, err = tb.Controller.PreDeploy(h.Addr, "edge-docker")
		}
		if err != nil {
			m.Failf("pre-deploy: %v", err)
			return
		}
		conn, err := tb.MobileClient(0).DialTimeout(h.Addr, 30*time.Second)
		if err != nil {
			m.Failf("dial: %v", err)
			return
		}
		defer conn.Close()
		req := []byte("GET / HTTP/1.1\r\n\r\n")
		exchange := func() {
			if err := conn.Send(req); err != nil {
				m.Failf("send: %v", err)
			}
			if _, err := conn.RecvTimeout(30 * time.Second); err != nil {
				m.Failf("recv: %v", err)
			}
		}
		exchange() // installs the redirect flows the handovers re-steer
		toB := true
		m.Measure(nil, func(n int) {
			for i := 0; i < n; i++ {
				tb.RehomeClient(0, toB)
				toB = !toB
				clk.Sleep(time.Second) // let retransmissions settle
				exchange()
			}
		})
		s := tb.Controller.Stats()
		if want := int64(measurements * m.N); s.Handovers != want || s.ContinuityBreaks != 0 {
			m.Failf("%d handovers (want %d), %d continuity breaks", s.Handovers, want, s.ContinuityBreaks)
		}
	})
}
