package netem

import (
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// BenchmarkRequestResponse measures one complete emulated exchange:
// handshake, request, response, close.
func BenchmarkRequestResponse(b *testing.B) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		srv := n.NewHost("b", ParseIP("10.0.0.2"))
		n.Connect(a.NIC(), srv.NIC(), LinkConfig{Latency: time.Millisecond})
		ln, _ := srv.Listen(80)
		clk.Go(func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				clk.Go(func() {
					for {
						req, err := c.Recv()
						if err != nil {
							return
						}
						c.Send(req)
					}
				})
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := a.Dial(srv.Addr(80))
			if err != nil {
				b.Fatal(err)
			}
			c.Send([]byte("x"))
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
}

// A rig builds a topology on clk and returns one op on it. Each rig is
// measured by a benchmark (benchRig) and by TestDatapathAllocs, so the
// allocation ceilings hold exactly the code the benchmarks time.
type rig func(tb testing.TB, clk *vclock.Virtual) (op func())

// benchRig times rig's op.
func benchRig(b *testing.B, r rig) {
	clk := vclock.New()
	clk.Run(func() {
		op := r(b, clk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// fanInRig builds ten clients behind one router, all talking to an echo
// server on its eleventh port; one op is a round in which every client
// dials, sends a byte, reads the echo and closes, concurrently.
func fanInRig(_ testing.TB, clk *vclock.Virtual) func() {
	n := NewNetwork(clk, 1)
	r := NewRouter(n, "r", 11)
	srv := n.NewHost("srv", ParseIP("10.0.0.100"))
	n.Connect(srv.NIC(), r.Port(10), LinkConfig{})
	r.AddRoute(srv.IP(), r.Port(10))
	var hosts []*Host
	for i := 0; i < 10; i++ {
		h := n.NewHost(string(rune('a'+i)), ParseIP("10.0.0.1")+IP(i))
		n.Connect(h.NIC(), r.Port(i), LinkConfig{})
		r.AddRoute(h.IP(), r.Port(i))
		hosts = append(hosts, h)
	}
	ln, _ := srv.Listen(80)
	clk.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			clk.Go(func() {
				for {
					req, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(req)
				}
			})
		}
	})
	return func() {
		var g vclock.Group
		for _, h := range hosts {
			h := h
			g.Go(clk, func() {
				c, err := h.Dial(srv.Addr(80))
				if err != nil {
					return
				}
				c.Send([]byte("x"))
				c.Recv()
				c.Close()
			})
		}
		g.Wait(clk)
	}
}

// BenchmarkPacketSwitchingFanIn measures link throughput with many
// concurrent senders (fanInRig).
func BenchmarkPacketSwitchingFanIn(b *testing.B) { benchRig(b, fanInRig) }

// bulkRig builds the cloud-traversal bulk topology of the paper: client
// — RAN — core — transport — peering — cloud edge — server, a
// five-router chain of rate-less links with propagation delay. One op
// is a ResNet-shaped request (Table I): an 83 KiB POST in MSS-sized
// application segments, answered by a short response.
func bulkRig(tb testing.TB, clk *vclock.Virtual) func() {
	const (
		mss       = 1448
		postBytes = 83 * 1024
		nRouters  = 5
	)
	n := NewNetwork(clk, 1)
	client := n.NewHost("client", ParseIP("10.0.0.1"))
	srv := n.NewHost("srv", ParseIP("10.0.1.1"))
	var routers []*Router
	for i := 0; i < nRouters; i++ {
		routers = append(routers, NewRouter(n, "r"+string(rune('1'+i)), 2))
	}
	n.Connect(client.NIC(), routers[0].Port(0), LinkConfig{Latency: 500 * time.Microsecond})
	for i := 0; i < nRouters-1; i++ {
		n.Connect(routers[i].Port(1), routers[i+1].Port(0), LinkConfig{Latency: 2 * time.Millisecond})
	}
	n.Connect(routers[nRouters-1].Port(1), srv.NIC(), LinkConfig{Latency: 500 * time.Microsecond})
	for _, r := range routers {
		r.AddRoute(srv.IP(), r.Port(1))
		r.AddRoute(client.IP(), r.Port(0))
	}

	ln, _ := srv.Listen(80)
	clk.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			clk.Go(func() {
				got := 0
				for got < postBytes {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					got += len(msg)
				}
				c.Send([]byte("ok"))
			})
		}
	})

	segment := make([]byte, mss)
	return func() {
		c, err := client.Dial(srv.Addr(80))
		if err != nil {
			tb.Fatal(err)
		}
		for sent := 0; sent < postBytes; sent += mss {
			chunk := segment
			if rest := postBytes - sent; rest < mss {
				chunk = segment[:rest]
			}
			c.Send(chunk)
		}
		if _, err := c.Recv(); err != nil {
			tb.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkBulkTransfer measures one multi-hop 83 KiB POST (bulkRig).
func BenchmarkBulkTransfer(b *testing.B) { benchRig(b, bulkRig) }

// hopDevice bounces every received packet straight back out its own
// port, counting deliveries. It exercises the raw packet path — pooled
// packets, inline link events — with no transport on top.
type hopDevice struct {
	port  *Port
	count int64
}

func (d *hopDevice) DeviceName() string { return "hop" }

func (d *hopDevice) HandlePacket(pkt *Packet, in *Port) {
	d.count++
	pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
	d.port.Send(pkt)
}

// hopRig puts two hopDevices on a 10 µs link and one pooled packet in
// flight between them; one op lets the packet cross the link once more.
func hopRig(_ testing.TB, clk *vclock.Virtual) func() {
	n := NewNetwork(clk, 1)
	da, db := &hopDevice{}, &hopDevice{}
	da.port = &Port{Dev: da}
	db.port = &Port{Dev: db}
	n.Connect(da.port, db.port, LinkConfig{Latency: 10 * time.Microsecond})

	pkt := NewPacket()
	pkt.Src = HostPort{IP: ParseIP("10.0.0.1"), Port: 1}
	pkt.Dst = HostPort{IP: ParseIP("10.0.0.2"), Port: 2}
	da.port.Send(pkt)
	return func() {
		for target := da.count + db.count + 1; da.count+db.count < target; {
			clk.Sleep(10 * time.Microsecond)
		}
	}
}

// BenchmarkPacketHop measures one link traversal on the raw packet hot
// path: two devices ping-ponging a single pooled packet over a link.
// Steady state must allocate nothing — the packet, the delivery event,
// and the park/unpark machinery are all recycled.
func BenchmarkPacketHop(b *testing.B) { benchRig(b, hopRig) }

// TestDatapathAllocs holds the three datapath rigs to their allocation
// ceilings per op: a packet hop allocates nothing; a fan-in round
// (measured 82) and an 83 KiB five-router POST (measured 10) stay under
// ceilings with headroom for scheduling variance. Allocation counts are
// deterministic, so the ceilings hold on any host; the race detector's
// build allocates on its own and is skipped.
func TestDatapathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		rig     rig
	}{
		{"hop", 1000, 0, hopRig},
		{"fan_in", 50, 96, fanInRig},
		{"bulk", 20, 16, bulkRig},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := vclock.New()
			clk.Run(func() {
				got := testing.AllocsPerRun(c.runs, c.rig(t, clk))
				t.Logf("%v allocs/op", got)
				if got > c.ceiling {
					t.Errorf("%v allocs/op, ceiling %v", got, c.ceiling)
				}
			})
		})
	}
}
