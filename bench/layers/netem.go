package layers

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// bouncer sends every packet it receives straight back out of its own
// port and counts deliveries.
type bouncer struct {
	port  *netem.Port
	count int
}

func (d *bouncer) DeviceName() string { return "bouncer" }

func (d *bouncer) HandlePacket(pkt *netem.Packet, _ *netem.Port) {
	d.count++
	pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
	d.port.Send(pkt)
}

// packetHop is one link traversal on the raw packet path: two devices
// ping-ponging one pooled packet.
func packetHop(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		n := netem.NewNetwork(clk, 1)
		a, b := &bouncer{}, &bouncer{}
		a.port, b.port = &netem.Port{Dev: a}, &netem.Port{Dev: b}
		n.Connect(a.port, b.port, netem.LinkConfig{Latency: 10 * time.Microsecond})
		pkt := netem.NewPacket()
		pkt.Src = netem.HostPort{IP: netem.ParseIP("10.0.0.1"), Port: 1}
		pkt.Dst = netem.HostPort{IP: netem.ParseIP("10.0.0.2"), Port: 2}
		a.port.Send(pkt)
		m.Measure(nil, func(hops int) {
			for target := a.count + b.count + hops; a.count+b.count < target; {
				clk.Sleep(10 * time.Microsecond)
			}
		})
		if d := a.count - b.count; d < -1 || d > 1 {
			m.Failf("deliveries %d vs %d: the packet did not alternate", a.count, b.count)
		}
	})
}

// echoServer accepts connections on ln and, per connection, answers
// with reply(total) each time need more bytes have arrived.
func echoServer(clk *vclock.Virtual, ln *netem.Listener, need int, reply func(got int) []byte) {
	clk.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			clk.Go(func() {
				got := 0
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if got += len(msg); got >= need {
						c.Send(reply(got))
						got = 0
					}
				}
			})
		}
	})
}

// reqResp is one complete exchange: handshake, one-byte request,
// response, close.
func reqResp(m *M) {
	clk := vclock.New()
	clk.Run(func() {
		n := netem.NewNetwork(clk, 1)
		cli := n.NewHost("a", netem.ParseIP("10.0.0.1"))
		srv := n.NewHost("b", netem.ParseIP("10.0.0.2"))
		n.Connect(cli.NIC(), srv.NIC(), netem.LinkConfig{Latency: time.Millisecond})
		ln, err := srv.Listen(80)
		if err != nil {
			m.Failf("listen: %v", err)
			return
		}
		echoServer(clk, ln, 1, func(int) []byte { return []byte("y") })
		m.Measure(nil, func(calls int) {
			for i := 0; i < calls; i++ {
				c, err := cli.Dial(srv.Addr(80))
				if err != nil {
					m.Failf("dial: %v", err)
					return
				}
				c.Send([]byte("x"))
				if resp, err := c.Recv(); err != nil || string(resp) != "y" {
					m.Failf("response %q, %v", resp, err)
				}
				c.Close()
			}
		})
	})
}

// bulk83k is the ResNet-shaped request of Table I: one 83 KiB POST in
// MSS-sized segments over a five-router cloud traversal, answered by a
// short response that states the byte count received.
func bulk83k(m *M) {
	const (
		mss       = 1448
		postBytes = 83 * 1024
		nRouters  = 5
	)
	clk := vclock.New()
	clk.Run(func() {
		n := netem.NewNetwork(clk, 1)
		cli := n.NewHost("client", netem.ParseIP("10.0.0.1"))
		srv := n.NewHost("srv", netem.ParseIP("10.0.1.1"))
		routers := make([]*netem.Router, nRouters)
		for i := range routers {
			routers[i] = netem.NewRouter(n, fmt.Sprintf("r%d", i+1), 2)
		}
		n.Connect(cli.NIC(), routers[0].Port(0), netem.LinkConfig{Latency: 500 * time.Microsecond})
		for i := 0; i < nRouters-1; i++ {
			n.Connect(routers[i].Port(1), routers[i+1].Port(0), netem.LinkConfig{Latency: 2 * time.Millisecond})
		}
		n.Connect(routers[nRouters-1].Port(1), srv.NIC(), netem.LinkConfig{Latency: 500 * time.Microsecond})
		for _, r := range routers {
			r.AddRoute(srv.IP(), r.Port(1))
			r.AddRoute(cli.IP(), r.Port(0))
		}
		ln, err := srv.Listen(80)
		if err != nil {
			m.Failf("listen: %v", err)
			return
		}
		echoServer(clk, ln, postBytes, func(got int) []byte { return []byte(fmt.Sprint(got)) })
		segment := make([]byte, mss)
		want := fmt.Sprint(postBytes)
		m.Measure(nil, func(calls int) {
			for i := 0; i < calls; i++ {
				c, err := cli.Dial(srv.Addr(80))
				if err != nil {
					m.Failf("dial: %v", err)
					return
				}
				for sent := 0; sent < postBytes; sent += mss {
					chunk := segment
					if rest := postBytes - sent; rest < mss {
						chunk = segment[:rest]
					}
					c.Send(chunk)
				}
				if resp, err := c.Recv(); err != nil || string(resp) != want {
					m.Failf("server acknowledged %q bytes (%v), want %s", resp, err, want)
				}
				c.Close()
			}
		})
	})
}
