package openflow

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// ofEnv wires client—switch—server plus an edge host on a third port.
type ofEnv struct {
	clk    *vclock.Virtual
	net    *netem.Network
	sw     *Switch
	client *netem.Host
	cloud  *netem.Host
	edge   *netem.Host
}

func newOFEnv(clk *vclock.Virtual) *ofEnv {
	n := netem.NewNetwork(clk, 1)
	client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
	cloud := n.NewHost("cloud", netem.ParseIP("203.0.113.1"))
	edge := n.NewHost("edge", netem.ParseIP("10.0.0.2"))
	sw := NewSwitch(n, "gnb", 3)
	n.Connect(client.NIC(), sw.Port(1), netem.LinkConfig{Latency: time.Millisecond})
	n.Connect(cloud.NIC(), sw.Port(2), netem.LinkConfig{Latency: 20 * time.Millisecond})
	n.Connect(edge.NIC(), sw.Port(3), netem.LinkConfig{Latency: time.Millisecond})
	sw.AddRoute(client.IP(), 1)
	sw.AddRoute(edge.IP(), 3)
	sw.SetDefaultRoute(2) // unknown destinations head for the cloud
	return &ofEnv{clk: clk, net: n, sw: sw, client: client, cloud: cloud, edge: edge}
}

func TestMatchCovers(t *testing.T) {
	pkt := &netem.Packet{
		Src: netem.ParseHostPort("192.168.1.10:50000"),
		Dst: netem.ParseHostPort("203.0.113.1:80"),
	}
	cases := []struct {
		m    Match
		in   int
		want bool
	}{
		{Match{}, 1, true},
		{Match{DstIP: pkt.Dst.IP, DstPort: 80}, 1, true},
		{Match{DstIP: pkt.Dst.IP, DstPort: 443}, 1, false},
		{Match{InPort: 1}, 1, true},
		{Match{InPort: 2}, 1, false},
		{Match{SrcIP: pkt.Src.IP, SrcPort: 50000}, 1, true},
		{Match{SrcIP: netem.ParseIP("9.9.9.9")}, 1, false},
	}
	for i, tc := range cases {
		if got := tc.m.Covers(pkt, tc.in); got != tc.want {
			t.Errorf("case %d: Covers = %v, want %v", i, got, tc.want)
		}
	}
}

func TestNormalForwardingWithoutFlows(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		ln, _ := e.cloud.Listen(80)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if msg, err := c.Recv(); err == nil {
				c.Send(append([]byte("cloud:"), msg...))
			}
		})
		conn, err := e.client.Dial(e.cloud.Addr(80))
		if err != nil {
			t.Fatalf("dial through switch: %v", err)
		}
		conn.Send([]byte("x"))
		resp, err := conn.Recv()
		if err != nil || string(resp) != "cloud:x" {
			t.Errorf("resp = %q, %v", resp, err)
		}
		_, _, normal := e.sw.Counters()
		if normal == 0 {
			t.Error("no packets used NORMAL forwarding")
		}
	})
}

func TestTransparentRedirectRewrite(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		// The edge instance listens on a mapped port.
		ln, _ := e.edge.Listen(30080)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if msg, err := c.Recv(); err == nil {
				c.Send(append([]byte("edge:"), msg...))
			}
		})
		cloudAddr := e.cloud.Addr(80)
		edgeAddr := e.edge.Addr(30080)
		// Forward flow: client→registered address rewritten to the edge.
		e.sw.InstallFlow(FlowSpec{
			Priority: 20,
			Match:    Match{SrcIP: e.client.IP(), DstIP: cloudAddr.IP, DstPort: cloudAddr.Port},
			Actions:  []Action{SetDstIP{edgeAddr.IP}, SetDstPort{edgeAddr.Port}, Output{3}},
			Cookie:   7,
		})
		// Reverse flow: edge→client rewritten back to the cloud address.
		e.sw.InstallFlow(FlowSpec{
			Priority: 20,
			Match:    Match{SrcIP: edgeAddr.IP, SrcPort: edgeAddr.Port, DstIP: e.client.IP()},
			Actions:  []Action{SetSrcIP{cloudAddr.IP}, SetSrcPort{cloudAddr.Port}, Output{1}},
			Cookie:   7,
		})
		conn, err := e.client.Dial(cloudAddr)
		if err != nil {
			t.Fatalf("transparent dial failed: %v", err)
		}
		// Transparency: the client still believes it talks to the cloud.
		if conn.RemoteAddr() != cloudAddr {
			t.Errorf("client sees %v, want %v", conn.RemoteAddr(), cloudAddr)
		}
		conn.Send([]byte("x"))
		resp, err := conn.Recv()
		if err != nil || string(resp) != "edge:x" {
			t.Fatalf("resp = %q, %v (edge must serve the request)", resp, err)
		}
		// The flow counters must show traffic on both directions.
		for _, f := range e.sw.Flows() {
			if f.Packets == 0 {
				t.Errorf("flow %v saw no packets", f.Match)
			}
		}
	})
}

func TestPriorityWins(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		got := make(chan int, 1)
		// Low priority: drop everything to the cloud IP.
		e.sw.InstallFlow(FlowSpec{Priority: 1, Match: Match{DstIP: e.cloud.IP()}, Actions: []Action{Drop{}}})
		// High priority: forward to port 2.
		e.sw.InstallFlow(FlowSpec{Priority: 10, Match: Match{DstIP: e.cloud.IP()}, Actions: []Action{Output{2}}})
		ln, _ := e.cloud.Listen(80)
		clk.Go(func() {
			if _, err := ln.Accept(); err == nil {
				got <- 1
			}
		})
		if _, err := e.client.Dial(e.cloud.Addr(80)); err != nil {
			t.Fatalf("high-priority output flow not used: %v", err)
		}
	})
}

func TestPacketInAndPacketOutWithHold(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		packetIns, _ := connectMailboxes(e.sw, e.clk)
		cloudAddr := e.cloud.Addr(80)
		// Intercept rule for the registered service.
		e.sw.InstallFlow(FlowSpec{
			Priority: 10,
			Match:    Match{DstIP: cloudAddr.IP, DstPort: 80},
			Actions:  []Action{OutputController{}},
		})
		ln, _ := e.edge.Listen(30080)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if msg, err := c.Recv(); err == nil {
				c.Send(append([]byte("edge:"), msg...))
			}
		})
		// Emulated controller: hold the SYN for 700ms (deployment with
		// waiting), install redirect flows, then release the packet.
		clk.Go(func() {
			pin, ok := packetIns.Recv()
			if !ok {
				return
			}
			clk.Sleep(700 * time.Millisecond) // deployment time
			edgeAddr := e.edge.Addr(30080)
			e.sw.InstallFlow(FlowSpec{
				Priority: 20,
				Match:    Match{SrcIP: pin.Pkt.Src.IP, SrcPort: pin.Pkt.Src.Port, DstIP: cloudAddr.IP, DstPort: 80},
				Actions:  []Action{SetDstIP{edgeAddr.IP}, SetDstPort{edgeAddr.Port}, Output{3}},
			})
			e.sw.InstallFlow(FlowSpec{
				Priority: 20,
				Match:    Match{SrcIP: edgeAddr.IP, SrcPort: edgeAddr.Port, DstIP: pin.Pkt.Src.IP, DstPort: pin.Pkt.Src.Port},
				Actions:  []Action{SetSrcIP{cloudAddr.IP}, SetSrcPort{80}, Output{1}},
			})
			e.sw.PostPacketOut(pin.Pkt, pin.InPort, nil, func(any) {}, nil) // OFPP_TABLE
		})
		start := clk.Now()
		conn, err := e.client.Dial(cloudAddr)
		if err != nil {
			t.Fatalf("held dial failed: %v", err)
		}
		elapsed := clk.Since(start)
		if elapsed < 700*time.Millisecond {
			t.Errorf("handshake completed in %v; the hold did not happen", elapsed)
		}
		conn.Send([]byte("q"))
		resp, err := conn.Recv()
		if err != nil || string(resp) != "edge:q" {
			t.Errorf("resp = %q, %v", resp, err)
		}
		punted, _, _ := e.sw.Counters()
		if punted == 0 {
			t.Error("no packet-in recorded")
		}
	})
}

func TestIdleTimeoutEvictsAndNotifies(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		_, removals := connectMailboxes(e.sw, e.clk)
		e.sw.InstallFlow(FlowSpec{
			Priority:    20,
			Match:       Match{DstIP: e.cloud.IP(), DstPort: 80},
			Actions:     []Action{Output{2}},
			IdleTimeout: 2 * time.Second,
			Cookie:      42,
		})
		if len(e.sw.Flows()) != 1 {
			t.Fatal("flow not installed")
		}
		msg, ok := removals.RecvTimeout(10 * time.Second)
		if !ok {
			t.Fatal("no FlowRemoved after idle timeout")
		}
		if msg.Cookie != 42 || !msg.IdleTimeout {
			t.Errorf("FlowRemoved = %+v", msg)
		}
		if len(e.sw.Flows()) != 0 {
			t.Error("flow still installed after eviction")
		}
	})
}

func TestIdleTimeoutRefreshedByTraffic(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		_, removals := connectMailboxes(e.sw, e.clk)
		e.sw.InstallFlow(FlowSpec{
			Priority:    20,
			Match:       Match{DstIP: e.cloud.IP()},
			Actions:     []Action{Output{2}},
			IdleTimeout: 3 * time.Second,
			Cookie:      1,
		})
		ln, _ := e.cloud.Listen(80)
		clk.Go(func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		})
		// Touch the flow every 2s: it must survive 10s.
		for i := 0; i < 5; i++ {
			clk.Sleep(2 * time.Second)
			if conn, err := e.client.Dial(e.cloud.Addr(80)); err == nil {
				conn.Close()
			}
		}
		if _, ok := removals.TryRecv(); ok {
			t.Error("active flow evicted")
		}
		// Now go silent: eviction follows.
		if _, ok := removals.RecvTimeout(10 * time.Second); !ok {
			t.Error("idle flow not evicted after traffic stopped")
		}
	})
}

func TestHardTimeoutEvicts(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		_, removals := connectMailboxes(e.sw, e.clk)
		e.sw.InstallFlow(FlowSpec{
			Priority:    20,
			Match:       Match{DstIP: e.cloud.IP()},
			Actions:     []Action{Output{2}},
			HardTimeout: time.Second,
			Cookie:      9,
		})
		msg, ok := removals.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatal("no FlowRemoved after hard timeout")
		}
		if msg.IdleTimeout {
			t.Error("hard eviction flagged as idle")
		}
	})
}

func TestDeleteFlowsByCookie(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		e.sw.InstallFlow(FlowSpec{Priority: 1, Match: Match{DstPort: 80}, Actions: []Action{Drop{}}, Cookie: 5})
		e.sw.InstallFlow(FlowSpec{Priority: 1, Match: Match{DstPort: 81}, Actions: []Action{Drop{}}, Cookie: 5})
		e.sw.InstallFlow(FlowSpec{Priority: 1, Match: Match{DstPort: 82}, Actions: []Action{Drop{}}, Cookie: 6})
		if got := e.sw.DeleteFlows(5); got != 2 {
			t.Errorf("DeleteFlows removed %d, want 2", got)
		}
		flows := e.sw.Flows()
		if len(flows) != 1 || flows[0].Cookie != 6 {
			t.Errorf("remaining flows = %v", flows)
		}
	})
}

func TestUnconnectedControllerDropsPuntedPackets(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		e.sw.InstallFlow(FlowSpec{
			Priority: 10,
			Match:    Match{DstIP: e.cloud.IP()},
			Actions:  []Action{OutputController{}},
		})
		// Dial fails: punted packets go nowhere without a controller.
		if _, err := e.client.DialTimeout(e.cloud.Addr(80), 3*time.Second); err == nil {
			t.Error("dial succeeded though packets were punted into the void")
		}
	})
}

func TestEmptyActionListDrops(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		e := newOFEnv(clk)
		e.sw.InstallFlow(FlowSpec{Priority: 10, Match: Match{DstIP: e.cloud.IP()}, Actions: nil})
		if _, err := e.client.DialTimeout(e.cloud.Addr(80), 2*time.Second); err == nil {
			t.Error("dial succeeded despite drop-by-default")
		}
		_, dropped, _ := e.sw.Counters()
		if dropped == 0 {
			t.Error("no drops counted")
		}
	})
}

// Property: a wildcard-reduced match always covers at least the packets
// its fully specified version covers.
func TestMatchWildcardWideningProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, inPort uint8, wildMask uint8) bool {
		pkt := &netem.Packet{
			Src: netem.HostPort{IP: netem.IP(srcIP), Port: srcPort},
			Dst: netem.HostPort{IP: netem.IP(dstIP), Port: dstPort},
		}
		in := int(inPort%4) + 1
		full := Match{InPort: in, SrcIP: pkt.Src.IP, DstIP: pkt.Dst.IP, SrcPort: pkt.Src.Port, DstPort: pkt.Dst.Port}
		wide := full
		if wildMask&1 != 0 {
			wide.InPort = 0
		}
		if wildMask&2 != 0 {
			wide.SrcIP = 0
		}
		if wildMask&4 != 0 {
			wide.DstIP = 0
		}
		if wildMask&8 != 0 {
			wide.SrcPort = 0
		}
		if wildMask&16 != 0 {
			wide.DstPort = 0
		}
		if full.Covers(pkt, in) && !wide.Covers(pkt, in) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRangeRoute pins the NORMAL-forwarding precedence with a prefix
// route installed: exact host routes beat the range, the range beats
// the default, non-matching addresses still take the default, and
// installing or updating a range bumps the forwarding epoch (the
// microflow cache must notice).
func TestRangeRoute(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		env := newOFEnv(clk)
		sw := env.sw
		base, mask := netem.ParseIP("100.64.0.0"), netem.ParseIP("255.192.0.0")
		sw.mu.Lock()
		before := sw.epoch
		sw.mu.Unlock()
		sw.AddRouteRange(base, mask, 3)
		sw.mu.Lock()
		bumped := sw.epoch != before
		sw.mu.Unlock()
		if !bumped {
			t.Fatal("AddRouteRange did not bump the forwarding epoch")
		}
		sw.mu.Lock()
		defer sw.mu.Unlock()
		if got := sw.normalRouteLocked(base + 12345); got != 3 {
			t.Fatalf("in-range address routed to %d, want range port 3", got)
		}
		if got := sw.normalRouteLocked(netem.ParseIP("100.127.255.255")); got != 3 {
			t.Fatalf("last in-range address routed to %d, want 3", got)
		}
		if got := sw.normalRouteLocked(netem.ParseIP("100.128.0.0")); got != 2 {
			t.Fatalf("out-of-range address routed to %d, want default 2", got)
		}
		if got := sw.normalRouteLocked(env.client.IP()); got != 1 {
			t.Fatalf("exact host route returned %d, want 1", got)
		}
		// An exact route inside the block wins over the range.
		sw.routes[base+7] = 2
		if got := sw.normalRouteLocked(base + 7); got != 2 {
			t.Fatalf("exact route inside range returned %d, want 2", got)
		}
		// Re-adding the same block updates in place instead of stacking.
		n := len(sw.ranges)
		sw.mu.Unlock()
		sw.AddRouteRange(base, mask, 1)
		sw.mu.Lock()
		if len(sw.ranges) != n {
			t.Fatalf("duplicate range stacked: %d entries, want %d", len(sw.ranges), n)
		}
		if got := sw.normalRouteLocked(base + 12345); got != 1 {
			t.Fatalf("updated range routed to %d, want 1", got)
		}
	})
}
