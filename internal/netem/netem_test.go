package netem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

func TestParseIPRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255"} {
		if got := ParseIP(s).String(); got != s {
			t.Errorf("ParseIP(%q).String() = %q", s, got)
		}
	}
}

// TestAddrStringMatchesFmt: IP.String and HostPort.String render what
// their former fmt.Sprintf forms rendered, and allocate only the result.
func TestAddrStringMatchesFmt(t *testing.T) {
	f := func(ip IP, port uint16) bool {
		wantIP := fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
		hp := HostPort{IP: ip, Port: port}
		return ip.String() == wantIP && hp.String() == fmt.Sprintf("%s:%d", wantIP, port)
	}
	for _, ip := range []IP{0, 1, 0xffffffff, ParseIP("10.0.0.255")} {
		for _, port := range []uint16{0, 9, 80, 65535} {
			if !f(ip, port) {
				t.Errorf("%d:%d renders %q, %q", uint32(ip), port, ip.String(), HostPort{ip, port}.String())
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	hp := ParseHostPort("192.168.100.200:65535")
	if n := testing.AllocsPerRun(100, func() { _ = hp.String() }); n != 1 && !raceEnabled {
		t.Errorf("HostPort.String allocates %.0f times, want 1", n)
	}
}

func TestParseIPMalformedPanics(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ParseIP(%q) did not panic", s)
				}
			}()
			ParseIP(s)
		}()
	}
}

func TestIPOctetsRoundTrip(t *testing.T) {
	ip := ParseIP("10.20.30.40")
	if got := IPFromOctets(ip.Octets()); got != ip {
		t.Errorf("octet round trip: %s != %s", got, ip)
	}
}

func TestParseHostPort(t *testing.T) {
	hp := ParseHostPort("10.0.0.1:8080")
	if hp.IP != ParseIP("10.0.0.1") || hp.Port != 8080 {
		t.Errorf("ParseHostPort = %v", hp)
	}
	if hp.String() != "10.0.0.1:8080" {
		t.Errorf("String = %q", hp.String())
	}
	if hp.IsZero() {
		t.Error("non-zero endpoint reported zero")
	}
	if !(HostPort{}).IsZero() {
		t.Error("zero endpoint not reported zero")
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("flags = %q", got)
	}
	if got := TCPFlags(0).String(); got != "-" {
		t.Errorf("empty flags = %q", got)
	}
}

func TestTCPFlagsStringAllocs(t *testing.T) {
	// String builds into a fixed-size stack buffer; the only allocation
	// allowed is the final string copy.
	for _, f := range []TCPFlags{0, FlagSYN, FlagSYN | FlagACK, FlagFIN | FlagACK | FlagRST} {
		f := f
		if n := testing.AllocsPerRun(100, func() { _ = f.String() }); n > 1 {
			t.Errorf("%q: %v allocs/op, want <= 1", f.String(), n)
		}
	}
}

// pair builds a two-host topology connected through a router:
// a --- r --- b, with the given per-link config.
func pair(t *testing.T, clk *vclock.Virtual, cfg LinkConfig) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork(clk, 1)
	a := n.NewHost("a", ParseIP("10.0.0.1"))
	b := n.NewHost("b", ParseIP("10.0.0.2"))
	r := NewRouter(n, "r", 2)
	n.Connect(a.NIC(), r.Port(0), cfg)
	n.Connect(b.NIC(), r.Port(1), cfg)
	r.AddRoute(a.IP(), r.Port(0))
	r.AddRoute(b.IP(), r.Port(1))
	return n, a, b
}

func TestDialAndEcho(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			msg, err := c.Recv()
			if err != nil {
				t.Errorf("server Recv: %v", err)
				return
			}
			if err := c.Send(append([]byte("echo:"), msg...)); err != nil {
				t.Errorf("server Send: %v", err)
			}
		})
		start := clk.Now()
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if err := c.Send([]byte("hello")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(resp) != "echo:hello" {
			t.Errorf("resp = %q", resp)
		}
		// Handshake 2ms (SYN+SYNACK) + request 2ms (data+resp): 4 one-way
		// hops of 2ms each through the router = 8ms total round trips.
		if d := clk.Since(start); d < 6*time.Millisecond || d > 20*time.Millisecond {
			t.Errorf("request took %v, want ≈8ms", d)
		}
	})
}

func TestDialRefusedNoListener(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		start := clk.Now()
		_, err := a.Dial(b.Addr(81))
		if !errors.Is(err, ErrRefused) {
			t.Fatalf("err = %v, want ErrRefused", err)
		}
		if d := clk.Since(start); d > 10*time.Millisecond {
			t.Errorf("refusal took %v; should be one RTT", d)
		}
	})
}

func TestDialAfterListenerClose(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, _ := b.Listen(80)
		ln.Close()
		ln.Close() // idempotent
		if _, err := a.Dial(b.Addr(80)); !errors.Is(err, ErrRefused) {
			t.Fatalf("err = %v, want ErrRefused", err)
		}
		if b.Listening(80) {
			t.Error("port still listening after Close")
		}
	})
}

func TestListenDuplicatePort(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, _, b := pair(t, clk, LinkConfig{})
		if _, err := b.Listen(80); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Listen(80); err == nil {
			t.Error("duplicate Listen succeeded")
		}
	})
}

func TestAcceptTimeout(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, _, b := pair(t, clk, LinkConfig{})
		ln, _ := b.Listen(80)
		if _, err := ln.AcceptTimeout(time.Second); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		ln.Close()
		if _, err := ln.AcceptTimeout(time.Second); !errors.Is(err, ErrClosed) {
			t.Errorf("err after close = %v, want ErrClosed", err)
		}
	})
}

func TestLatencyAffectsHandshake(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: 25 * time.Millisecond})
		ln, _ := b.Listen(80)
		clk.Go(func() { ln.Accept() })
		start := clk.Now()
		if _, err := a.Dial(b.Addr(80)); err != nil {
			t.Fatal(err)
		}
		// SYN: 2 hops × 25ms; SYN-ACK: 2 hops × 25ms = 100ms.
		if d := clk.Since(start); d < 100*time.Millisecond || d > 120*time.Millisecond {
			t.Errorf("handshake took %v, want ≈100ms", d)
		}
	})
}

func TestBandwidthDelaysLargePayload(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		// 1 MB/s links, 100 KB payload → ≈100ms per link hop.
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond, Bandwidth: 1e6})
		ln, _ := b.Listen(80)
		received := vclock.NewGate()
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := c.Recv(); err == nil {
				received.Open()
			}
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		if err := c.Send(make([]byte, 100_000)); err != nil {
			t.Fatal(err)
		}
		received.Wait(clk)
		d := clk.Since(start)
		// Two serializing hops ≈ 200ms + latency.
		if d < 190*time.Millisecond || d > 400*time.Millisecond {
			t.Errorf("100KB over 1MB/s took %v, want ≈200ms", d)
		}
	})
}

func TestSerializationQueueing(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Bandwidth: 1e6})
		ln, _ := b.Listen(80)
		got := vclock.NewMailbox[int](clk)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for i := 0; i < 3; i++ {
				if _, err := c.Recv(); err != nil {
					return
				}
				got.Send(i)
			}
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		for i := 0; i < 3; i++ {
			c.Send(make([]byte, 50_000)) // 50ms each on the first hop
		}
		for i := 0; i < 3; i++ {
			got.Recv()
		}
		// Three back-to-back 50KB messages over 1MB/s: the third finishes
		// its first hop at 150ms, second hop adds ≈50ms → ≥200ms total.
		if d := clk.Since(start); d < 200*time.Millisecond {
			t.Errorf("3×50KB took %v, want ≥200ms (serialization must queue)", d)
		}
	})
}

func TestMessagesDeliveredInOrder(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, _ := b.Listen(80)
		done := vclock.NewGate()
		var fail string
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				fail = "accept failed"
				done.Open()
				return
			}
			for i := 0; i < 50; i++ {
				msg, err := c.Recv()
				if err != nil {
					fail = fmt.Sprintf("recv %d: %v", i, err)
					done.Open()
					return
				}
				if want := fmt.Sprintf("msg-%02d", i); string(msg) != want {
					fail = fmt.Sprintf("got %q want %q", msg, want)
					done.Open()
					return
				}
			}
			done.Open()
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			c.Send([]byte(fmt.Sprintf("msg-%02d", i)))
		}
		done.Wait(clk)
		if fail != "" {
			t.Error(fail)
		}
	})
}

func TestLossyLinkStillDelivers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond, LossRate: 0.2})
		ln, _ := b.Listen(80)
		done := vclock.NewGate()
		count := 0
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				done.Open()
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := c.Recv(); err != nil {
					break
				}
				count++
			}
			done.Open()
		})
		c, err := a.DialTimeout(b.Addr(80), time.Minute)
		if err != nil {
			t.Fatalf("Dial over lossy link: %v", err)
		}
		for i := 0; i < 20; i++ {
			c.Send([]byte{byte(i)})
		}
		done.Wait(clk)
		if count != 20 {
			t.Errorf("delivered %d/20 messages over 20%% lossy link", count)
		}
	})
}

// TestLossyLinkEchoStillFlows sends 20 messages across two lossy links
// and a router and has each one echoed: retransmission must recover
// every loss in both directions.
func TestLossyLinkEchoStillFlows(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond, LossRate: 0.2})
		ln, _ := b.Listen(80)
		count := 0
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for {
				msg, err := c.Recv()
				if err != nil {
					return
				}
				count++
				c.Send(msg)
			}
		})
		c, err := a.DialTimeout(b.Addr(80), time.Minute)
		if err != nil {
			t.Fatalf("Dial over lossy link: %v", err)
		}
		for i := 0; i < 20; i++ {
			c.Send([]byte{byte(i)})
			echo, err := c.Recv()
			if err != nil {
				t.Fatalf("echo %d over lossy link: %v", i, err)
			}
			if len(echo) != 1 || echo[0] != byte(i) {
				t.Fatalf("echo %d = %v", i, echo)
			}
		}
		if count != 20 {
			t.Errorf("delivered %d/20 messages over 20%% lossy link", count)
		}
		c.Close()
	})
}

func TestDialTimeoutExpires(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		// Host with an unconnected NIC: SYNs vanish.
		n := NewNetwork(clk, 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		start := clk.Now()
		_, err := a.DialTimeout(HostPort{IP: ParseIP("10.9.9.9"), Port: 80}, 3*time.Second)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if d := clk.Since(start); d != 3*time.Second {
			t.Errorf("timeout after %v, want 3s", d)
		}
	})
}

func TestDialExhaustsSynRetries(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		start := clk.Now()
		_, err := a.Dial(HostPort{IP: ParseIP("10.9.9.9"), Port: 80})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		// 1+2+4+8+16+32 = 63s of SYN backoff.
		if d := clk.Since(start); d != 63*time.Second {
			t.Errorf("gave up after %v, want 63s", d)
		}
	})
}

func TestAbortResetsPeer(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, _ := b.Listen(80)
		serverErr := vclock.NewMailbox[error](clk)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				serverErr.Send(err)
				return
			}
			_, err = c.Recv()
			serverErr.Send(err)
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		c.Abort()
		err, _ = serverErr.Recv()
		if !errors.Is(err, ErrReset) {
			t.Errorf("server saw %v, want ErrReset", err)
		}
	})
}

func TestCloseDeliversErrClosed(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, _ := b.Listen(80)
		result := vclock.NewMailbox[error](clk)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				result.Send(err)
				return
			}
			_, err = c.Recv()
			result.Send(err)
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		err, _ = result.Recv()
		if !errors.Is(err, ErrClosed) {
			t.Errorf("server Recv after client Close = %v, want ErrClosed", err)
		}
		if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after Close = %v, want ErrClosed", err)
		}
	})
}

func TestRecvTimeout(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, _ := b.Listen(80)
		clk.Go(func() { ln.Accept() })
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecvTimeout(time.Second); !errors.Is(err, ErrTimeout) {
			t.Errorf("RecvTimeout = %v, want ErrTimeout", err)
		}
	})
}

func TestLoopbackDelivery(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		ln, _ := a.Listen(80)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			msg, err := c.Recv()
			if err == nil {
				c.Send(msg)
			}
		})
		c, err := a.Dial(a.Addr(80))
		if err != nil {
			t.Fatalf("loopback Dial: %v", err)
		}
		c.Send([]byte("self"))
		msg, err := c.Recv()
		if err != nil || string(msg) != "self" {
			t.Errorf("loopback echo = %q, %v", msg, err)
		}
	})
}

func TestRouterDefaultRouteAndDrops(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		b := n.NewHost("b", ParseIP("10.0.0.2"))
		r := NewRouter(n, "r", 2)
		n.Connect(a.NIC(), r.Port(0), LinkConfig{})
		n.Connect(b.NIC(), r.Port(1), LinkConfig{})
		r.AddRoute(a.IP(), r.Port(0))
		r.SetDefault(r.Port(1)) // everything else goes to b
		ln, _ := b.Listen(80)
		clk.Go(func() { ln.Accept() })
		if _, err := a.Dial(b.Addr(80)); err != nil {
			t.Fatalf("Dial via default route: %v", err)
		}
		// A destination that routes back out of the ingress port drops.
		pkt := &Packet{Src: a.Addr(1), Dst: HostPort{IP: a.IP(), Port: 9}}
		r.HandlePacket(pkt, r.Port(0))
		if r.Dropped() != 1 {
			t.Errorf("dropped = %d, want 1", r.Dropped())
		}
	})
}

func TestDuplicateHostPanics(t *testing.T) {
	clk := vclock.New()
	n := NewNetwork(clk, 1)
	n.NewHost("a", ParseIP("10.0.0.1"))
	for _, tc := range []struct{ name, ip string }{
		{"a", "10.0.0.2"}, // duplicate name
		{"b", "10.0.0.1"}, // duplicate IP
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHost(%s,%s) did not panic", tc.name, tc.ip)
				}
			}()
			n.NewHost(tc.name, ParseIP(tc.ip))
		}()
	}
}

func TestHostLookups(t *testing.T) {
	clk := vclock.New()
	n := NewNetwork(clk, 1)
	a := n.NewHost("a", ParseIP("10.0.0.1"))
	if n.Host("a") != a || n.HostByIP(a.IP()) != a {
		t.Error("lookup mismatch")
	}
	if n.Host("zzz") != nil || n.HostByIP(ParseIP("9.9.9.9")) != nil {
		t.Error("missing host lookup returned non-nil")
	}
}

func TestLinkStats(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		b := n.NewHost("b", ParseIP("10.0.0.2"))
		l := n.Connect(a.NIC(), b.NIC(), LinkConfig{})
		ln, _ := b.Listen(80)
		clk.Go(func() { ln.Accept() })
		if _, err := a.Dial(b.Addr(80)); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		if st.SentAB == 0 || st.SentBA == 0 {
			t.Errorf("stats: sentAB=%d sentBA=%d, want >0 both ways", st.SentAB, st.SentBA)
		}
		if st.DroppedAB != 0 || st.DroppedBA != 0 {
			t.Errorf("loss-free link dropped packets: %d/%d", st.DroppedAB, st.DroppedBA)
		}
		if st.DeliveredAB != st.SentAB || st.DeliveredBA != st.SentBA {
			t.Errorf("loss-free link: delivered %d/%d != sent %d/%d",
				st.DeliveredAB, st.DeliveredBA, st.SentAB, st.SentBA)
		}
	})
}

// TestLinkStatsLossy pins the stats contract on a lossy link: Sent counts
// every packet offered (pre-loss) and Delivered = Sent − Dropped.
func TestLinkStatsLossy(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 7)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		b := n.NewHost("b", ParseIP("10.0.0.2"))
		l := n.Connect(a.NIC(), b.NIC(), LinkConfig{Latency: time.Millisecond, LossRate: 0.3})
		ln, _ := b.Listen(80)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			c.Send([]byte("payload"))
		}
		clk.Sleep(30 * time.Second)
		st := l.Stats()
		if st.DroppedAB == 0 && st.DroppedBA == 0 {
			t.Errorf("lossy link dropped nothing over %d+%d packets", st.SentAB, st.SentBA)
		}
		if st.DeliveredAB != st.SentAB-st.DroppedAB {
			t.Errorf("a→b delivered=%d, want sent−dropped=%d", st.DeliveredAB, st.SentAB-st.DroppedAB)
		}
		if st.DeliveredBA != st.SentBA-st.DroppedBA {
			t.Errorf("b→a delivered=%d, want sent−dropped=%d", st.DeliveredBA, st.SentBA-st.DroppedBA)
		}
		if st.DeliveredAB <= 0 || st.DeliveredBA <= 0 {
			t.Errorf("delivered counts not positive: %d/%d", st.DeliveredAB, st.DeliveredBA)
		}
	})
}

func TestConnectTwicePanics(t *testing.T) {
	clk := vclock.New()
	n := NewNetwork(clk, 1)
	a := n.NewHost("a", ParseIP("10.0.0.1"))
	b := n.NewHost("b", ParseIP("10.0.0.2"))
	n.Connect(a.NIC(), b.NIC(), LinkConfig{})
	defer func() {
		if recover() == nil {
			t.Error("double Connect did not panic")
		}
	}()
	c := n.NewHost("c", ParseIP("10.0.0.3"))
	n.Connect(a.NIC(), c.NIC(), LinkConfig{})
}

// Property: over a link that loses 15 % of its packets, a dial fails only
// once the SYN retry budget is lost — all synRetries SYNs went out and
// nothing ever came back — and then with ErrTimeout; on every connection
// that is established, every message arrives, complete and in order.
//
// The inputs are pinned: quick's default source is seeded from the wall
// clock, and about one loss seed in two thousand (0.28⁶ per dial: six
// attempts each losing the SYN or its SYN-ACK) exhausts the SYN budget,
// which the property used to count as a failure — a tier-1 flake. Such a
// seed is kept below as a named case.
func TestReliableDeliveryProperty(t *testing.T) {
	// run reports the dial's error and whether the property held.
	run := func(msgs [][]byte, lossSeed int64) (dialErr error, ok bool) {
		if len(msgs) > 30 {
			msgs = msgs[:30]
		}
		clk := vclock.New()
		ok = true
		clk.Run(func() {
			n := NewNetwork(clk, lossSeed)
			a := n.NewHost("a", ParseIP("10.0.0.1"))
			b := n.NewHost("b", ParseIP("10.0.0.2"))
			link := n.Connect(a.NIC(), b.NIC(), LinkConfig{Latency: time.Millisecond, LossRate: 0.15})
			ln, _ := b.Listen(80)
			done := vclock.NewGate()
			var got [][]byte
			clk.Go(func() {
				c, err := ln.Accept()
				if err != nil {
					done.Open()
					return
				}
				for range msgs {
					m, err := c.Recv()
					if err != nil {
						break
					}
					got = append(got, m)
				}
				done.Open()
			})
			c, err := a.DialTimeout(b.Addr(80), 2*time.Minute)
			if err != nil {
				dialErr = err
				st := link.Stats()
				if err != ErrTimeout || st.SentAB != int64(synRetries) || st.DeliveredBA != 0 {
					t.Logf("lossSeed %d: dial failed with %v after %d SYNs and %d replies delivered; only losing all %d SYNs' worth may fail it",
						lossSeed, err, st.SentAB, st.DeliveredBA, synRetries)
					ok = false
				}
				return
			}
			for _, m := range msgs {
				c.Send(m)
			}
			done.Wait(clk)
			if len(got) != len(msgs) {
				ok = false
				return
			}
			for i := range msgs {
				if !bytes.Equal(got[i], msgs[i]) {
					ok = false
					return
				}
			}
		})
		return dialErr, ok
	}
	holds := func(msgs [][]byte, lossSeed int64) bool {
		_, ok := run(msgs, lossSeed)
		return ok
	}
	if err := quick.Check(holds, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	// Regression: this seed loses all six handshake attempts (first seen
	// as a time-seeded quick.Check failure).
	t.Run("syn-budget-lost", func(t *testing.T) {
		dialErr, ok := run([][]byte{[]byte("hello")}, 1280580746285082854)
		if !ok {
			t.Error("a dial that lost its whole SYN budget broke the property")
		}
		if dialErr == nil {
			t.Error("the seed no longer loses the SYN budget (the loss draws changed): find one that does, or this case checks nothing")
		}
	})
}

// echoServer accepts one connection on ln and echoes every message,
// recording each arrival's virtual time.
func echoServer(clk *vclock.Virtual, ln *Listener, at *[]time.Duration) {
	clk.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			*at = append(*at, clk.Now().Sub(vclock.Epoch))
			c.Send(msg)
		}
	})
}

// TestLinkDownMidPathRecovers cuts the middle link of client — r1 — r2
// — srv under an established session: packets offered to the dead link
// are dropped and counted there, never delivered through it, and the
// transport's retransmission carries the message across once the link
// is back.
func TestLinkDownMidPathRecovers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		client := n.NewHost("client", ParseIP("10.0.0.1"))
		srv := n.NewHost("srv", ParseIP("10.0.1.1"))
		r1 := NewRouter(n, "r1", 2)
		r2 := NewRouter(n, "r2", 2)
		cfg := LinkConfig{Latency: time.Millisecond}
		n.Connect(client.NIC(), r1.Port(0), cfg)
		mid := n.Connect(r1.Port(1), r2.Port(0), cfg)
		n.Connect(r2.Port(1), srv.NIC(), cfg)
		for _, r := range []*Router{r1, r2} {
			r.AddRoute(srv.IP(), r.Port(1))
			r.AddRoute(client.IP(), r.Port(0))
		}
		ln, _ := srv.Listen(80)
		var srvAt []time.Duration
		echoServer(clk, ln, &srvAt)
		c, err := client.Dial(srv.Addr(80))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Send([]byte("warm"))
		if _, err := c.Recv(); err != nil {
			t.Fatalf("warm recv: %v", err)
		}
		clk.Sleep(100 * time.Millisecond)
		// The first transmission and the first retransmit (RTO 500ms) hit
		// the dead link; the link comes back at 1.2s, so the second
		// retransmit (1.5s, doubled RTO) lands.
		mid.SetDown(true)
		clk.Post(1200*time.Millisecond, func() { mid.SetDown(false) })
		start := clk.Now()
		c.Send([]byte("dark"))
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv across the cut: %v", err)
		}
		if took := clk.Since(start); took < 1500*time.Millisecond {
			t.Errorf("echo across the cut took %v, want >= 1.5s (second retransmit)", took)
		}
		if d := mid.Stats().DownDrops; d != 2 {
			t.Errorf("down-drops = %d, want 2 (first send and first retransmit)", d)
		}
		if len(srvAt) != 2 {
			t.Errorf("server saw %d messages, want 2", len(srvAt))
		}
		c.Close()
	})
}

// TestRouteChangeMidFlow reroutes a session from a slow to a fast branch
// of a diamond mid-stream: the very next messages take the new route,
// which shows as a shorter gap between server arrivals.
func TestRouteChangeMidFlow(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		client := n.NewHost("client", ParseIP("10.0.0.1"))
		srv := n.NewHost("srv", ParseIP("10.0.1.1"))
		r1 := NewRouter(n, "r1", 3) // port0 client, port1 slow branch, port2 fast branch
		slow := NewRouter(n, "slow", 2)
		fast := NewRouter(n, "fast", 2)
		rj := NewRouter(n, "rj", 3) // join: port0 slow, port1 fast, port2 srv
		n.Connect(client.NIC(), r1.Port(0), LinkConfig{Latency: time.Millisecond})
		n.Connect(r1.Port(1), slow.Port(0), LinkConfig{Latency: 20 * time.Millisecond})
		n.Connect(r1.Port(2), fast.Port(0), LinkConfig{Latency: 2 * time.Millisecond})
		n.Connect(slow.Port(1), rj.Port(0), LinkConfig{Latency: time.Millisecond})
		n.Connect(fast.Port(1), rj.Port(1), LinkConfig{Latency: time.Millisecond})
		n.Connect(rj.Port(2), srv.NIC(), LinkConfig{Latency: time.Millisecond})
		r1.AddRoute(srv.IP(), r1.Port(1)) // start on the slow branch
		r1.AddRoute(client.IP(), r1.Port(0))
		slow.AddRoute(srv.IP(), slow.Port(1))
		slow.AddRoute(client.IP(), slow.Port(0))
		fast.AddRoute(srv.IP(), fast.Port(1))
		fast.AddRoute(client.IP(), fast.Port(0))
		rj.AddRoute(srv.IP(), rj.Port(2))
		rj.AddRoute(client.IP(), rj.Port(0)) // replies retrace the slow branch

		ln, _ := srv.Listen(80)
		var srvAt []time.Duration
		echoServer(clk, ln, &srvAt)
		c, err := client.Dial(srv.Addr(80))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		for i := 0; i < 3; i++ {
			c.Send([]byte(fmt.Sprintf("slow%d", i)))
			c.Recv()
		}
		r1.AddRoute(srv.IP(), r1.Port(2))
		for i := 0; i < 3; i++ {
			c.Send([]byte(fmt.Sprintf("fast%d", i)))
			c.Recv()
		}
		c.Close()
		if len(srvAt) != 6 {
			t.Fatalf("server saw %d messages, want 6", len(srvAt))
		}
		if slowGap, fastGap := srvAt[2]-srvAt[1], srvAt[5]-srvAt[4]; fastGap >= slowGap {
			t.Fatalf("reroute not visible: slow-branch gap %v, fast-branch gap %v", slowGap, fastGap)
		}
	})
}
