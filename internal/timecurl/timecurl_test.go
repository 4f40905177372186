package timecurl

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

func setup(clk *vclock.Virtual, serverDelay time.Duration) (*netem.Host, netem.HostPort) {
	n := netem.NewNetwork(clk, 1)
	client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
	server := n.NewHost("server", netem.ParseIP("10.0.0.2"))
	n.Connect(client.NIC(), server.NIC(), netem.LinkConfig{Latency: 5 * time.Millisecond})
	ln, _ := server.Listen(80)
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
					clk.Sleep(serverDelay)
					c.Send(append([]byte("resp:"), req[:20]...))
				}
			})
		}
	})
	return client, server.Addr(80)
}

func TestDoMeasuresConnectAndTotal(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		client, addr := setup(clk, 10*time.Millisecond)
		res, err := Do(clk, client, Request{Target: addr})
		if err != nil {
			t.Fatal(err)
		}
		// Connect = SYN + SYN-ACK = 2 × 5ms.
		if res.Connect < 10*time.Millisecond || res.Connect > 15*time.Millisecond {
			t.Errorf("Connect = %v, want ≈10ms", res.Connect)
		}
		// Total = connect + request + server delay + response ≈ 30ms.
		if res.Total < 30*time.Millisecond || res.Total > 45*time.Millisecond {
			t.Errorf("Total = %v, want ≈30ms", res.Total)
		}
		if res.Total < res.Connect {
			t.Error("Total < Connect")
		}
		if res.ResponseBytes == 0 || len(res.Response) != res.ResponseBytes {
			t.Error("response accounting wrong")
		}
	})
}

func TestDoRefusedPort(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		client, addr := setup(clk, 0)
		closed := netem.HostPort{IP: addr.IP, Port: 81}
		if _, err := Do(clk, client, Request{Target: closed}); !errors.Is(err, netem.ErrRefused) {
			t.Errorf("err = %v, want ErrRefused", err)
		}
	})
}

func TestDoTimeout(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		client, addr := setup(clk, time.Hour) // server never answers in time
		start := clk.Now()
		_, err := Do(clk, client, Request{Target: addr, Timeout: 2 * time.Second})
		if err == nil {
			t.Fatal("no error despite silent server")
		}
		if d := clk.Since(start); d < 2*time.Second || d > 3*time.Second {
			t.Errorf("gave up after %v, want ≈2s", d)
		}
	})
}

func TestDoPayloadSizeAffectsTotal(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := netem.NewNetwork(clk, 1)
		client := n.NewHost("client", netem.ParseIP("192.168.1.10"))
		server := n.NewHost("server", netem.ParseIP("10.0.0.2"))
		// 1 MB/s: an 83 KiB payload takes ≈85ms to serialize.
		n.Connect(client.NIC(), server.NIC(), netem.LinkConfig{Latency: time.Millisecond, Bandwidth: 1e6})
		ln, _ := server.Listen(80)
		clk.Go(func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				clk.Go(func() {
					if _, err := c.Recv(); err == nil {
						c.Send([]byte("ok"))
					}
				})
			}
		})
		small, err := Do(clk, client, Request{Target: server.Addr(80)})
		if err != nil {
			t.Fatal(err)
		}
		large, err := Do(clk, client, Request{Target: server.Addr(80), Method: "POST", PayloadSize: 83 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		if large.Total < small.Total+50*time.Millisecond {
			t.Errorf("POST 83KiB (%v) not slower than GET (%v)", large.Total, small.Total)
		}
	})
}

// TestRequestHeaderMatchesFmt: the request header is byte for byte what
// its former fmt.Sprintf form rendered, and the payload's zero bytes
// follow it.
func TestRequestHeaderMatchesFmt(t *testing.T) {
	f := func(method, path string, ip uint32, port uint16, payload uint16) bool {
		target := netem.HostPort{IP: netem.IP(ip), Port: port}
		header := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: %s\r\n\r\n", method, path, target)
		return string(request(method, path, target, int(payload))) == header+string(make([]byte, payload))
	}
	if !f("GET", "/", uint32(netem.ParseIP("203.0.113.1")), 80, 0) {
		t.Errorf("GET / to 203.0.113.1:80 renders %q", request("GET", "/", netem.ParseHostPort("203.0.113.1:80"), 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRequestAllocs: a request, header and payload, is one allocation,
// also for the longest address.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	target := netem.ParseHostPort("255.255.255.255:65535")
	if n := testing.AllocsPerRun(100, func() { _ = request("DELETE", "/a/b", target, 83*1024) }); n != 1 {
		t.Errorf("request allocates %.0f times, want 1", n)
	}
}
