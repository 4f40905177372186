package netem

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// rehomeTopo is a two-attachment-point topology for re-homing tests:
//
//	client — r1 — server
//	          |
//	         r2 (spare port for the client after the move)
//
// r1 and r2 are joined by a 2 ms trunk, like two gNBs sharing a
// backhaul.
type rehomeTopo struct {
	n      *Network
	client *Host
	server *Host
	r1, r2 *Router
	access LinkConfig
}

func buildRehomeTopo(clk *vclock.Virtual) *rehomeTopo {
	n := NewNetwork(clk, 1)
	tp := &rehomeTopo{
		n:      n,
		client: n.NewHost("client", ParseIP("10.0.0.1")),
		server: n.NewHost("server", ParseIP("10.0.0.100")),
		r1:     NewRouter(n, "r1", 4),
		r2:     NewRouter(n, "r2", 4),
		access: LinkConfig{Latency: 500 * time.Microsecond, Bandwidth: GbpsToBytes(1)},
	}
	n.Connect(tp.client.NIC(), tp.r1.Port(0), tp.access)
	n.Connect(tp.server.NIC(), tp.r1.Port(1), tp.access)
	n.Connect(tp.r1.Port(2), tp.r2.Port(2), LinkConfig{Latency: 2 * time.Millisecond, Bandwidth: GbpsToBytes(10)})
	tp.r1.AddRoute(tp.client.IP(), tp.r1.Port(0))
	tp.r1.AddRoute(tp.server.IP(), tp.r1.Port(1))
	tp.r2.SetDefault(tp.r2.Port(2)) // everything unknown: back over the trunk
	return tp
}

// rehomeToR2 moves the client's access link to r2 and updates routing:
// r2 reaches the client directly, r1 via the trunk.
func (tp *rehomeTopo) rehomeToR2(t *testing.T) {
	link := tp.n.Rehome(tp.client, tp.r2.Port(0), tp.access)
	if link == nil || tp.client.NIC().Peer() != tp.r2.Port(0) {
		t.Error("Rehome did not attach the client to r2")
	}
	tp.r2.AddRoute(tp.client.IP(), tp.r2.Port(0))
	tp.r1.AddRoute(tp.client.IP(), tp.r1.Port(2))
}

const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)

func fnvSum(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// TestRehomeSessionChecksum is the application-level continuity test: a
// session straddling the re-home must deliver exactly the bytes sent —
// zero lost, zero duplicated, in order — verified by checksumming both
// ends and echo-comparing every message. The handover comes either
// between two echoes or right after a send, with that message and its
// echo still on the wire.
func TestRehomeSessionChecksum(t *testing.T) {
	for _, tc := range []struct {
		name       string
		midMessage bool
	}{{"between_messages", false}, {"mid_message", true}} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.New()
			var failure string
			clk.Run(func() {
				tp := buildRehomeTopo(clk)
				ln, err := tp.server.Listen(80)
				if err != nil {
					failure = err.Error()
					return
				}
				var srvSum = fnvOffset
				var srvBytes, srvMsgs int
				clk.Go(func() {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					for {
						msg, err := conn.Recv()
						if err != nil {
							return
						}
						srvSum = fnvSum(srvSum, msg)
						srvBytes += len(msg)
						srvMsgs++
						if err := conn.Send(msg); err != nil { // echo
							return
						}
					}
				})

				conn, err := tp.client.Dial(HostPort{IP: tp.server.IP(), Port: 80})
				if err != nil {
					failure = "dial: " + err.Error()
					return
				}
				const msgs = 40
				var cliSum = fnvOffset
				var cliBytes int
				for i := 0; i < msgs; i++ {
					if i == msgs/2 && !tc.midMessage {
						tp.rehomeToR2(t)
					}
					payload := []byte(fmt.Sprintf("msg %03d on the move %0128d", i, i))
					cliSum = fnvSum(cliSum, payload)
					cliBytes += len(payload)
					if err := conn.Send(payload); err != nil {
						failure = fmt.Sprintf("send %d: %v", i, err)
						return
					}
					if i == msgs/2 && tc.midMessage {
						tp.rehomeToR2(t)
					}
					echo, err := conn.RecvTimeout(30 * time.Second)
					if err != nil {
						failure = fmt.Sprintf("recv %d: %v", i, err)
						return
					}
					if string(echo) != string(payload) {
						failure = fmt.Sprintf("echo %d mismatch: %q", i, echo)
						return
					}
					clk.Sleep(10 * time.Millisecond)
				}
				conn.Close()
				clk.Sleep(time.Second)
				if srvMsgs != msgs || srvBytes != cliBytes || srvSum != cliSum {
					failure = fmt.Sprintf("server saw %d msgs / %d bytes / sum %x, client sent %d / %d / %x",
						srvMsgs, srvBytes, srvSum, msgs, cliBytes, cliSum)
				}
			})
			if failure != "" {
				t.Fatal(failure)
			}
		})
	}
}

// TestRehomeDropsInGap verifies the cut-cable semantics: the severed
// link is marked down, and the session carries on over the new
// attachment point.
func TestRehomeDropsInGap(t *testing.T) {
	clk := vclock.New()
	var failure string
	clk.Run(func() {
		tp := buildRehomeTopo(clk)
		ln, err := tp.server.Listen(80)
		if err != nil {
			failure = err.Error()
			return
		}
		clk.Go(func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				clk.Go(func() {
					for {
						msg, err := conn.Recv()
						if err != nil {
							return
						}
						if conn.Send(msg) != nil {
							return
						}
					}
				})
			}
		})
		conn, err := tp.client.Dial(HostPort{IP: tp.server.IP(), Port: 80})
		if err != nil {
			failure = "dial: " + err.Error()
			return
		}
		for i := 0; i < 3; i++ {
			if err := conn.Send([]byte("warm")); err != nil {
				failure = err.Error()
				return
			}
			if _, err := conn.Recv(); err != nil {
				failure = err.Error()
				return
			}
		}
		oldLink := tp.client.NIC().link
		tp.rehomeToR2(t)
		if !oldLink.IsDown() {
			failure = "severed link not marked down"
			return
		}
		// The session still works over the new attachment point.
		if err := conn.Send([]byte("after")); err != nil {
			failure = "post-rehome send: " + err.Error()
			return
		}
		if _, err := conn.RecvTimeout(30 * time.Second); err != nil {
			failure = "post-rehome recv: " + err.Error()
			return
		}
		conn.Close()
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestRehomePanics covers the orchestration-bug guards.
func TestRehomePanics(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		loner := n.NewHost("loner", ParseIP("10.1.0.1"))
		r := NewRouter(n, "r", 2)
		mustPanic(t, "no access link", func() {
			n.Rehome(loner, r.Port(0), LinkConfig{})
		})
		a := n.NewHost("a", ParseIP("10.1.0.2"))
		b := n.NewHost("b", ParseIP("10.1.0.3"))
		n.Connect(a.NIC(), r.Port(0), LinkConfig{Latency: time.Millisecond})
		n.Connect(b.NIC(), r.Port(1), LinkConfig{Latency: time.Millisecond})
		mustPanic(t, "target connected", func() {
			n.Rehome(a, r.Port(1), LinkConfig{})
		})
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	fn()
}
