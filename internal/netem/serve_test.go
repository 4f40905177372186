package netem

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestServe: Listener.Serve answers every request on every connection,
// aborts a connection whose request handle refuses (the peer sees
// ErrReset), and its accept loop ends on Close, leaving no goroutine
// behind once the clients have hung up.
func TestServe(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := pair(t, clk, LinkConfig{Latency: time.Millisecond})
		ln, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		spawned := clk.Spawned()
		ln.Serve(func(req []byte) ([]byte, bool) {
			if string(req) == "no" {
				return nil, false
			}
			return append([]byte("re:"), req...), true
		})

		var conns []*Conn
		for i := 0; i < 3; i++ {
			c, err := a.Dial(b.Addr(80))
			if err != nil {
				t.Fatalf("Dial %d: %v", i, err)
			}
			conns = append(conns, c)
		}
		for round := 0; round < 2; round++ {
			for i, c := range conns {
				req := fmt.Sprintf("%d/%d", i, round)
				if err := c.Send([]byte(req)); err != nil {
					t.Fatalf("Send %s: %v", req, err)
				}
				if resp, err := c.Recv(); err != nil || string(resp) != "re:"+req {
					t.Fatalf("request %s: got %q, %v", req, resp, err)
				}
			}
		}
		if got := clk.Spawned() - spawned; got != 1+3 {
			t.Errorf("Serve spawned %d goroutines for 3 connections, want 4", got)
		}

		refused := conns[1]
		if err := refused.Send([]byte("no")); err != nil {
			t.Fatal(err)
		}
		if _, err := refused.Recv(); !errors.Is(err, ErrReset) {
			t.Errorf("refused request: Recv = %v, want ErrReset", err)
		}
		if err := conns[2].Send([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if resp, err := conns[2].Recv(); err != nil || string(resp) != "re:after" {
			t.Errorf("sibling of the aborted connection: got %q, %v", resp, err)
		}

		for _, c := range conns {
			c.Close()
		}
		ln.Close()
		clk.Sleep(time.Second)
		n := runtime.NumGoroutine()
		for i := 0; i < 100 && n > before; i++ {
			time.Sleep(time.Millisecond) // an exited clock goroutine may still be unwinding
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("%d goroutines after Close, %d before Serve", n, before)
		}
	})
}
