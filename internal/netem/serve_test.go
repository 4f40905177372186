package netem

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// echoAfter is a Handler that answers "re:<req>" after waiting each of
// waits in turn, one stage per wait, and refuses a request "no".
func echoAfter(waits ...time.Duration) Handler {
	return func(req []byte, stage int) Step {
		if string(req) == "no" {
			return Refuse()
		}
		if stage < len(waits) {
			return After(waits[stage])
		}
		return Reply(append([]byte("re:"), req...))
	}
}

// TestServe: Listener.Serve answers every request on every connection,
// aborts a connection whose request the handler refuses (the peer sees
// ErrReset), and does all of it as clock events: no goroutine is
// spawned, and none is left once the clients have hung up.
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
		ln.Serve(echoAfter(time.Millisecond))

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
		if got := clk.Spawned() - spawned; got != 0 {
			t.Errorf("serving 3 connections spawned %d goroutines, want 0", got)
		}

		for _, c := range conns {
			c.Close()
		}
		ln.Close()
		clk.Sleep(time.Second)
		if n := serverConns(b); n != 0 {
			t.Errorf("%d server connections left after the clients closed", n)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines after Close, %d before Serve", n, before)
		}
	})
}

// serverConns counts the connections h still demultiplexes to.
func serverConns(h *Host) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// servedPair is a client and a server host on one direct link of
// latency lat, the server serving port 80 with handle.
func servedPair(t *testing.T, clk *vclock.Virtual, lat time.Duration, handle Handler) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork(clk, 1)
	a := n.NewHost("a", ParseIP("10.0.0.1"))
	b := n.NewHost("b", ParseIP("10.0.0.2"))
	n.Connect(a.NIC(), b.NIC(), LinkConfig{Latency: lat})
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	ln.Serve(handle)
	return n, a, b
}

// TestServePipelinedInOrder: requests sent back to back on one
// connection are answered in order, one at a time, and each stage's wait
// adds up exactly on the virtual axis: the k-th answer leaves the server
// k × (3 ms + 2 ms) after the requests arrived.
func TestServePipelinedInOrder(t *testing.T) {
	const lat = 5 * time.Millisecond
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := servedPair(t, clk, lat, echoAfter(3*time.Millisecond, 2*time.Millisecond))
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		for i := 0; i < 3; i++ {
			if err := c.Send([]byte(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			resp, err := c.Recv()
			if err != nil || string(resp) != fmt.Sprintf("re:%d", i) {
				t.Fatalf("answer %d: got %q, %v", i, resp, err)
			}
			want := 2*lat + time.Duration(i+1)*5*time.Millisecond
			if got := clk.Since(start); got != want {
				t.Errorf("answer %d at %v, want %v", i, got, want)
			}
		}
		c.Close()
	})
}

// TestServeFinMidRequest: a FIN that arrives while a request is in
// progress does not cut it short. The server sends the answer, then its
// own FIN, and forgets the connection.
func TestServeFinMidRequest(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n, a, b := servedPair(t, clk, time.Millisecond, echoAfter(10*time.Millisecond))
		var fromServer []TCPFlags
		n.SetCapture(func(_ time.Time, pkt *Packet) {
			if pkt.Src.IP == b.IP() {
				fromServer = append(fromServer, pkt.Flags)
			}
		})
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		fromServer = fromServer[:0]
		c.Send([]byte("x"))
		clk.Sleep(5 * time.Millisecond)
		c.Close() // FIN reaches the server mid-request
		clk.Sleep(100 * time.Millisecond)
		n.SetCapture(nil)
		// The request's ACK, then the answer and the server's FIN, which
		// the client host resets, its connection being gone.
		want := []TCPFlags{FlagACK, FlagPSH, FlagFIN}
		if fmt.Sprint(fromServer) != fmt.Sprint(want) {
			t.Errorf("server sent %v, want %v", fromServer, want)
		}
		if n := serverConns(b); n != 0 {
			t.Errorf("%d server connections left", n)
		}
	})
}

// TestServePeerResetMidRequest: a peer's RST while a request is in
// progress leaves no connection behind, and the answer due later is not
// sent.
func TestServePeerResetMidRequest(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n, a, b := servedPair(t, clk, time.Millisecond, echoAfter(10*time.Millisecond))
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		c.Send([]byte("x"))
		clk.Sleep(5 * time.Millisecond)
		sent := 0
		n.SetCapture(func(_ time.Time, pkt *Packet) {
			if pkt.Src.IP == b.IP() {
				sent++
			}
		})
		c.Abort()
		clk.Sleep(2 * time.Millisecond)
		if n := serverConns(b); n != 0 {
			t.Errorf("%d server connections left after the peer's RST", n)
		}
		clk.Sleep(100 * time.Millisecond)
		n.SetCapture(nil)
		if sent != 0 {
			t.Errorf("server sent %d packets after the peer's RST, want 0", sent)
		}
	})
}

// TestServedRequestAllocs holds a request on an established served
// connection to one allocation and a whole dial, request and close to
// three.
func TestServedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	clk := vclock.New()
	clk.Run(func() {
		_, a, b := servedPair(t, clk, time.Millisecond, func(req []byte, stage int) Step {
			if stage == 0 {
				return After(100 * time.Microsecond)
			}
			return Reply(req)
		})
		req := []byte("GET / HTTP/1.1")
		c, err := a.Dial(b.Addr(80))
		if err != nil {
			t.Fatal(err)
		}
		request := func() {
			if err := c.Send(req); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		request()
		got := testing.AllocsPerRun(200, request)
		t.Logf("request on an established connection: %v allocs/op", got)
		if got > 1 {
			t.Errorf("request on an established connection: %v allocs/op, ceiling 1", got)
		}
		c.Close()

		session := func() {
			c, err := a.Dial(b.Addr(80))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Send(req); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
			c.Close()
			clk.Sleep(10 * time.Millisecond) // let the FINs settle
		}
		session()
		got = testing.AllocsPerRun(200, session)
		t.Logf("dial + request + close: %v allocs/op", got)
		if got > 3 {
			t.Errorf("dial + request + close: %v allocs/op, ceiling 3", got)
		}
	})
}
