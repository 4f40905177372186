package vclock

import (
	"sync"
	"time"
)

// Gate is a one-shot latch: goroutines Wait until someone calls Open.
// Opening an already-open gate is a no-op. It replaces the common
// close-a-channel idiom in clock-aware code. The zero value is a closed
// gate ready for use, so a Gate embeds by value without a constructor;
// plain Wait/Open cycles allocate nothing.
type Gate struct {
	mu   sync.Mutex
	open bool
	// waiters holds parked plain Waits; only Open wakes them, so they
	// need no settle flag. wbuf backs the common 1–2 waiter case inline.
	waiters []*waiter
	wbuf    [2]*waiter
	// twaiters holds WaitTimeout parkers, which race Open against their
	// deadline and therefore carry a settle flag; twbuf backs the common
	// single one inline.
	twaiters []*gateWaiter
	twbuf    [1]*gateWaiter
}

// gateWaiter is one WaitTimeout. settled and opened are guarded by the
// gate's lock: the first of Open and the deadline to settle the wait
// decides whether it opened.
type gateWaiter struct {
	w       *waiter
	settled bool
	opened  bool
}

// NewGate returns a closed gate. The zero value is also usable.
func NewGate() *Gate { return &Gate{} }

// Open releases all current and future waiters. Waking is done with the
// gate lock held: wake never blocks (buffered channel plus clock
// bookkeeping), and doing it inline avoids copying the waiter list.
func (g *Gate) Open() {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return
	}
	g.open = true
	for i, w := range g.waiters {
		g.waiters[i] = nil
		w.wake()
	}
	g.waiters = nil
	for i, gw := range g.twaiters {
		g.twaiters[i] = nil
		if !gw.settled {
			gw.settled = true
			gw.w.wake()
		}
	}
	g.twaiters = nil
	g.mu.Unlock()
}

// IsOpen reports whether the gate has been opened.
func (g *Gate) IsOpen() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.open
}

// Wait parks until the gate opens (returns immediately if already open).
func (g *Gate) Wait(clk *Virtual) {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return
	}
	w := clk.newWaiter()
	if g.waiters == nil {
		g.waiters = g.wbuf[:0]
	}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	w.wait()
	w.release()
}

// WaitTimeout parks until the gate opens or d elapses; it reports whether
// the gate opened.
func (g *Gate) WaitTimeout(clk *Virtual, d time.Duration) bool {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return true
	}
	gw := &gateWaiter{w: clk.newWaiter(), opened: true}
	if g.twaiters == nil {
		g.twaiters = g.twbuf[:0]
	}
	g.twaiters = append(g.twaiters, gw)
	g.mu.Unlock()

	pending := clk.Post2(d, gateTimeout, g, gw)
	gw.w.wait()
	pending.Stop()
	gw.w.release()
	return gw.opened
}

// gateTimeout is WaitTimeout's deadline, a Post2 callback on the gate
// and its waiter: unless Open settled the wait first, it takes the
// waiter off the gate, so a gate that never opens does not collect its
// timed-out waits, and wakes it as timed out.
func gateTimeout(a, b any) {
	g, gw := a.(*Gate), b.(*gateWaiter)
	g.mu.Lock()
	if gw.settled {
		g.mu.Unlock()
		return
	}
	gw.settled = true
	gw.opened = false
	for i, cur := range g.twaiters {
		if cur == gw {
			last := len(g.twaiters) - 1
			copy(g.twaiters[i:], g.twaiters[i+1:])
			g.twaiters[last] = nil
			g.twaiters = g.twaiters[:last]
			break
		}
	}
	g.mu.Unlock()
	gw.w.wake()
}

// Group waits for a collection of clock goroutines to finish, mirroring
// sync.WaitGroup.
type Group struct {
	mu    sync.Mutex
	n     int
	gates []*waiter
}

// Add increments the pending-goroutine count by delta.
func (g *Group) Add(delta int) {
	g.mu.Lock()
	g.n += delta
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	var wakes []*waiter
	if g.n == 0 {
		wakes = g.gates
		g.gates = nil
	}
	g.mu.Unlock()
	for _, wk := range wakes {
		wk.wake()
	}
}

// Done decrements the pending count by one.
func (g *Group) Done() { g.Add(-1) }

// Go runs fn on clk as a tracked goroutine counted by the group.
func (g *Group) Go(clk *Virtual, fn func()) {
	g.Add(1)
	clk.Go(func() {
		defer g.Done()
		fn()
	})
}

// Wait parks until the counter reaches zero.
func (g *Group) Wait(clk *Virtual) {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		return
	}
	w := clk.newWaiter()
	g.gates = append(g.gates, w)
	g.mu.Unlock()
	w.wait()
	w.release()
}
