// Package vclock provides the time substrate for the Transparent Edge
// emulation: a deterministic virtual-time (discrete-event) clock and a
// wall-clock implementation behind a common interface.
//
// All emulated components (network links, container runtimes, control
// loops) sleep and schedule timers exclusively through a Clock. Under the
// Virtual implementation, goroutines park when they wait and simulated
// time jumps straight to the next pending event, so a five-minute
// scenario completes in milliseconds of host time and produces identical
// timings on every run.
package vclock

import (
	"runtime"
	"sync"
	"time"
)

// Clock is the time source used by every emulated component.
//
// Goroutines that interact with a Virtual clock must be started through
// Go (or wrapped by Run) so the scheduler can tell runnable goroutines
// from parked ones; blocking through any primitive in this package
// (Sleep, Mailbox, Cond, Gate) parks the goroutine correctly.
type Clock interface {
	// Now returns the current (virtual or wall) time.
	Now() time.Time
	// Sleep pauses the calling goroutine for d of clock time.
	// Non-positive durations yield without advancing time.
	Sleep(d time.Duration)
	// Post schedules fn to run inline on the clock's event loop after d.
	// fn must not block: it may schedule further events, send to
	// mailboxes, and wake waiters, but must never park. Under a Virtual
	// clock this fires with no per-event goroutine; code that blocks
	// belongs in a goroutine started by Go.
	Post(d time.Duration, fn func()) Pending
	// Post2 is Post for a pre-bound callback fn(a, b). With a top-level
	// fn and pointer operands the call allocates nothing.
	Post2(d time.Duration, fn func(a, b any), a, b any) Pending
	// Go starts fn in a goroutine tracked by this clock.
	Go(fn func())
	// Since returns the clock time elapsed since t.
	Since(t time.Time) time.Duration

	// newWaiter returns a pooled park/unpark pair: wait() parks the
	// calling goroutine until wake() is called (exactly once each). It
	// backs the blocking primitives in this package and keeps the
	// virtual scheduler's runnable count accurate. Callers release() the
	// waiter once wait has returned and no reference to it remains.
	newWaiter() *waiter
}

// waiter is the parking primitive behind Sleep, Mailbox, Cond, and Gate:
// one reusable buffered channel plus the bookkeeping that tells a
// Virtual clock the goroutine is parked. Waiters are recycled through a
// per-clock pool so steady-state parking allocates nothing.
type waiter struct {
	v    *Virtual // nil when owned by a Real clock
	pool *sync.Pool
	ch   chan struct{}

	// Virtual only, guarded by v.mu: where the waiter is in one
	// park/wake cycle, and its links on the clock's parked list while
	// that is waiterParked. The goroutine that received the token owns
	// both until it parks again (the send orders the accesses).
	state      waiterState
	next, prev *waiter
}

type waiterState uint8

const (
	waiterIdle   waiterState = iota
	waiterParked             // on v.parked, no token sent
	waiterWoken              // token sent or about to be; wait will not link
	waiterDead               // token sent by the clock's stop: exit at the park
)

// wait parks the calling goroutine until wake is called.
func (w *waiter) wait() {
	if v := w.v; v != nil {
		v.mu.Lock()
		v.parkLocked(w)
		v.running--
		v.maybeAdvanceLocked()
		v.mu.Unlock()
	}
	<-w.ch
	w.resume()
}

// resume runs on the parked goroutine once it holds its token: it ends
// the goroutine if the token came from the clock's stop and otherwise
// readies the waiter for its next cycle.
func (w *waiter) resume() {
	if w.state == waiterDead {
		runtime.Goexit()
	}
	w.state = waiterIdle
}

// wake unparks the waiter. It must be called exactly once per wait, and
// may come before it. A stopped clock ignores it: the waiter's goroutine
// has been released already, or will be when it parks.
func (w *waiter) wake() {
	if v := w.v; v != nil {
		v.mu.Lock()
		if v.stopped {
			v.mu.Unlock()
			return
		}
		v.unparkLocked(w)
		v.running++
		v.mu.Unlock()
	}
	w.ch <- struct{}{}
}

// release returns the waiter to its clock's pool. Only call it after
// wait has returned and every party that could wake it has settled.
func (w *waiter) release() {
	if w.pool != nil {
		w.pool.Put(w)
	}
}

// Pending is a handle to one scheduled Post/Post2 call.
// The zero value is valid and refers to nothing; Stop on it reports
// false.
type Pending struct {
	v   *Virtual
	ev  *event
	gen uint64
	rt  *time.Timer // wall-clock backing, for Real
}

// Stop cancels the scheduled call. It reports whether the call was
// prevented from running; false means it already ran, was already
// stopped, or the handle is zero.
func (p Pending) Stop() bool {
	if p.rt != nil {
		return p.rt.Stop()
	}
	if p.v == nil {
		return false
	}
	return p.v.stopEvent(p.ev, p.gen)
}
