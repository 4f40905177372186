// Package vclock provides the time substrate for the Transparent Edge
// emulation: a deterministic virtual-time (discrete-event) clock,
// Virtual, and the blocking primitives that park on it (Sleep, Mailbox,
// Gate, Group).
//
// All emulated components (network links, container runtimes, control
// loops) sleep and schedule timers exclusively through a *Virtual.
// Goroutines park when they wait and simulated time jumps straight to
// the next pending event, so a five-minute scenario completes in
// milliseconds of host time and produces identical timings on every
// run. Goroutines that block on the clock must be started through
// Virtual.Go (or wrapped by Virtual.Run) so the clock can tell runnable
// goroutines from parked ones.
package vclock

import "runtime"

// waiter is the parking primitive behind Sleep, Mailbox, Gate and
// Group: one reusable buffered channel plus the bookkeeping that tells
// the clock the goroutine is parked. Waiters are recycled through a
// freelist the clock owns, so steady-state parking allocates nothing
// and the freelist dies with the clock.
type waiter struct {
	v  *Virtual
	ch chan struct{}

	// Guarded by v.mu: where the waiter is in one park/wake cycle, and
	// its links on the clock's parked list while that is waiterParked.
	// The goroutine that received the token owns both until it parks
	// again (the send orders the accesses). A released waiter is on the
	// clock's freelist through next.
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
	v := w.v
	v.mu.Lock()
	v.parkLocked(w)
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
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
	v := w.v
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return
	}
	v.unparkLocked(w)
	v.running++
	v.mu.Unlock()
	w.ch <- struct{}{}
}

// release returns the waiter to its clock's freelist. Only call it
// after wait has returned and every party that could wake it has
// settled.
func (w *waiter) release() {
	v := w.v
	v.mu.Lock()
	w.next = v.wfree
	v.wfree = w
	v.mu.Unlock()
}

// Pending is a handle to one scheduled Post/Post2 call.
// The zero value is valid and refers to nothing; Stop on it reports
// false.
type Pending struct {
	v   *Virtual
	ev  *event
	gen uint64
}

// Stop cancels the scheduled call. It reports whether the call was
// prevented from running; false means it already ran, was already
// stopped, or the handle is zero.
func (p Pending) Stop() bool {
	if p.v == nil {
		return false
	}
	return p.v.stopEvent(p.ev, p.gen)
}
