package vclock

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic discrete-event clock.
//
// It tracks how many of its goroutines are runnable. Whenever that count
// drops to zero (everyone is sleeping or parked on a primitive from this
// package), the goroutine that parked last advances the clock to the
// earliest pending event and fires it. Events at the same instant fire in
// the order they were scheduled, so runs are reproducible.
//
// The engine is allocation-free on its steady-state paths: event structs
// and waiters (with their park/unpark channels) are recycled through
// freelists the clock owns, and Post/Post2 callbacks run inline on the
// advancing goroutine instead of spawning a goroutine per firing. When
// the freelist is empty an event comes from a chunk of eventChunk, so
// even a growing number of pending events allocates rarely.
type Virtual struct {
	mu      sync.Mutex
	seq     uint64
	sched   wheelSched // pending events
	running int
	spawned int64 // goroutines started via Go, guarded by mu
	stopped bool
	free    []*event // event freelist, guarded by mu
	chunk   []event  // the newest chunk's events never handed out, guarded by mu
	wfree   *waiter  // waiter freelist through waiter.next, guarded by mu

	// What Run's stop releases: the waiters whose goroutines are parked
	// (an intrusive list through waiter.next/prev, guarded by mu) and,
	// in live, the goroutines Go launched that have not left through
	// exit. Every live.Add is under mu on a clock not yet stopped, so
	// none can race the stop's Wait.
	parked *waiter
	live   sync.WaitGroup

	// The current time is base + offNS nanoseconds. offNS is written
	// under mu, by the advancing goroutine only, and read lock-free:
	// Now() is an atomic load instead of a mutex acquisition. Time only
	// moves while every goroutine is parked, so a runnable goroutine can
	// never observe it mid-update.
	base  time.Time
	offNS atomic.Int64
}

// eventKind selects how a popped event fires.
type eventKind uint8

const (
	// evWake unparks the event's waiter (Sleep wake-ups). Fires with the
	// clock mutex held; only touches scheduler state.
	evWake eventKind = iota
	// evPost2 runs fn2(a, b) inline on the advancing goroutine, without
	// the clock mutex. fn2 must not block; Post is Post2 with callFunc.
	evPost2
)

type event struct {
	// atNS is the firing instant in nanoseconds since the clock's base:
	// the one time axis events are filed, ordered and fired on.
	atNS int64
	seq  uint64
	// index is the event's position while it is in the near heap and 0
	// while it is on the wheel; the queue sets it to -1 when the event
	// pops or is removed, which is what stopEvent keys off.
	index int
	// next/prev/slot are the timing wheel's intrusive slot-list links
	// and the event's location code (level<<wheelSlotBits | slot, or
	// nearSlot).
	next, prev *event
	slot       int32
	// gen guards Pending handles against freelist reuse: a handle whose
	// generation no longer matches refers to a recycled event.
	gen  uint64
	kind eventKind
	fn2  func(a, b any)
	a, b any
	w    *waiter
}

// Epoch is the default start instant for simulations: an arbitrary fixed
// time so that absolute timestamps in traces are reproducible.
var Epoch = time.Date(2023, 2, 7, 12, 0, 0, 0, time.UTC)

// New returns a virtual clock starting at Epoch.
func New() *Virtual { return &Virtual{base: Epoch} }

// Now returns the current virtual time. It is a single atomic load:
// time only advances while every clock goroutine is parked, so the
// mirror can never be observed mid-update by runnable code.
func (v *Virtual) Now() time.Time {
	return v.base.Add(time.Duration(v.offNS.Load()))
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Run executes fn on the calling goroutine with that goroutine tracked by
// the clock. When fn returns or panics the clock stops and releases what
// it started: no further event fires, every goroutine parked on the
// clock leaves through runtime.Goexit at its park point — its deferred
// calls run, nothing after the park does — a goroutine still running
// leaves the same way at its next park, and Run returns once the last
// of them has exited, so nothing of a finished simulation runs beside
// the caller that reads its results. On a stopped clock Go starts
// nothing, Post and Post2 file a call that never happens,
// and a wake is ignored. Run is how a test or main function enters a
// simulation.
//
// The one rule this adds for simulation code: never park between a Lock
// and an Unlock that is not deferred. A released goroutine skips the
// Unlock, and another one's deferred call that takes the same lock then
// blocks Run for ever.
func (v *Virtual) Run(fn func()) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		panic("vclock: Run on a stopped clock")
	}
	v.running++
	v.mu.Unlock()

	defer func() {
		v.mu.Lock()
		v.running--
		v.stopped = true
		for w := v.parked; w != nil; w = v.parked {
			v.unparkLocked(w)
			w.state = waiterDead
			w.ch <- struct{}{}
		}
		v.mu.Unlock()
		v.live.Wait()
	}()
	fn()
}

// parkLocked files w as parked unless its wake got here first. On a
// stopped clock there is nothing left to wake it, so the goroutine exits
// instead. Callers hold v.mu and are about to give up the processor.
func (v *Virtual) parkLocked(w *waiter) {
	if w.state == waiterWoken {
		return
	}
	if v.stopped {
		v.mu.Unlock()
		runtime.Goexit()
	}
	w.state = waiterParked
	w.next = v.parked
	if w.next != nil {
		w.next.prev = w
	}
	v.parked = w
}

// unparkLocked marks w as holding (or about to be sent) its token and
// takes it off the parked list if it was on it. Callers hold v.mu.
func (v *Virtual) unparkLocked(w *waiter) {
	if w.state == waiterParked {
		if w.prev != nil {
			w.prev.next = w.next
		} else {
			v.parked = w.next
		}
		if w.next != nil {
			w.next.prev = w.prev
		}
		w.next, w.prev = nil, nil
	}
	w.state = waiterWoken
}

// reserveStack grows the calling goroutine's stack past the depth of the
// inline event-advance chain in a single newstack step. Any tracked
// goroutine can end up running that chain (device handlers nested inside
// waiter.wait), which is a dozen frames deep; growing the stack while it
// is still nearly empty copies almost nothing, instead of repeatedly
// copying a full call stack every time a fresh goroutine parks last. The
// buffer is pointer-free and never escapes; the dynamic index and the
// write through the caller's slot keep the array from being optimized
// away.
//
//go:noinline
func reserveStack(out *byte, i int) {
	var buf [6 << 10]byte
	buf[i] = 1
	*out = buf[i+1]
}

// Go starts fn in a goroutine tracked by this clock.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		return
	}
	v.running++
	v.spawned++
	v.live.Add(1)
	go func() {
		defer v.exit()
		var sink byte
		reserveStack(&sink, 0)
		fn()
	}()
}

// Spawned reports how many goroutines the clock has started so far, all
// of them through Go. Event-driven code paths assert on its delta: a
// path that runs to completion on the event loop spawns none.
func (v *Virtual) Spawned() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.spawned
}

// exit is a tracked goroutine's last act. It leaves the live count only
// after its advance, which may run callbacks, so the stop waits for
// those too.
func (v *Virtual) exit() {
	v.mu.Lock()
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	v.live.Done()
}

// Sleep pauses the calling goroutine for d of virtual time.
func (v *Virtual) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	w := v.newWaiterLocked()
	v.parkLocked(w)
	ev := v.getEventLocked(d, evWake)
	ev.w = w
	v.sched.push(ev)
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	<-w.ch
	w.resume()
	w.release()
}

// Post schedules fn to run inline on the advancing goroutine after d of
// virtual time, with no goroutine spawned per firing. fn must not block:
// it may schedule, send to mailboxes, and wake waiters, but anything
// that parks must go through Go instead.
func (v *Virtual) Post(d time.Duration, fn func()) Pending {
	return v.Post2(d, callFunc, fn, nil)
}

// callFunc is the Post2 callback behind Post. A func value is
// pointer-shaped, so boxing it in an any allocates nothing.
func callFunc(a, _ any) { a.(func())() }

// Post2 is Post for a pre-bound callback: fn(a, b) fires inline after d.
// With a top-level fn and pointer operands the call site allocates
// nothing, which is what keeps the packet hot path allocation-free.
func (v *Virtual) Post2(d time.Duration, fn func(a, b any), a, b any) Pending {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ev := v.getEventLocked(d, evPost2)
	ev.fn2, ev.a, ev.b = fn, a, b
	v.sched.push(ev)
	return Pending{v: v, ev: ev, gen: ev.gen}
}

// maxAtNS is the latest firing instant an event can carry.
const maxAtNS = math.MaxInt64 - 1

// getEventLocked takes an event from the freelist (or allocates one) and
// stamps it with the firing time and sequence number. Callers hold v.mu,
// pass d ≥ 0 and must push the event onto the scheduler. A firing time
// past the end of the int64 axis saturates at maxAtNS: the sum of two
// non-negative int64s wraps to at most -2, which as a uint64 is still
// above maxAtNS, so one compare catches both cases.
func (v *Virtual) getEventLocked(d time.Duration, kind eventKind) *event {
	atNS := v.offNS.Load() + int64(d)
	if uint64(atNS) > maxAtNS {
		atNS = maxAtNS
	}
	return v.getEventAbsLocked(atNS, kind)
}

// eventChunk is how many events the clock allocates at once when its
// freelist is empty. A chunk is never given back: its events circulate
// through the freelist for the clock's life.
const eventChunk = 64

// getEventAbsLocked is getEventLocked for an absolute firing instant
// (nanoseconds since base) — the form the queue oracle stamps in.
func (v *Virtual) getEventAbsLocked(atNS int64, kind eventKind) *event {
	var ev *event
	if n := len(v.free); n > 0 {
		ev = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
	} else {
		if len(v.chunk) == 0 {
			v.chunk = make([]event, eventChunk)
		}
		ev = &v.chunk[0]
		v.chunk = v.chunk[1:]
	}
	v.seq++
	ev.atNS = atNS
	ev.seq = v.seq
	ev.kind = kind
	return ev
}

// putEventLocked recycles a fired or cancelled event. Bumping the
// generation invalidates any outstanding Pending handle.
func (v *Virtual) putEventLocked(ev *event) {
	ev.gen++
	ev.fn2 = nil
	ev.a, ev.b = nil, nil
	ev.w = nil
	v.free = append(v.free, ev)
}

// stopEvent cancels a scheduled event if its generation still matches.
func (v *Virtual) stopEvent(ev *event, gen uint64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ev.gen != gen || ev.index < 0 {
		return false
	}
	v.sched.remove(ev)
	v.putEventLocked(ev)
	return true
}

// maybeAdvanceLocked advances virtual time while no goroutine is
// runnable. Callers hold v.mu.
func (v *Virtual) maybeAdvanceLocked() {
	for v.running == 0 && !v.stopped {
		if v.sched.size() == 0 {
			// Release the mutex before panicking so deferred cleanup in
			// callers (e.g. Run) can still acquire it while unwinding.
			v.mu.Unlock()
			panic(fmt.Sprintf("vclock: deadlock at %s: all goroutines parked and no timers pending", v.Now().Format(time.RFC3339Nano)))
		}
		ev := v.sched.pop()
		if ev.atNS > v.offNS.Load() {
			v.offNS.Store(ev.atNS)
		}
		switch ev.kind {
		case evWake:
			w := ev.w
			v.putEventLocked(ev)
			v.unparkLocked(w)
			v.running++
			w.ch <- struct{}{}
		case evPost2:
			fn2, a, b := ev.fn2, ev.a, ev.b
			v.putEventLocked(ev)
			// The advancing goroutine counts as runnable while it runs
			// the callback, so a goroutine the callback wakes cannot
			// start a concurrent advance.
			v.running++
			v.mu.Unlock()
			fn2(a, b)
			v.mu.Lock()
			v.running--
		}
	}
}

// newWaiter returns a waiter implementing the parking protocol for
// blocking primitives, from the clock's freelist when it has one.
func (v *Virtual) newWaiter() *waiter {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newWaiterLocked()
}

// newWaiterLocked is newWaiter for callers that hold v.mu.
func (v *Virtual) newWaiterLocked() *waiter {
	if w := v.wfree; w != nil {
		v.wfree = w.next
		w.next = nil
		return w
	}
	return &waiter{v: v, ch: make(chan struct{}, 1)}
}
