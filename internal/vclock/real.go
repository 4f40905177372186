package vclock

import (
	"sync"
	"time"
)

// Real is a wall-clock implementation of Clock, optionally time-scaled.
//
// With Scale == 1 it behaves exactly like the time package. With
// Scale == 100, one second of clock time elapses in 10 ms of wall time —
// useful for watching an emulated scenario play out interactively
// without waiting the full five minutes of a trace.
type Real struct {
	// Scale is the speed-up factor; clock durations are divided by Scale
	// when mapped to wall time. Zero means 1 (no scaling).
	Scale float64

	base     time.Time // wall instant the clock was created
	baseSim  time.Time // clock instant corresponding to base
	haveBase bool

	wpool sync.Pool // *waiter freelist
}

// NewReal returns an unscaled wall clock.
func NewReal() *Real { return NewScaled(1) }

// NewScaled returns a wall clock sped up by the given factor.
func NewScaled(scale float64) *Real {
	if scale <= 0 {
		scale = 1
	}
	return &Real{Scale: scale, base: time.Now(), baseSim: Epoch, haveBase: true}
}

func (r *Real) scale() float64 {
	if r.Scale <= 0 {
		return 1
	}
	return r.Scale
}

// Now returns the current clock time (scaled wall time since creation).
func (r *Real) Now() time.Time {
	if !r.haveBase {
		return time.Now()
	}
	elapsed := time.Since(r.base)
	return r.baseSim.Add(time.Duration(float64(elapsed) * r.scale()))
}

// Since returns the clock time elapsed since t.
func (r *Real) Since(t time.Time) time.Duration { return r.Now().Sub(t) }

// Sleep pauses for d of clock time (d/Scale of wall time).
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) / r.scale()))
}

// Post schedules fn after d of clock time. Under a wall clock it runs on
// the goroutine time.AfterFunc starts; the no-blocking contract only
// constrains virtual-clock call sites.
func (r *Real) Post(d time.Duration, fn func()) Pending {
	if d < 0 {
		d = 0
	}
	return Pending{rt: time.AfterFunc(time.Duration(float64(d)/r.scale()), fn)}
}

// Post2 is Post for a pre-bound callback.
func (r *Real) Post2(d time.Duration, fn func(a, b any), a, b any) Pending {
	return r.Post(d, func() { fn(a, b) })
}

// Go starts fn in a plain goroutine.
func (r *Real) Go(fn func()) { go fn() }

// Run simply calls fn; it exists so call sites can treat Real and Virtual
// clocks uniformly.
func (r *Real) Run(fn func()) { fn() }

func (r *Real) newWaiter() *waiter {
	if w, ok := r.wpool.Get().(*waiter); ok {
		return w
	}
	return &waiter{pool: &r.wpool, ch: make(chan struct{}, 1)}
}
