package vclock

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTimerStopRacesFiring hammers the Stop-vs-fire race: a tracked
// goroutine stops a Post while virtual time is advancing through its
// deadline. Run under -race this exercises the freelist generation
// check; semantically, a Stop that reports true must have prevented the
// callback from running.
func TestTimerStopRacesFiring(t *testing.T) {
	v := New()
	v.Run(func() {
		for i := 0; i < 300; i++ {
			var fired atomic.Int32
			var stopped atomic.Bool
			p := v.Post(time.Microsecond, func() { fired.Add(1) })
			late := i%2 == 1
			var g Group
			g.Go(v, func() {
				if late {
					v.Sleep(2 * time.Microsecond) // let the timer win
				}
				if p.Stop() {
					stopped.Store(true)
				}
			})
			v.Sleep(2 * time.Microsecond)
			g.Wait(v)
			if stopped.Load() && fired.Load() != 0 {
				t.Fatalf("iter %d: Stop returned true but callback fired", i)
			}
			if !stopped.Load() && fired.Load() != 1 {
				t.Fatalf("iter %d: Stop returned false but callback did not fire", i)
			}
		}
	})
}

// TestPendingStopAfterReuse guards the ABA case: once an event has fired
// and its struct has been recycled into a new timer, Stop through the
// stale handle must report false and must not cancel the new timer.
func TestPendingStopAfterReuse(t *testing.T) {
	v := New()
	v.Run(func() {
		stale := v.Post(time.Microsecond, func() {})
		v.Sleep(2 * time.Microsecond) // fires; event returns to the freelist

		fired := false
		v.Post(time.Microsecond, func() { fired = true }) // recycles the struct
		if stale.Stop() {
			t.Error("stale Pending.Stop returned true after event reuse")
		}
		v.Sleep(2 * time.Microsecond)
		if !fired {
			t.Error("stale Stop cancelled a recycled event")
		}
	})
}

// TestDeadlockPanicMessage pins the exact diagnostic: the panic names
// the virtual instant and says why the simulation cannot continue.
func TestDeadlockPanicMessage(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		want := "vclock: deadlock at " + Epoch.Add(time.Second).Format(time.RFC3339Nano) +
			": all goroutines parked and no timers pending"
		if msg != want {
			t.Errorf("panic = %q, want %q", msg, want)
		}
	}()
	v := New()
	v.Run(func() {
		v.Sleep(time.Second)
		var g Gate
		g.Wait(v) // nobody will ever open it
	})
}

// TestSameInstantOrderStableAfterReuse checks that recycling event
// structs through the freelist does not perturb same-instant ordering:
// callbacks scheduled at one instant fire in scheduling order, batch
// after batch, even though later batches reuse earlier batches' events.
func TestSameInstantOrderStableAfterReuse(t *testing.T) {
	v := New()
	v.Run(func() {
		for batch := 0; batch < 5; batch++ {
			var order []int
			for i := 0; i < 8; i++ {
				i := i
				if i%2 == 0 {
					v.Post(time.Millisecond, func() { order = append(order, i) })
				} else {
					v.Post2(time.Millisecond, func(a, b any) {
						order = append(order, a.(int))
					}, i, nil)
				}
			}
			v.Sleep(2 * time.Millisecond)
			var got strings.Builder
			for _, n := range order {
				fmt.Fprintf(&got, "%d,", n)
			}
			if got.String() != "0,1,2,3,4,5,6,7," {
				t.Fatalf("batch %d: fire order %s, want 0,1,2,3,4,5,6,7,", batch, got.String())
			}
		}
	})
}
