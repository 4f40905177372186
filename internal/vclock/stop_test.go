package vclock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkers lists one blocking call per primitive, each of which parks for
// good when nobody sends, opens or finishes.
func parkers(v *Virtual) map[string]func() {
	mb := NewMailbox[int](v)
	gate := NewGate()
	var group Group
	group.Add(1)
	return map[string]func(){
		"Sleep":            func() { v.Sleep(time.Hour) },
		"Mailbox.Recv":     func() { mb.Recv() },
		"Mailbox.RecvTO":   func() { mb.RecvTimeout(time.Hour) },
		"Gate.Wait":        func() { gate.Wait(v) },
		"Gate.WaitTimeout": func() { gate.WaitTimeout(v, time.Hour) },
		"Group.Wait":       func() { group.Wait(v) },
	}
}

// released records what one goroutine did around its park.
type released struct {
	deferred atomic.Int32 // runs of the deferred call
	resumed  atomic.Bool  // the statement after the park ran
}

func (r *released) run(park func()) {
	defer r.deferred.Add(1)
	park()
	r.resumed.Store(true)
}

func (r *released) check(t *testing.T, name string) {
	t.Helper()
	if n := r.deferred.Load(); n != 1 {
		t.Errorf("%s: deferred call ran %d times, want 1", name, n)
	}
	if r.resumed.Load() {
		t.Errorf("%s: ran past its park", name)
	}
}

// checkNoneLeft fails the test if more goroutines exist than the before
// that was read ahead of Run. Run returns when the last tracked goroutine
// has called exit, a few instructions before the runtime stops counting
// it, so the reading is given a bounded number of yields and no sleep.
// (Fewer than before is no leak: an earlier test's goroutine finished
// dying.)
func checkNoneLeft(t *testing.T, before int, after string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > before; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left behind after %s\n%s", n-before, after, buf[:runtime.Stack(buf, true)])
	}
}

func TestRunReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	v := New()
	recs := map[string]*released{}
	var late released // still running when fn returns
	var spawned int64
	v.Run(func() {
		for name, park := range parkers(v) {
			r := &released{}
			recs[name] = r
			v.Go(func() { r.run(park) })
		}
		start := NewMailbox[int](v)
		v.Go(func() {
			late.run(func() {
				start.Recv()
				for stopped := false; !stopped; runtime.Gosched() {
					v.mu.Lock()
					stopped = v.stopped
					v.mu.Unlock()
				}
				v.Sleep(time.Second)
			})
		})
		v.Sleep(time.Minute) // advances only once all seven are parked
		start.Send(0)
		spawned = v.Spawned()
	})
	for name, r := range recs {
		r.check(t, name)
	}
	late.check(t, "running at the stop")
	checkNoneLeft(t, before, "Run")

	v.Go(func() { t.Error("Go ran on a stopped clock") })
	p := v.Post(0, func() { t.Error("Post fired on a stopped clock") })
	checkNoneLeft(t, before, "Go and Post on the stopped clock")
	if !p.Stop() {
		t.Error("Stop on a Post filed after the stop reports it already ran")
	}
	if got := v.Spawned(); got != spawned {
		t.Errorf("Spawned() = %d after the stop, %d before", got, spawned)
	}
}

func TestRunStopAfterPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	v := New()
	recs := map[string]*released{}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the panic fn raised", r)
			}
		}()
		v.Run(func() {
			for name, park := range parkers(v) {
				r := &released{}
				recs[name] = r
				v.Go(func() { r.run(park) })
			}
			v.Sleep(time.Minute)
			panic("boom")
		})
	}()
	for name, r := range recs {
		r.check(t, name)
	}
	checkNoneLeft(t, before, "Run")
}

// TestRunStopRacesWakes stops the clock while tracked and plain
// goroutines send, open and finish: a wake that loses to the stop must
// be dropped (a second token on a waiter's one-slot channel would block
// its sender for ever), one that wins must be honoured, and a wake that
// arrives before its wait must stay legal. Meant for -race and several
// Ps (CI runs it with -cpu 1,2,4).
func TestRunStopRacesWakes(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		v := New()
		mb := NewMailbox[int](v)
		gates := make([]Gate, 64)
		var group Group
		group.Add(2) // one Done per producer
		produce := func() {
			for i := range gates {
				mb.Send(i)
				gates[i].Open()
				if i == len(gates)/2 {
					group.Done()
				}
				runtime.Gosched()
			}
		}
		var outside sync.WaitGroup
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			v.Run(func() {
				for i := 0; i < 2; i++ {
					v.Go(func() {
						for {
							mb.Recv()
						}
					})
					v.Go(func() {
						for {
							mb.RecvTimeout(time.Microsecond)
						}
					})
				}
				v.Go(func() {
					for i := range gates {
						gates[i].Wait(v)
					}
				})
				v.Go(func() {
					for i := range gates {
						gates[i].WaitTimeout(v, time.Microsecond)
					}
				})
				v.Go(func() { group.Wait(v) })
				v.Go(produce)
				outside.Add(1)
				go func() {
					defer outside.Done()
					produce()
				}()
				// Even iterations let virtual time run (the timeouts fire,
				// the tracked producer finishes first); odd ones return
				// while everything is still runnable.
				if iter%2 == 0 {
					v.Sleep(time.Duration(iter%16) * time.Microsecond)
				} else {
					for i := 0; i < iter%16; i++ {
						runtime.Gosched()
					}
				}
			})
		}()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			buf := make([]byte, 1<<16)
			t.Fatalf("iteration %d: Run did not return\n%s", iter, buf[:runtime.Stack(buf, true)])
		}
		outside.Wait() // the plain producer's late wakes are dropped, not blocked
	}
}
