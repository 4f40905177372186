package vclock

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	v := New()
	v.Run(func() {
		start := v.Now()
		v.Sleep(3 * time.Second)
		if got := v.Since(start); got != 3*time.Second {
			t.Errorf("Sleep advanced %v, want 3s", got)
		}
	})
}

func TestVirtualSleepZeroAndNegative(t *testing.T) {
	v := New()
	v.Run(func() {
		start := v.Now()
		v.Sleep(0)
		v.Sleep(-time.Second)
		if got := v.Since(start); got != 0 {
			t.Errorf("zero/negative sleep advanced time by %v", got)
		}
	})
}

func TestVirtualConcurrentSleepsWakeInOrder(t *testing.T) {
	v := New()
	var mu sync.Mutex
	var order []int
	v.Run(func() {
		var g Group
		for i, d := range []time.Duration{30, 10, 20} {
			i, d := i, d
			g.Go(v, func() {
				v.Sleep(d * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		g.Wait(v)
	})
	want := []int{1, 2, 0} // 10ms, 20ms, 30ms
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestVirtualSameInstantFIFO(t *testing.T) {
	v := New()
	var mu sync.Mutex
	var order []int
	v.Run(func() {
		var g Group
		for i := 0; i < 5; i++ {
			i := i
			g.Add(1)
			v.Post(time.Second, func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				g.Done()
			})
		}
		g.Wait(v)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant order = %v, want FIFO", order)
		}
	}
}

func TestPostRunsAtDeadline(t *testing.T) {
	v := New()
	v.Run(func() {
		start := v.Now()
		var fired time.Time
		g := NewGate()
		v.Post(500*time.Millisecond, func() {
			fired = v.Now()
			g.Open()
		})
		g.Wait(v)
		if got := fired.Sub(start); got != 500*time.Millisecond {
			t.Errorf("fired after %v, want 500ms", got)
		}
	})
}

func TestTimerStopPreventsRun(t *testing.T) {
	v := New()
	v.Run(func() {
		ran := false
		p := v.Post(time.Second, func() { ran = true })
		if !p.Stop() {
			t.Error("Stop returned false for pending timer")
		}
		if p.Stop() {
			t.Error("second Stop returned true")
		}
		if (Pending{}).Stop() {
			t.Error("Stop on the zero Pending returned true")
		}
		v.Sleep(2 * time.Second)
		if ran {
			t.Error("stopped timer still ran")
		}
	})
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		mb.Recv() // nothing will ever arrive
	})
}

func TestRunStopsPeriodicTimers(t *testing.T) {
	v := New()
	ticks := 0
	v.Run(func() {
		var tick func()
		tick = func() {
			ticks++
			v.Post(time.Second, tick)
		}
		v.Post(time.Second, tick)
		v.Sleep(3500 * time.Millisecond)
	})
	// Ticks at 1s, 2s, 3s; the simulation stops at 3.5s.
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
}

func TestMailboxFIFO(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		for i := 0; i < 10; i++ {
			mb.Send(i)
		}
		for i := 0; i < 10; i++ {
			got, ok := mb.Recv()
			if !ok || got != i {
				t.Fatalf("Recv = %d,%v want %d,true", got, ok, i)
			}
		}
	})
}

func TestMailboxBlockingRecv(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[string](v)
		start := v.Now()
		v.Post(2*time.Second, func() { mb.Send("hello") })
		got, ok := mb.Recv()
		if !ok || got != "hello" {
			t.Fatalf("Recv = %q,%v", got, ok)
		}
		if d := v.Since(start); d != 2*time.Second {
			t.Errorf("Recv returned after %v, want 2s", d)
		}
	})
}

func TestMailboxRecvTimeout(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		start := v.Now()
		_, ok := mb.RecvTimeout(time.Second)
		if ok {
			t.Error("RecvTimeout succeeded on empty mailbox")
		}
		if d := v.Since(start); d != time.Second {
			t.Errorf("timeout after %v, want 1s", d)
		}
		// A value arriving before the deadline is delivered.
		v.Post(200*time.Millisecond, func() { mb.Send(7) })
		got, ok := mb.RecvTimeout(time.Second)
		if !ok || got != 7 {
			t.Fatalf("RecvTimeout = %d,%v want 7,true", got, ok)
		}
	})
}

func TestMailboxTryRecv(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		if _, ok := mb.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox returned ok")
		}
		mb.Send(1)
		if got, ok := mb.TryRecv(); !ok || got != 1 {
			t.Errorf("TryRecv = %d,%v", got, ok)
		}
	})
}

func TestMailboxClose(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		mb.Send(1)
		mb.Close()
		mb.Close() // idempotent
		if got, ok := mb.Recv(); !ok || got != 1 {
			t.Fatalf("Recv after close = %d,%v; queued value lost", got, ok)
		}
		if _, ok := mb.Recv(); ok {
			t.Error("Recv on drained closed mailbox returned ok")
		}
	})
}

func TestMailboxCloseWakesBlockedReceiver(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		var g Group
		g.Go(v, func() {
			if _, ok := mb.Recv(); ok {
				t.Error("Recv returned ok after Close")
			}
		})
		v.Sleep(time.Second)
		mb.Close()
		g.Wait(v)
	})
}

func TestMailboxSendOnClosedPanics(t *testing.T) {
	v := New()
	v.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic sending on closed mailbox")
			}
		}()
		mb := NewMailbox[int](v)
		mb.Close()
		mb.Send(1)
	})
}

func TestMailboxLen(t *testing.T) {
	v := New()
	v.Run(func() {
		mb := NewMailbox[int](v)
		if mb.Len() != 0 {
			t.Error("new mailbox not empty")
		}
		mb.Send(1)
		mb.Send(2)
		if mb.Len() != 2 {
			t.Errorf("Len = %d, want 2", mb.Len())
		}
	})
}

func TestGate(t *testing.T) {
	v := New()
	v.Run(func() {
		g := NewGate()
		if g.IsOpen() {
			t.Error("new gate is open")
		}
		var grp Group
		woke := 0
		var mu sync.Mutex
		for i := 0; i < 4; i++ {
			grp.Go(v, func() {
				g.Wait(v)
				mu.Lock()
				woke++
				mu.Unlock()
			})
		}
		v.Sleep(time.Second)
		g.Open()
		g.Open() // idempotent
		grp.Wait(v)
		if woke != 4 {
			t.Errorf("woke = %d, want 4", woke)
		}
		// Waiting on an open gate returns immediately.
		start := v.Now()
		g.Wait(v)
		if v.Since(start) != 0 {
			t.Error("Wait on open gate advanced time")
		}
	})
}

func TestGateWaitTimeout(t *testing.T) {
	v := New()
	v.Run(func() {
		g := NewGate()
		if g.WaitTimeout(v, time.Second) {
			t.Error("WaitTimeout true on closed gate")
		}
		v.Post(100*time.Millisecond, g.Open)
		if !g.WaitTimeout(v, time.Second) {
			t.Error("WaitTimeout false on opened gate")
		}
		if !g.WaitTimeout(v, time.Second) {
			t.Error("WaitTimeout false on already-open gate")
		}
	})
}

func TestGroupWaitImmediateWhenZero(t *testing.T) {
	v := New()
	v.Run(func() {
		var g Group
		g.Wait(v) // must not block
	})
}

func TestGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative counter")
		}
	}()
	var g Group
	g.Done()
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(1)
	base := time.Second
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.2)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("jitter %v outside ±20%% of 1s", j)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Error("jitter of zero base is nonzero")
	}
}

func TestRandLogNormalPositive(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if d := r.LogNormal(100*time.Millisecond, 0.3); d <= 0 {
			t.Fatalf("LogNormal returned %v", d)
		}
	}
	if r.LogNormal(0, 0.3) != 0 {
		t.Error("LogNormal of zero median is nonzero")
	}
}

// Property: for any set of non-negative delays, Post callbacks fire
// in non-decreasing virtual-time order and each at exactly start+delay.
func TestTimerOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := New()
		ok := true
		v.Run(func() {
			start := v.Now()
			var g Group
			var mu sync.Mutex
			var fired []time.Duration
			for _, ms := range raw {
				d := time.Duration(ms) * time.Millisecond
				g.Add(1)
				v.Post(d, func() {
					mu.Lock()
					fired = append(fired, v.Since(start))
					mu.Unlock()
					g.Done()
				})
			}
			g.Wait(v)
			want := make([]time.Duration, len(raw))
			for i, ms := range raw {
				want[i] = time.Duration(ms) * time.Millisecond
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(fired) != len(want) {
				ok = false
				return
			}
			for i := range want {
				if fired[i] != want[i] {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a mailbox delivers exactly the multiset of sent values, in
// FIFO order, regardless of interleaved delays.
func TestMailboxFIFOProperty(t *testing.T) {
	f := func(vals []int8) bool {
		v := New()
		ok := true
		v.Run(func() {
			mb := NewMailbox[int8](v)
			var g Group
			g.Go(v, func() {
				for _, x := range vals {
					v.Sleep(time.Millisecond)
					mb.Send(x)
				}
			})
			var got []int8
			g.Go(v, func() {
				for range vals {
					x, recvOK := mb.Recv()
					if !recvOK {
						ok = false
						return
					}
					got = append(got, x)
				}
			})
			g.Wait(v)
			if len(got) != len(vals) {
				ok = false
				return
			}
			for i := range vals {
				if got[i] != vals[i] {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVirtualDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		v := New()
		var out []time.Duration
		v.Run(func() {
			start := v.Now()
			var g Group
			var mu sync.Mutex
			r := NewRand(99)
			for i := 0; i < 20; i++ {
				g.Go(v, func() {
					v.Sleep(r.Jitter(time.Second, 0.5))
					mu.Lock()
					out = append(out, v.Since(start))
					mu.Unlock()
				})
			}
			g.Wait(v)
		})
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
