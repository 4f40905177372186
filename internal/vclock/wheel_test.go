package vclock

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// clockModel predicts a Virtual's trace from the reference queue alone:
// it mirrors every Post/Post2/Sleep as a (now+d, seq) entry in a
// refQueue — the clock stamps one seq per call, Sleep's wake-up
// included — and replays a Sleep by popping the reference up to the
// wake-up, logging what each popped entry's callback would log.
type clockModel struct {
	ref refQueue
	now int64
	seq uint64
	log []string
}

// post queues an entry d from now; label is what firing it logs, less
// the instant.
func (m *clockModel) post(d time.Duration, label string) *event {
	m.seq++
	ev := &event{atNS: m.now + int64(d), seq: m.seq, a: label}
	m.ref.push(ev)
	return ev
}

// stop reports what Stop on the entry's handle must return.
func (m *clockModel) stop(ev *event) bool {
	if ev.index < 0 {
		return false
	}
	m.ref.remove(ev)
	ev.index = -1
	return true
}

func (m *clockModel) sleep(d time.Duration) {
	wake := m.post(d, "")
	for {
		ev := m.ref.pop()
		ev.index = -1
		m.now = ev.atNS
		if ev == wake {
			return
		}
		m.log = append(m.log, stampLog(ev.a.(string), Epoch.Add(time.Duration(m.now))))
	}
}

func stampLog(label string, at time.Time) string {
	return label + " @" + at.Format(time.RFC3339Nano)
}

func diffTraces(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: clock %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traces diverge at %d: clock %q, reference %q", i, got[i], want[i])
		}
	}
}

// TestWheelHeapDifferential replays a seeded random schedule of
// Post/Post2/Stop/Sleep through a Virtual — whose queue is
// the wheel and the near heap together — and through clockModel, and
// asserts the fire order, every firing instant and every Stop outcome
// are identical. The queue-level counterpart, with removals and
// behind-cursor merges the public API cannot reach, is FuzzEventQueue.
func TestWheelHeapDifferential(t *testing.T) {
	// Delays spanning every wheel level, with a bias toward small ones so
	// plenty of events collide on the same instants and the same tick.
	durs := []time.Duration{
		0, 0, 1, 3, 250 * time.Nanosecond, 10 * time.Microsecond,
		3 * time.Millisecond, 800 * time.Millisecond, 40 * time.Second,
		2 * time.Hour, 100 * time.Hour,
	}
	for seed := int64(1); seed <= 5; seed++ {
		v, m := New(), &clockModel{}
		var log []string
		logAt := func(label string) func() {
			return func() { log = append(log, stampLog(label, v.Now())) }
		}
		post2 := func(a, b any) { logAt(a.(string))() }
		v.Run(func() {
			rng := NewRand(seed)
			var pending []Pending
			var mPending []*event
			for i := 0; i < 3000; i++ {
				d := durs[rng.Intn(len(durs))]
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 6:
					label := fmt.Sprintf("post %d", i)
					pending = append(pending, v.Post(d, logAt(label)))
					mPending = append(mPending, m.post(d, label))
				case 4, 5:
					label := fmt.Sprintf("post2 %d", i)
					pending = append(pending, v.Post2(d, post2, label, nil))
					mPending = append(mPending, m.post(d, label))
				case 7, 8:
					if len(pending) > 0 {
						j := rng.Intn(len(pending))
						log = append(log, fmt.Sprintf("stop %d -> %v", j, pending[j].Stop()))
						m.log = append(m.log, fmt.Sprintf("stop %d -> %v", j, m.stop(mPending[j])))
					}
				case 9:
					d := time.Duration(rng.Intn(int(5 * time.Second)))
					v.Sleep(d)
					m.sleep(d)
				}
			}
			v.Sleep(200 * time.Hour) // drain everything
			m.sleep(200 * time.Hour)
		})
		diffTraces(t, log, m.log)
	}
}

// TestWheelCancelDuringCascade stops events from the callback of the
// timer that shares their level-1 slot and fires first: by then the
// slot has been re-filed, so b (same instant) and d (1 ns later) sit in
// the near heap and e (two ticks later) one level down on the wheel,
// mid-cascade. Each Stop must report true exactly once, and the
// cancelled records must come back from the freelist as new timers
// that the stale handles cannot touch.
func TestWheelCancelDuringCascade(t *testing.T) {
	const tick = time.Duration(1) << tickBits
	at := 300 * tick // level 1 from the base
	v := New()
	var fired []string
	v.Run(func() {
		var b, d, e Pending
		v.Post(at, func() {
			fired = append(fired, "a")
			for _, p := range []Pending{b, d, e} {
				if !p.Stop() {
					t.Error("Stop of a queued event reported false")
				}
				if p.Stop() {
					t.Error("second Stop of the same event reported true")
				}
			}
			// Three fresh timers recycle the three cancelled records.
			for _, name := range []string{"x", "y", "z"} {
				name := name
				v.Post(tick, func() { fired = append(fired, name) })
			}
			if b.Stop() || d.Stop() || e.Stop() {
				t.Error("stale handle stopped a recycled event")
			}
		})
		b = v.Post(at, func() { fired = append(fired, "b") })
		v.Post(at, func() { fired = append(fired, "c") })
		d = v.Post(at+time.Nanosecond, func() { fired = append(fired, "d") })
		e = v.Post(at+2*tick, func() { fired = append(fired, "e") })
		v.Sleep(2 * at)
	})
	if got := fmt.Sprint(fired); got != "[a c x y z]" {
		t.Fatalf("fired %v, want [a c x y z]", fired)
	}
}

// TestWheelSameInstantAcrossLevels schedules events for one shared
// instant from different current times, so they enter the wheel at
// different levels and only meet in the near heap after their last
// re-filing. They must still fire in seq order.
func TestWheelSameInstantAcrossLevels(t *testing.T) {
	v := New()
	var fired []int
	v.Run(func() {
		target := 90 * time.Hour
		start := v.Now()
		until := func() time.Duration { return target - v.Since(start) }
		v.Post(until(), func() { fired = append(fired, 0) }) // level 4
		v.Sleep(40 * time.Hour)
		v.Post(until(), func() { fired = append(fired, 1) }) // level 4, another slot
		v.Sleep(50*time.Hour - 200*time.Millisecond)
		v.Post(until(), func() { fired = append(fired, 2) }) // level 1
		v.Sleep(200*time.Millisecond - 30*time.Microsecond)
		v.Post(until(), func() { fired = append(fired, 3) }) // level 0 or near
		v.Sleep(30 * time.Microsecond)
		v.Post(0, func() { fired = append(fired, 4) }) // near, direct
		v.Sleep(time.Second)
	})
	if got := fmt.Sprint(fired); got != "[0 1 2 3 4]" {
		t.Fatalf("fired %v, want [0 1 2 3 4]", fired)
	}
}

// TestWheelRevolutionAmbiguity pins the carry case: an event whose
// distance keeps it on level l but whose slot index wraps to the slot
// the cursor occupies. The wheel must read that slot as one revolution
// ahead — not re-file it early and loop — and must not let it shadow
// nearer slots at the same level.
func TestWheelRevolutionAmbiguity(t *testing.T) {
	ticks := func(n int64) time.Duration { return time.Duration(n << tickBits) }
	v := New()
	var fired []string
	v.Run(func() {
		// Put the cursor at a tick with nonzero low bits on several levels.
		v.Sleep(ticks(0x1F3))
		// Distance 0xFFFF stays on level 1; 0x1F3+0xFFFF = 0x101F2, whose
		// level-1 slot index 0x01 equals the cursor's own (0x1F3>>8).
		v.Post(ticks(0xFFFF), func() { fired = append(fired, "wrap") })
		// A nearer level-1 event in a later slot must still fire first.
		v.Post(ticks(0x300), func() { fired = append(fired, "near") })
		// Firing order alone cannot tell: a wheel that took the wrapped
		// slot for the current revolution would rewind the cursor to the
		// slot's start, re-file it a level up and still pop in order.
		if start, slot := v.sched.earliest(1); start != 0x400 || slot != 0x04 {
			t.Errorf("level 1's earliest slot is %#x starting at tick %#x, want slot 0x4 at 0x400", slot, start)
		}
		v.Sleep(ticks(0x20000))
	})
	if got := fmt.Sprint(fired); got != "[near wrap]" {
		t.Fatalf("fired %v, want [near wrap]", fired)
	}
}

// TestWheelPendingReuseGuard is the generation-guard ABA check: a stale
// Pending whose event record was recycled for a new timer must not
// cancel the new timer.
func TestWheelPendingReuseGuard(t *testing.T) {
	v := New()
	v.Run(func() {
		fired := false
		stale := v.Post(time.Millisecond, func() {})
		v.Sleep(2 * time.Millisecond) // fires; event returns to freelist
		fresh := v.Post(time.Millisecond, func() { fired = true })
		if stale.Stop() {
			t.Error("stale handle stopped a recycled event")
		}
		v.Sleep(2 * time.Millisecond)
		if !fired {
			t.Error("recycled event did not fire")
		}
		_ = fresh
	})
}

// TestDenseTick crowds one tick: 4096 events inside it posted in
// shuffled order, a quarter of them stopped, and callbacks that post
// into the cursor's own tick (both after and at their own instant) and
// into the next one. Everything must fire in exact (at, seq) order.
func TestDenseTick(t *testing.T) {
	const (
		n    = 4096
		tick = int64(1) << tickBits
		base = 1000 * tick // start of the crowded tick
	)
	type key struct {
		at  int64
		seq int
	}
	v := New()
	var got, want []key
	v.Run(func() {
		start := v.Now()
		seq := 0
		var post func(at int64, spawn bool) (Pending, key)
		post = func(at int64, spawn bool) (Pending, key) {
			seq++
			k := key{at, seq}
			return v.Post(time.Duration(at)-v.Since(start), func() {
				if now := int64(v.Since(start)); now != k.at {
					t.Errorf("event for %d fired at %d", k.at, now)
				}
				got = append(got, k)
				if !spawn {
					return
				}
				for _, at := range []int64{k.at, k.at + 1, base + tick - 1, base + tick, base + tick + k.at%tick} {
					_, child := post(at, false)
					want = append(want, child)
				}
			}), k
		}
		offsets := rand.New(rand.NewSource(7)).Perm(n)
		pending := make([]Pending, n)
		keys := make([]key, n)
		for i, off := range offsets {
			// Offsets repeat (mod n/2), so many instants hold two events.
			pending[i], keys[i] = post(base+int64(off%(n/2))*(tick/(n/2)), i%16 == 0)
		}
		for i := range pending {
			if i%4 == 1 {
				if !pending[i].Stop() {
					t.Fatalf("Stop of queued event %d reported false", i)
				}
				continue
			}
			want = append(want, keys[i])
		}
		v.Sleep(time.Duration(base + 3*tick))
	})
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d was (at %d, seq %d), want (at %d, seq %d)", i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
}

// TestMaxDurationTimers posts at the far end of the time axis. The
// firing instant must saturate instead of wrapping negative: a
// max-duration Post and RecvTimeout neither fire nor hang within a
// simulated year, the Post is still there to be stopped, and the clock
// keeps firing later events.
func TestMaxDurationTimers(t *testing.T) {
	const forever = time.Duration(math.MaxInt64)
	v := New()
	v.Run(func() {
		v.Sleep(time.Second) // any instant after the base: now + forever overflows
		fired := false
		p := v.Post(forever, func() { fired = true })
		mb := NewMailbox[int](v)
		var g Group
		g.Go(v, func() {
			if x, ok := mb.RecvTimeout(forever); !ok || x != 42 {
				t.Errorf("RecvTimeout(forever) = %d, %v; want the value sent a year later", x, ok)
			}
		})
		start := v.Now()
		v.Sleep(365 * 24 * time.Hour)
		if got := v.Since(start); got != 365*24*time.Hour {
			t.Errorf("slept %v, want a year", got)
		}
		if fired {
			t.Error("a max-duration timer fired within a year")
		}
		mb.Send(42)
		g.Wait(v)
		if !p.Stop() {
			t.Error("Stop on a max-duration Post reported false")
		}
		later := false
		v.Post(time.Minute, func() { later = true })
		v.Sleep(forever - v.Since(Epoch) - 2) // up to the last instant but one
		v.Sleep(forever)                      // and saturated again from there
		if !later {
			t.Error("clock stopped firing events after max-duration timers")
		}
		if fired {
			t.Error("a stopped max-duration timer fired")
		}
	})
}

// TestQueueAllocs holds the event queue's steady-state paths to zero
// allocations under a resident population: post-and-stop, fire-and-
// re-arm (pop, re-file, callback, post) and a Sleep wake-up. The first
// AllocsPerRun call of each is a warm-up that also lets the near heap
// and the freelist reach their working size.
func TestQueueAllocs(t *testing.T) {
	v := New()
	v.Run(func() {
		postBallast(v, 1<<16)
		i := 0
		if a := testing.AllocsPerRun(1000, func() { postStop(v, i); i++ }); a != 0 {
			t.Errorf("post-stop: %v allocs/op, want 0", a)
		}
		if a := testing.AllocsPerRun(1000, func() { v.Sleep(time.Millisecond) }); a != 0 {
			t.Errorf("sleep wake: %v allocs/op, want 0", a)
		}
		st := startDrain(v, 1<<12)
		st.fire(1 << 14) // every active timer through near a few times
		if a := testing.AllocsPerRun(100, func() { st.fire(100) }); a != 0 {
			t.Errorf("fire and re-arm: %v allocs per 100 firings, want 0", a)
		}
	})
}

// TestPendingEventsFromChunks: while timers are only posted, none fires
// and none is recycled, so each event is a new one. They come from
// chunks: posting n of them, on top of n already pending, costs at most
// n/32 allocations (the chunks, and the wheel's and near heap's growth).
func TestPendingEventsFromChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	const n = 4096
	v := New()
	v.Run(func() {
		allocs := testing.AllocsPerRun(1, func() { postBallast(v, n) })
		t.Logf("%v allocs for %d pending events", allocs, n)
		if allocs > n/32 {
			t.Errorf("posting %d pending events: %v allocs, ceiling %d", n, allocs, n/32)
		}
	})
}
