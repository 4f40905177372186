package vclock

import (
	"testing"
	"time"
)

// BenchmarkTimerThroughput measures raw event-scheduling throughput —
// the emulator's hot loop.
func BenchmarkTimerThroughput(b *testing.B) {
	v := New()
	v.Run(func() {
		for i := 0; i < b.N; i++ {
			v.Sleep(time.Millisecond)
		}
	})
}

// BenchmarkMailboxRoundTrip measures one send/recv pair between two
// tracked goroutines.
func BenchmarkMailboxRoundTrip(b *testing.B) {
	v := New()
	v.Run(func() {
		ping := NewMailbox[int](v)
		pong := NewMailbox[int](v)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv()
		}
		b.StopTimer()
		ping.Close()
	})
}

// benchNop is a top-level callback so posting it allocates nothing.
func benchNop() {}

// millionTimerDurs spreads a pending-timer ballast across the upper
// wheel levels: the idle-flow, FlowMemory-expiry, and health-probe
// timers a million-flow run keeps armed for minutes to an hour.
var millionTimerDurs = [8]time.Duration{
	2 * time.Minute, 5 * time.Minute, 11 * time.Minute, 17 * time.Minute,
	27 * time.Minute, 40 * time.Minute, 52 * time.Minute, time.Hour,
}

// postBallast arms n long timers as resident population.
func postBallast(v *Virtual, n int) {
	for i := 0; i < n; i++ {
		v.Post(millionTimerDurs[i&7]+time.Duration(i), benchNop)
	}
}

// postStopDurs are retransmit-scale delays: a timer posted with one
// sorts before ~everything resident.
var postStopDurs = [4]time.Duration{300 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond, 500 * time.Millisecond}

// postStop is the steady-state churn path: schedule a short timer and
// cancel it (the ack arrived) — two O(1) list operations on the wheel.
func postStop(v *Virtual, i int) {
	v.Post(postStopDurs[i&3]+time.Duration(i&0xFFFF), benchNop).Stop()
}

// drainState carries a set of timers that re-arm themselves when they
// fire, without per-firing closures.
type drainState struct {
	v     *Virtual
	fired int
}

var drainDurs = [4]time.Duration{time.Microsecond, 7 * time.Microsecond, 60 * time.Microsecond, 500 * time.Microsecond}

func drainRearm(a, _ any) {
	s := a.(*drainState)
	s.v.Post2(drainDurs[s.fired&3], drainRearm, a, nil)
	s.fired++
}

// startDrain arms active self-re-arming timers at short intervals.
func startDrain(v *Virtual, active int) *drainState {
	st := &drainState{v: v}
	for i := 0; i < active; i++ {
		v.Post2(drainDurs[i&3]+time.Duration(i), drainRearm, st, nil)
	}
	return st
}

// fire sleeps until n more timers have fired.
func (s *drainState) fire(n int) {
	for target := s.fired + n; s.fired < target; {
		s.v.Sleep(10 * time.Microsecond)
	}
}

// BenchmarkMillionTimers measures the event queue at a 1M-pending-timer
// population — the shape of a million-flow run where every flow holds
// retransmit/idle/expiry timers. post-stop is the churn path under the
// full idle ballast. drain fires a 64k active set that re-arms itself
// inside a few dozen ticks, so every firing pays a pop, the wheel's
// re-filing and a post with the full population resident — some 10⁴
// times the event density of any workload, which is what makes it the
// worst case for the near heap. Both are 0 allocs/op; TestQueueAllocs
// holds that in tier-1.
func BenchmarkMillionTimers(b *testing.B) {
	const pending = 1 << 20
	b.Run("post-stop", func(b *testing.B) {
		v := New()
		v.Run(func() {
			postBallast(v, pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postStop(v, i)
			}
		})
	})
	b.Run("drain", func(b *testing.B) {
		v := New()
		v.Run(func() {
			postBallast(v, pending)
			st := startDrain(v, 1<<16)
			b.ReportAllocs()
			b.ResetTimer()
			st.fire(b.N)
		})
	})
}

// BenchmarkParallelSleepers measures the scheduler with many goroutines
// parked at once (the shape of a testbed run).
func BenchmarkParallelSleepers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := New()
		v.Run(func() {
			var g Group
			for j := 0; j < 100; j++ {
				j := j
				g.Go(v, func() {
					v.Sleep(time.Duration(j) * time.Millisecond)
				})
			}
			g.Wait(v)
		})
	}
}
