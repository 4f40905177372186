package layers

import (
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// nop is a top-level callback so posting it allocates nothing.
func nop() {}

// ballastDurs spreads resident timers across the upper wheel levels:
// the idle-flow, FlowMemory-expiry and health-probe timers a large run
// keeps armed for minutes to an hour.
var ballastDurs = [8]time.Duration{
	2 * time.Minute, 5 * time.Minute, 11 * time.Minute, 17 * time.Minute,
	27 * time.Minute, 40 * time.Minute, 52 * time.Minute, time.Hour,
}

// timerPostStop is the steady-state timer churn: post a short
// retransmit-scale timer and cancel it, under 1 M resident timers.
func timerPostStop(m *M) {
	v := vclock.New()
	v.Run(func() {
		for i, resident := 0, m.Resident(1<<20); i < resident; i++ {
			v.Post(ballastDurs[i&7]+time.Duration(i), nop)
		}
		short := [4]time.Duration{300 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond, 500 * time.Millisecond}
		stopped := 0
		m.Measure(nil, func(n int) {
			for i := 0; i < n; i++ {
				if v.Post(short[i&3]+time.Duration(i&0xFFFF), nop).Stop() {
					stopped++
				}
			}
		})
		if want := measurements * m.N; stopped != want {
			m.Failf("Stop prevented %d of %d posted timers", stopped, want)
		}
	})
}

type fireState struct {
	v     *vclock.Virtual
	fired int
}

var fireDurs = [4]time.Duration{time.Microsecond, 7 * time.Microsecond, 60 * time.Microsecond, 500 * time.Microsecond}

func rearm(a, _ any) {
	s := a.(*fireState)
	s.fired++
	s.v.Post2(fireDurs[s.fired&3], rearm, a, nil)
}

// timerFire fires inline timers that each re-arm themselves: pop,
// cascade, callback, post.
func timerFire(m *M) {
	v := vclock.New()
	v.Run(func() {
		st := &fireState{v: v}
		active := 1 << 16
		if active > m.N/4 {
			active = m.N/4 + 1
		}
		for i := 0; i < active; i++ {
			v.Post2(fireDurs[i&3]+time.Duration(i), rearm, st, nil)
		}
		m.Measure(nil, func(n int) {
			for target := st.fired + n; st.fired < target; {
				v.Sleep(10 * time.Microsecond)
			}
		})
		if want := measurements * m.N; st.fired < want {
			m.Failf("%d timers fired, want at least %d", st.fired, want)
		}
	})
}

// sleepWake is one goroutine sleeping: post, park, advance, wake.
func sleepWake(m *M) {
	v := vclock.New()
	v.Run(func() {
		start := v.Now()
		m.Measure(nil, func(n int) {
			for i := 0; i < n; i++ {
				v.Sleep(time.Millisecond)
			}
		})
		if got, want := v.Since(start), time.Duration(measurements*m.N)*time.Millisecond; got != want {
			m.Failf("virtual time advanced %v, want %v", got, want)
		}
	})
}

// mailboxRTT is one send/receive pair each way between two tracked
// goroutines.
func mailboxRTT(m *M) {
	v := vclock.New()
	v.Run(func() {
		ping, pong := vclock.NewMailbox[int](v), vclock.NewMailbox[int](v)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		m.Measure(nil, func(n int) {
			for i := 0; i < n; i++ {
				ping.Send(i)
				if x, _ := pong.Recv(); x != i {
					m.Failf("echo %d, want %d", x, i)
				}
			}
		})
		ping.Close()
	})
}

// goHandoff spawns a tracked goroutine and waits for its result — the
// controller's goroutine-per-punt pattern.
func goHandoff(m *M) {
	v := vclock.New()
	v.Run(func() {
		done := vclock.NewMailbox[int](v)
		m.Measure(nil, func(n int) {
			for i := 0; i < n; i++ {
				i := i
				v.Go(func() { done.Send(i) })
				if x, _ := done.Recv(); x != i {
					m.Failf("goroutine %d reported %d", i, x)
				}
			}
		})
	})
}
