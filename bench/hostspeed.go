package main

import (
	"sync"
	"time"
)

// The shared VM this benchmark has to run on changes speed under it:
// reps of the same work come out in clusters ≈ 1.6 times apart, the host
// moves between them within seconds, and the share of time it spends in
// each drifts over minutes and hours. Wall-clock throughput therefore
// spreads by 6–27 % over ten runs of one build and moved by 29 % between
// two ten-run sets an hour apart (README, "Host speed"), more than any
// bound the run contract allows. So the harness measures the host while
// the children run, and reports host times at the host's fastest
// observed speed.
//
// The speedometer is a goroutine in the otherwise idle harness process
// that times a small fixed kernel every few tens of milliseconds. The
// host rate over an interval is the mean of 1 ÷ kernel time over the
// samples taken in it: how many kernels per second the host could run.
// Divided by the highest rate any single sample showed (the host at its
// fastest), it is the interval's host speed, between 0 and 1, and a time
// measured in the interval is multiplied by it. That is exact for a
// program that slows down by the same factor as the kernel does; the
// workloads slow down a little less.

// speedPeriod is the pause between two kernel runs: with a kernel of
// ≈ 1.5–3 ms the speedometer uses under a tenth of one CPU.
const speedPeriod = 25 * time.Millisecond

type speedSample struct {
	at   time.Time
	rate float64 // 1 ÷ kernel time in seconds
}

type speedometer struct {
	mu      sync.Mutex
	samples []speedSample // in time order
	done    chan struct{}
	wg      sync.WaitGroup
}

type kernelNode struct {
	count int
	next  *kernelNode
}

// kernelSink keeps the kernel's result alive.
var kernelSink *kernelNode

// kernel is the fixed work the speedometer times: map lookups, pointer
// writes and small allocations, the instruction mix of the emulator's
// hot paths.
func kernel() time.Duration {
	t0 := time.Now()
	m := make(map[uint32]*kernelNode, 4096)
	var x uint32 = 1
	for i := 0; i < 75000; i++ {
		x = x*1664525 + 1013904223
		k := x >> 20
		n := m[k]
		if n == nil {
			n = &kernelNode{}
			m[k] = n
		}
		n.count++
		n.next = m[(k+1)&4095]
	}
	kernelSink = m[0]
	return time.Since(t0)
}

// startSpeedometer takes a first sample before it returns, so that every
// later interval has a sample at or before its end.
func startSpeedometer() *speedometer {
	s := &speedometer{done: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(speedPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *speedometer) sample() {
	took := kernel()
	s.mu.Lock()
	s.samples = append(s.samples, speedSample{at: time.Now(), rate: 1 / took.Seconds()})
	s.mu.Unlock()
}

func (s *speedometer) stop() {
	close(s.done)
	s.wg.Wait()
}

// rate is the mean host rate over [from, to], in kernels per second. An
// interval too short to hold a sample takes the last sample before it.
func (s *speedometer) rate(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	n := 0
	before := s.samples[0].rate
	for _, smp := range s.samples {
		switch {
		case smp.at.Before(from):
			before = smp.rate
		case !smp.at.After(to):
			sum += smp.rate
			n++
		}
	}
	if n == 0 {
		return before
	}
	return sum / float64(n)
}

// fastest is the highest rate any sample showed so far.
func (s *speedometer) fastest() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max float64
	for _, smp := range s.samples {
		if smp.rate > max {
			max = smp.rate
		}
	}
	return max
}
