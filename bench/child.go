package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	rmetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"github.com/c3lab/transparentedge/bench/layers"
)

// Rep is what one child process reports: one rep of one workload (or,
// for the "layers" child, the layer drivers' results). Host-axis fields
// vary from rep to rep; Virt*, Failed, Fingerprint must not.
type Rep struct {
	Ops int64 `json:"ops"`
	// Failed and ByDesign are outcome's: ops that got no answer, and those
	// of them the inputs call for.
	Failed   int64 `json:"failed"`
	ByDesign int64 `json:"failed_by_design"`
	// HostRate is the host rate the speedometer read while the child ran
	// (hostspeed.go); the harness fills it in.
	HostRate float64 `json:"host_rate"`
	// WallS is the wall time around the testbed.Run* calls.
	WallS         float64 `json:"wall_s"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	PeakLiveHeap  uint64  `json:"peak_live_heap_bytes"`
	PeakGoroutine uint64  `json:"peak_goroutines"`
	GCCycles      uint64  `json:"gc_cycles"`
	GCCPUS        float64 `json:"gc_cpu_s"`
	CPUS          float64 `json:"cpu_s"`
	PeakRSSMiB    float64 `json:"peak_rss_mib"`

	VirtP50Ms   float64 `json:"virt_p50_ms"`
	VirtP99Ms   float64 `json:"virt_p99_ms"`
	VirtSamples int64   `json:"virt_samples"`
	Fingerprint string  `json:"fingerprint"`
	Invalid     string  `json:"invalid,omitempty"`

	// Counts are the per-layer count metrics derived from the rep's
	// results, by metric name.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Layers is set by the "layers" child only.
	Layers []layers.Result `json:"layers,omitempty"`
}

// layersProcs is the GOMAXPROCS of the layer drivers' child: the
// reference host's 2 cores.
const layersProcs = 2

// procs is the GOMAXPROCS a child that wants `want` runs with: never
// more than the host has.
func procs(want int) int {
	if n := runtime.NumCPU(); n < want {
		return n
	}
	return want
}

// childMain runs one rep in this (fresh) process and prints its Rep as
// one JSON line on stdout. Back-to-back reps in one process retain tens
// of MiB each, so the harness never reuses a child.
func childMain(name string, seed int64, scale float64, cpuprofile string) error {
	if name == "layers" {
		runtime.GOMAXPROCS(procs(layersProcs))
		return json.NewEncoder(os.Stdout).Encode(Rep{Layers: layers.RunAll(scale)})
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(procs(w.Procs))
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	rep, err := measureRep(w, seed, scale)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// measureRep runs w once and measures the process around the call.
func measureRep(w *workload, seed int64, scale float64) (*Rep, error) {
	rep := &Rep{}
	smp := startSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readRuntime()
	t0 := time.Now()
	out, err := w.run(seed, scale)
	rep.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	gc1 := readRuntime()
	rep.PeakLiveHeap, rep.PeakGoroutine = smp.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	rep.Ops, rep.Failed, rep.ByDesign = out.Ops, out.Failed, out.ByDesign
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.GCCycles = gc1.cycles - gc0.cycles
	rep.GCCPUS = gc1.gcCPU - gc0.gcCPU
	rep.CPUS, rep.PeakRSSMiB = rusage()
	rep.VirtP50Ms, rep.VirtP99Ms, rep.VirtSamples = ms(out.VirtP50), ms(out.VirtP99), out.VirtSamples
	rep.Fingerprint, rep.Invalid = out.Fingerprint, out.Invalid
	rep.Counts = counts(out)
	return rep, nil
}

// counts derives the per-layer count metrics from a rep's results.
func counts(out *outcome) map[string]float64 {
	s, ops := out.Stats, float64(out.Ops)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := map[string]float64{
		"core.packet_ins_per_op":      float64(s.PacketIns) / ops,
		"core.memory_hit_ratio":       ratio(s.MemoryHits, s.PacketIns),
		"core.dispatches_per_op":      float64(s.ScheduleCalls) / ops,
		"core.flows_installed_per_op": float64(s.FlowsInstalled) / ops,
		"core.candidate_hit_ratio":    ratio(s.CandidateHits, s.CandidateHits+s.CandidateMisses),
		"core.retries":                float64(s.Retries),
		"core.resync_runs":            float64(s.ResyncRuns),
		"core.reinstalled_flows":      float64(s.ReinstalledFlows),
		"core.channel_drops":          float64(s.ChannelDrops),
		"core.resteered_flows_per_op": float64(s.ReSteeredFlows) / ops,
	}
	for k, v := range out.Phases {
		c[k] = v
	}
	return c
}

// sampler tracks the peak of /gc/heap/live:bytes and of the goroutine
// count at 50 Hz from its own goroutine. Unlike runtime.ReadMemStats it
// never stops the world, and the live-heap figure (what the last GC
// cycle marked) repeats far better than HeapAlloc peaks do.
type sampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	peakHeap uint64
	peakG    uint64
}

const samplePeriod = 20 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	// A goroutine woken by a timer goes to the head of its P's run queue
	// and pushes the goroutine waiting there to the tail. On one P that
	// reorders the simulation's own goroutines at an instant the wall
	// clock picks: with a sleeping sampler 3 of 300 reps of figures and
	// chaos differed on the virtual axis, without it 0 of 600. So on one
	// P the sampler never sleeps. It yields, which queues it behind the
	// runnable goroutines without reordering them, and looks at the clock
	// each time its turn comes. (On two Ps that would keep a core busy.)
	wait := s.sleep
	if runtime.GOMAXPROCS(0) == 1 {
		wait = s.yield
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		samples := []rmetrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}}
		for stopped := false; !stopped; {
			stopped = wait()
			rmetrics.Read(samples)
			if v := samples[0].Value.Uint64(); v > s.peakHeap {
				s.peakHeap = v
			}
			if v := samples[1].Value.Uint64(); v > s.peakG {
				s.peakG = v
			}
		}
	}()
	return s
}

// sleep and yield wait one sample period and report whether the sampler
// was stopped meanwhile.
func (s *sampler) sleep() (stopped bool) {
	t := time.NewTimer(samplePeriod)
	defer t.Stop()
	select {
	case <-s.done:
		return true
	case <-t.C:
		return false
	}
}

func (s *sampler) yield() (stopped bool) {
	for t0 := time.Now(); time.Since(t0) < samplePeriod; runtime.Gosched() {
		select {
		case <-s.done:
			return true
		default:
		}
	}
	return false
}

// stop takes one last sample and returns the peaks.
func (s *sampler) stop() (heap, goroutines uint64) {
	close(s.done)
	s.wg.Wait()
	return s.peakHeap, s.peakG
}

type runtimeCounters struct {
	cycles uint64
	gcCPU  float64
}

func readRuntime() runtimeCounters {
	samples := []rmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rmetrics.Read(samples)
	return runtimeCounters{cycles: samples[0].Value.Uint64(), gcCPU: samples[1].Value.Float64()}
}

// rusage reports this process's user+system CPU seconds and peak RSS.
func rusage() (cpuS, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}
