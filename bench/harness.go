package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/c3lab/transparentedge/bench/layers"
)

// harness is the parent side of the benchmark: it builds and checks the
// program, runs every rep in a fresh child process, and never touches
// the layers itself.
type harness struct {
	root  string // the checkout: the directory holding go.mod
	build string // root/bench/.build: binaries, profiles, raw results
	self  string // this executable, re-run for every child
	seed  int64
	log   io.Writer // progress notes
	speed *speedometer
	ref   float64 // see fastest
}

// fastest is the speedometer's highest rate, read once — the first time
// results are summarised — so that both run sets of an -aa run are
// stated at the same speed.
func (h *harness) fastest() float64 {
	if h.ref == 0 {
		h.ref = h.speed.fastest()
	}
	return h.ref
}

const goldenArgs = "-exp all -n 5 -seed 1"

func newHarness(seed int64, log io.Writer) (*harness, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, errors.New("no go.mod above the working directory: run from inside the repository")
		}
		root = parent
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, build: filepath.Join(root, "bench", ".build"), self: self, seed: seed, log: log, speed: startSpeedometer()}
	return h, os.MkdirAll(h.build, 0o755)
}

// child runs one rep of the named workload (or the layer drivers) in a
// fresh process; profile, when set, turns CPU profiling on in it.
func (h *harness) child(name string, scale float64, profile string) (*Rep, error) {
	args := []string{"-child", name, "-seed", strconv.FormatInt(h.seed, 10), "-scale", strconv.FormatFloat(scale, 'g', -1, 64)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.Command(h.self, args...)
	cmd.Dir = h.root
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", name, err)
	}
	var rep Rep
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return nil, fmt.Errorf("child %s: result: %w", name, err)
	}
	rep.HostRate = h.speed.rate(t0, time.Now())
	return &rep, nil
}

// setUp is one set-up pass: build cmd/edgesim, check its -exp all
// transcript against the golden file, and run one discarded 1/10-size
// warm-up rep per workload. It returns what the golden check found
// wrong ("" when nothing) and how long the pass took, counted from t0.
func (h *harness) setUp(ws []*workload, scale float64, t0 time.Time) (golden string, took timed, err error) {
	edgesim := filepath.Join(h.build, "edgesim")
	build := exec.Command("go", "build", "-o", edgesim, "./cmd/edgesim")
	build.Dir = h.root
	if out, err := build.CombinedOutput(); err != nil {
		return "", timed{}, fmt.Errorf("go build ./cmd/edgesim: %w\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join(h.root, "testdata", "golden", "exp_all_n5_seed1.txt"))
	if err != nil {
		return "", timed{}, err
	}
	// The transcript is byte-identical only on one P: with more, the
	// fault replay's same-instant goroutine races reach its p99 and max.
	run := exec.Command(edgesim, strings.Fields(goldenArgs)...)
	run.Env = append(os.Environ(), "GOMAXPROCS=1")
	run.Stderr = os.Stderr
	got, err := run.Output()
	if err != nil {
		return "", timed{}, fmt.Errorf("edgesim %s: %w", goldenArgs, err)
	}
	golden = firstDifference(got, want)
	for _, w := range ws {
		if _, err := h.child(w.Name, scale/10, ""); err != nil {
			return "", timed{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	return golden, timed{S: time.Since(t0).Seconds(), HostRate: h.speed.rate(t0, time.Now())}, nil
}

// firstDifference names the first line where got departs from want.
func firstDifference(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("edgesim %s differs from the golden transcript at line %d: %q, want %q", goldenArgs, i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("edgesim %s printed %d lines, the golden transcript has %d", goldenArgs, len(g), len(w))
}

// samples collects one workload's reps within a run set.
type samples struct {
	w      *workload
	reps   []Rep // untraced: every end-to-end metric comes from these
	traced []Rep
	attr   *attribution
}

func newSamples(ws []*workload) []*samples {
	ss := make([]*samples, len(ws))
	for i, w := range ws {
		ss[i] = &samples{w: w, attr: newAttribution()}
	}
	return ss
}

// round runs one rep of every workload in turn. Reps of different
// workloads interleave so that slow host drift (±20 % over tens of
// seconds on a shared VM) spreads over all of them alike.
func (h *harness) round(ss []*samples, scale float64, traced bool) error {
	for _, s := range ss {
		profile, kind := "", "rep"
		if traced {
			profile, kind = filepath.Join(h.build, s.w.Name+".prof"), "traced rep"
		}
		rep, err := h.child(s.w.Name, scale, profile)
		if err != nil {
			return err
		}
		fmt.Fprintf(h.log, "  %-14s %s %.2fs\n", s.w.Name, kind, rep.WallS)
		if !traced {
			s.reps = append(s.reps, *rep)
			continue
		}
		s.traced = append(s.traced, *rep)
		if err := h.attribute(profile, s.attr); err != nil {
			return err
		}
	}
	return nil
}

// attribute charges one CPU profile's samples to layers.
func (h *harness) attribute(profile string, into *attribution) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Dir = h.root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return into.addTraces(bytes.NewReader(out))
}

// runLayers runs the layer drivers in their own child and reads the host
// rate during each of their measurements.
func (h *harness) runLayers(scale float64) ([]layers.Result, error) {
	fmt.Fprintf(h.log, "  layer drivers\n")
	rep, err := h.child("layers", scale, "")
	if err != nil {
		return nil, err
	}
	for i := range rep.Layers {
		d := &rep.Layers[i]
		for j, at := range d.At {
			from := time.Unix(0, at)
			d.HostRate = append(d.HostRate, h.speed.rate(from, from.Add(time.Duration(d.Ns[j]*float64(d.Calls)))))
		}
	}
	return rep.Layers, nil
}

// summary is one workload's metrics within a run set.
type summary struct {
	Workload string `json:"workload"`
	Procs    int    `json:"gomaxprocs"`
	Op       string `json:"op"`
	Virt     string `json:"virt"`
	// Problems lists every failed correctness check; a workload with any
	// is invalid and its numbers must not be used.
	Problems []string `json:"problems,omitempty"`
	// Notes lists what a reader should know but does not invalidate.
	Notes []string `json:"notes,omitempty"`
	// Attempted totals the ops of every rep, Failed those that went wrong:
	// got no answer and were not failed by design (outcome.ByDesign).
	Attempted   int64  `json:"attempted"`
	Failed      int64  `json:"failed"`
	Fingerprint string `json:"fingerprint"`
	VirtSamples int64  `json:"virt_samples"`
	// WallS is each untraced rep's wall time around the testbed.Run*
	// call(s) as the child's clock measured it, HostSpeed the host speed
	// read during the rep; ops_per_s divides by their product.
	WallS     []float64          `json:"wall_s"`
	HostSpeed []float64          `json:"host_speed"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

func (s *summary) valid() bool { return len(s.Problems) == 0 }

// timed is a host time with the host rate read while it passed.
type timed struct {
	S        float64 `json:"s"`
	HostRate float64 `json:"host_rate"`
}

// summarize reduces one workload's reps to its metrics. setups are the
// set-up passes; drivers the layer drivers' results (both may be empty);
// fastest is the speedometer's highest rate. Every host time it reports
// is multiplied by the host speed — the host rate read while the time
// passed ÷ fastest — and so stated at the host's fastest observed speed
// (hostspeed.go).
func summarize(s *samples, setups []timed, drivers []layers.Result, fastest float64) *summary {
	sum := &summary{Workload: s.w.Name, Procs: procs(s.w.Procs), Op: s.w.Op, Virt: s.w.Virt, EndToEnd: map[string]stat{}, PerLayer: map[string]float64{}}
	all := append(append([]Rep(nil), s.reps...), s.traced...)
	if len(all) == 0 {
		sum.Problems = append(sum.Problems, "no reps")
		return sum
	}
	// Every untraced rep of one seed must do the same thing on the virtual
	// axis, bit for bit — but for one rep in eight. HEAD is not quite
	// deterministic even on one P: when two goroutines send on one link at
	// the same virtual instant the Go scheduler decides whose frame queues
	// first, and one chaos rep in 70 (full size) to 600 (1/5 size) has one
	// request 528 ns faster than the others (README, observations). A
	// workload whose results depend on the host's schedule in earnest, as
	// figures, mobility and chaos do on two Ps, splits 5 ways over 8 reps.
	// A traced rep is held to its own checks and the op count only: the
	// profiler's writer goroutine sleeps on a timer, which on one P can
	// reorder the simulation's goroutines (see startSampler).
	virtual := func(r Rep) string {
		return fmt.Sprintf("ops %d, failed %d (%d by design), virt_p50_ms %v, virt_p99_ms %v over %d samples, fingerprint %s",
			r.Ops, r.Failed, r.ByDesign, r.VirtP50Ms, r.VirtP99Ms, r.VirtSamples, r.Fingerprint)
	}
	agree := map[string]int{}
	result := all[0]
	for _, r := range s.reps {
		if agree[virtual(r)]++; agree[virtual(r)] > agree[virtual(result)] {
			result = r
		}
	}
	sum.Fingerprint, sum.VirtSamples = result.Fingerprint, result.VirtSamples
	differ := 0
	for i, r := range all {
		sum.Attempted += r.Ops
		sum.Failed += r.Failed - r.ByDesign
		if r.Invalid != "" {
			sum.Problems = append(sum.Problems, fmt.Sprintf("rep %d: %s", i, r.Invalid))
		}
		switch traced := i >= len(s.reps); {
		case traced && r.Ops != result.Ops:
			sum.Problems = append(sum.Problems, fmt.Sprintf("traced rep %d attempted %d ops, the untraced reps %d", i, r.Ops, result.Ops))
		case !traced && virtual(r) != virtual(result):
			differ++
			sum.Notes = append(sum.Notes, fmt.Sprintf("rep %d differs from the others of the same seed: %s; the others: %s", i, virtual(r), virtual(result)))
		}
	}
	if differ > (len(s.reps)+1)/8 {
		sum.Problems = append(sum.Problems, fmt.Sprintf("%d of %d untraced reps differ on the virtual axis (see the notes)", differ, len(s.reps)))
	}

	per := func(reps []Rep, f func(r Rep) float64) []float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return vs
	}
	speed := func(r Rep) float64 { return r.HostRate / fastest }
	sum.WallS = per(s.reps, func(r Rep) float64 { return r.WallS })
	sum.HostSpeed = per(s.reps, speed)
	var setupS []float64
	for _, t := range setups {
		setupS = append(setupS, t.S*t.HostRate/fastest)
	}
	virt := s.reps
	if len(virt) == 0 {
		virt = s.traced
	}
	// Every end-to-end metric comes from the untraced reps only, unless
	// there are none (the traced rep alone).
	raw := map[string][]float64{
		"setup_s":            setupS,
		"ops_per_s":          per(s.reps, func(r Rep) float64 { return float64(r.Ops) / (r.WallS * speed(r)) }),
		"allocs_per_op":      per(s.reps, func(r Rep) float64 { return float64(r.Mallocs) / float64(r.Ops) }),
		"peak_live_heap_mib": per(s.reps, func(r Rep) float64 { return float64(r.PeakLiveHeap) / (1 << 20) }),
		"virt_p50_ms":        per(virt, func(r Rep) float64 { return r.VirtP50Ms }),
		"virt_p99_ms":        per(virt, func(r Rep) float64 { return r.VirtP99Ms }),
		"failed_share":       per(virt, func(r Rep) float64 { return float64(r.Failed) / float64(r.Ops) }),
		"answered_share":     per(virt, func(r Rep) float64 { return 1 - float64(r.Failed)/float64(r.Ops) }),
	}
	for _, m := range endToEnd {
		if len(raw[m.Name]) == 0 {
			continue
		}
		st := newStat(raw[m.Name], m)
		sum.EndToEnd[m.Name] = st
		if m.Virtual {
			sum.PerLayer[m.Name] = st.Value
		}
	}

	if len(s.reps) > 0 {
		for name := range s.reps[0].Counts {
			name := name
			sum.PerLayer[name] = median(per(s.reps, func(r Rep) float64 { return r.Counts[name] }))
		}
		sum.PerLayer["runtime.peak_goroutines"] = median(per(s.reps, func(r Rep) float64 { return float64(r.PeakGoroutine) }))
		sum.PerLayer["runtime.gc_cycles"] = median(per(s.reps, func(r Rep) float64 { return float64(r.GCCycles) }))
		sum.PerLayer["runtime.gc_cpu_s"] = median(per(s.reps, func(r Rep) float64 { return r.GCCPUS * speed(r) }))
		sum.PerLayer["testbed.cpu_s"] = median(per(s.reps, func(r Rep) float64 { return r.CPUS * speed(r) }))
		sum.PerLayer["testbed.peak_rss_mib"] = median(per(s.reps, func(r Rep) float64 { return r.PeakRSSMiB }))
		sum.PerLayer["testbed.alloc_bytes_per_op"] = median(per(s.reps, func(r Rep) float64 { return float64(r.AllocBytes) / float64(r.Ops) }))
		// What the host did meanwhile, and the throughput on the wall clock.
		sum.PerLayer["host.speed"] = median(sum.HostSpeed)
		var ops int64
		var wall float64
		for _, r := range s.reps {
			ops += r.Ops
			wall += r.WallS
		}
		sum.PerLayer["host.wall_ops_per_s"] = float64(ops) / wall
	}
	if len(s.traced) > 0 {
		// The profiles of all traced reps are attributed together, so their
		// CPU time is scaled by the reps' mean speed, weighted by wall time.
		var ops int64
		var wall, work float64
		for _, r := range s.traced {
			ops += r.Ops
			wall += r.WallS
			work += r.WallS * speed(r)
		}
		for _, l := range cpuLayers {
			sum.PerLayer[l+".cpu_us_per_op"] = float64(s.attr.ByLayer[l].Microseconds()) * (work / wall) / float64(ops)
		}
		sum.PerLayer["trace.attributed_share"] = s.attr.attributed()
		if len(s.reps) > 0 {
			scaled := func(r Rep) float64 { return r.WallS * speed(r) }
			sum.PerLayer["trace.overhead_pct"] = (median(per(s.traced, scaled))/median(per(s.reps, scaled)) - 1) * 100
		}
	}
	for _, d := range drivers {
		if d.Err != "" {
			sum.Problems = append(sum.Problems, fmt.Sprintf("layer driver %s: %s", d.Name, d.Err))
		}
		sum.PerLayer[d.Name+"_ns"], sum.PerLayer[d.Name+"_allocs"] = driverStat(d, fastest)
		for name, v := range d.Virt {
			sum.PerLayer[name] = v
		}
	}
	return sum
}
