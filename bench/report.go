package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"github.com/c3lab/transparentedge/bench/layers"
)

// hostContext is recorded with every run set: host numbers from
// different contexts do not compare.
type hostContext struct {
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"nproc"`
	GitRev    string `json:"git_rev"`
}

func readContext(root string) hostContext {
	c := hostContext{GoVersion: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(), GitRev: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				c.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		c.GitRev = strings.TrimSpace(string(out))
	}
	return c
}

func printRunSet(w io.Writer, rs *runSet) {
	c := rs.Context
	fmt.Fprintf(w, "bench: %s, %s, nproc %d, rev %s; seed %d, scale %g, %d reps; host times at the host's fastest observed speed (%.0f kernels/s)\n",
		c.GoVersion, c.CPU, c.NumCPU, c.GitRev, rs.Seed, rs.Scale, rs.Reps, rs.FastestRate)
	for _, s := range rs.Workloads {
		printSummary(w, s)
	}
	printDrivers(w, rs.Layers, rs.FastestRate)
}

// printDrivers prints the layer drivers' results, which do not depend on
// the workload.
func printDrivers(w io.Writer, drivers []layers.Result, fastest float64) {
	if len(drivers) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== layer drivers\n%-34s %14s %s\n", "per-layer", "value", "unit")
	for _, d := range drivers {
		ns, allocs := driverStat(d, fastest)
		fmt.Fprintf(w, "%-34s %14.6g ns\n%-34s %14.6g allocs\n", d.Name+"_ns", ns, d.Name+"_allocs", allocs)
	}
}

// printSummary prints every metric of one workload by name with its
// unit: the end-to-end metrics with their spread, then the per-layer
// metrics that have a value (the layer drivers' are printed once, by
// printDrivers).
func printSummary(w io.Writer, s *summary) {
	state := "valid"
	if !s.valid() {
		state = "INVALID"
	}
	fmt.Fprintf(w, "\n== %s (%s) — GOMAXPROCS %d; op: %s; virt: %s, %d samples; fingerprint %s\n",
		s.Workload, state, s.Procs, s.Op, s.Virt, s.VirtSamples, s.Fingerprint)
	for _, p := range s.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	for _, n := range s.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "%-22s %14s %-10s %14s %14s %14s %3s %7s %7s\n", "end-to-end", "value", "unit", "median", "q1", "q3", "n", "spread", "bound")
	for _, m := range endToEnd {
		st, ok := s.EndToEnd[m.Name]
		if !ok {
			continue
		}
		note := ""
		switch {
		case m.Virtual && st.Q1 == st.Q3:
			note = "exact"
		case !m.Virtual && st.spread() > m.Bound:
			// The reps disagree by more than the bound: a difference of
			// that size between two builds is noise, not a result.
			note = "unresolved"
		}
		fmt.Fprintf(w, "%-22s %14.6g %-10s %14.6g %14.6g %14.6g %3d %6.1f%% %7s %s\n",
			m.Name, st.Value, m.Unit, st.Median, st.Q1, st.Q3, st.N, st.spread()*100, m.amount(m.Bound), note)
	}
	fmt.Fprintf(w, "%-34s %14s %s\n", "per-layer", "value", "unit")
	for _, m := range workloadLayerMetrics() {
		if v, ok := s.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
}

// printAA compares two run sets of the same build: per end-to-end metric
// and workload both values, their difference and the bound. It reports
// whether every difference stayed inside its bound and the second set
// passed its checks (the first set's are printed with its tables).
func printAA(w io.Writer, a, b *runSet) bool {
	fmt.Fprintf(w, "\n== A/A: two run sets of the same build\n")
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	ok := true
	for i, sa := range a.Workloads {
		sb := b.Workloads[i]
		for _, p := range sb.Problems {
			fmt.Fprintf(w, "%-16s INVALID in the second set: %s\n", sb.Workload, p)
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := sa.EndToEnd[m.Name].Value, sb.EndToEnd[m.Name].Value
			diff := math.Abs(vb - va)
			if !m.Absolute && va != 0 {
				diff /= math.Abs(va)
			}
			verdict := ""
			if diff > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %9s %8s %s\n", sa.Workload, m.Name, va, vb, m.amount(diff), m.amount(m.Bound), verdict)
		}
	}
	return ok
}
