package main

import (
	"math"
	"sort"

	"github.com/c3lab/transparentedge/bench/layers"
)

// stat summarises the per-rep values of one metric on one workload.
type stat struct {
	// Value is what the metric reports (see pick).
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

// quartiles returns the three cut points of vs the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is
// how the contract's spread is computed. Fewer than two values have no
// spread: all three are the value itself.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based rank, may fall between values
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// newStat builds a metric's stat from its per-rep values.
func newStat(raw []float64, m metricDef) stat {
	q1, q2, q3 := quartiles(raw)
	st := stat{Value: q2, Median: q2, Q1: q1, Q3: q3, N: len(raw), Raw: raw}
	switch m.Pick {
	case overall:
		var inv float64
		for _, v := range raw {
			inv += 1 / v
		}
		st.Value = float64(len(raw)) / inv
	case highest:
		for _, v := range raw {
			st.Value = math.Max(st.Value, v)
		}
	}
	return st
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a difference has to exceed to be resolved.
func (s stat) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// driverStat reduces a layer driver's measurements to what it reports
// per call: the lower quartile of the times, each at the host's fastest
// observed speed (hostspeed.go), and the median of the allocation counts.
func driverStat(d layers.Result, fastest float64) (ns, allocs float64) {
	scaled := make([]float64, len(d.Ns))
	for i, v := range d.Ns {
		scaled[i] = v * d.HostRate[i] / fastest
	}
	ns, _, _ = quartiles(scaled)
	return ns, median(d.Allocs)
}
