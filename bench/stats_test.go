package main

import (
	"math"
	"testing"
)

// The expected cut points are what Python's
// statistics.quantiles(values, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
		{[]float64{4.0, 5.5, 4.2, 4.1, 4.3, 4.0, 9.9}, 4.0, 4.2, 5.5},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles of nothing = %v, want NaN", q1)
	}
}

func TestStatPick(t *testing.T) {
	raw := []float64{1, 2, 3, 4}
	// 12 ops in 12 s, 6 s, 4 s and 3 s: 48 ops in 25 s.
	if s := newStat(raw, metricDef{Better: "higher", Pick: overall}); math.Abs(s.Value-48.0/25) > 1e-12 || s.Median != 2.5 {
		t.Errorf("overall rate: %+v", s)
	}
	if s := newStat(raw, metricDef{Better: "lower", Pick: highest}); s.Value != 4 {
		t.Errorf("highest: %+v", s)
	}
	s := newStat(raw, metricDef{Better: "lower"})
	if s.Value != 2.5 {
		t.Errorf("median metric: %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
	if got := newStat([]float64{5}, metricDef{}).spread(); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}
