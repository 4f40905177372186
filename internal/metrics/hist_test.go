package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestHistIndexRoundTrip pins the bucket layout: every value lands in a
// bucket whose upper bound is ≥ the value and within the documented
// relative width, and bucket indexes are monotone in the value.
func TestHistIndexRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 63, 64, 65, 127, 128, 1000, int64(time.Millisecond),
		1 << 20, (1 << 20) + 17, int64(time.Hour), math.MaxInt64 / 2, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		if i < prev {
			t.Fatalf("histIndex not monotone at %d", v)
		}
		prev = i
		up := histUpper(i)
		if up < v {
			t.Fatalf("histUpper(%d) = %d < value %d", i, up, v)
		}
		if v >= histSubBuckets && up-v >= v/histRelErrInv+1 {
			t.Fatalf("bucket width at %d: upper %d exceeds relative bound", v, up)
		}
		if v < histSubBuckets && up != v {
			t.Fatalf("exact region: histUpper(histIndex(%d)) = %d", v, up)
		}
	}
}

// TestHistQuantileAgreesWithSeries drives random workloads (log-normal
// shaped, like the latency distributions the testbed produces) through
// both backends: every Hist percentile must bracket the exact Series
// percentile from above within the documented 1/64 relative bin error.
func TestHistQuantileAgreesWithSeries(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHist("h")
		s := NewSeries("s")
		n := 1000 + rng.Intn(9000)
		for i := 0; i < n; i++ {
			d := time.Duration(float64(5*time.Millisecond) * math.Exp(rng.NormFloat64()))
			h.Record(d)
			s.Add(d)
		}
		if h.Count() != int64(s.Len()) {
			t.Fatalf("seed %d: count %d vs %d", seed, h.Count(), s.Len())
		}
		for _, p := range []float64{0, 10, 50, 90, 95, 99, 99.9, 100} {
			exact, approx := s.Percentile(p), h.Percentile(p)
			if approx < exact {
				t.Fatalf("seed %d p%.1f: hist %v underestimates exact %v", seed, p, approx, exact)
			}
			if bound := exact + exact/histRelErrInv + 1; approx > bound {
				t.Fatalf("seed %d p%.1f: hist %v exceeds error bound %v (exact %v)", seed, p, approx, bound, exact)
			}
		}
		if h.Min() != s.Min() || h.Max() != s.Max() {
			t.Fatalf("seed %d: min/max %v/%v vs exact %v/%v", seed, h.Min(), h.Max(), s.Min(), s.Max())
		}
		if h.Mean() != s.Mean() {
			t.Fatalf("seed %d: mean %v vs exact %v", seed, h.Mean(), s.Mean())
		}
	}
}

// TestHistMergeOrderIndependence merges per-replication histograms in
// every order of three parts: counts, extremes, and all quantiles must
// be identical, and equal to recording everything into one Hist.
func TestHistMergeOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parts := make([]*Hist, 3)
	all := NewHist("all")
	for i := range parts {
		parts[i] = NewHist("part")
		for j := 0; j < 500*(i+1); j++ {
			d := time.Duration(rng.Int63n(int64(3 * time.Second)))
			parts[i].Record(d)
			all.Record(d)
		}
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}}
	quantiles := []float64{0, 25, 50, 75, 90, 99, 100}
	for _, ord := range orders {
		m := NewHist("merged")
		for _, i := range ord {
			m.Merge(parts[i])
		}
		if m.Count() != all.Count() || m.Min() != all.Min() || m.Max() != all.Max() || m.Mean() != all.Mean() {
			t.Fatalf("order %v: count/min/max/mean diverge from single-hist recording", ord)
		}
		for _, p := range quantiles {
			if m.Percentile(p) != all.Percentile(p) {
				t.Fatalf("order %v p%.0f: %v vs %v", ord, p, m.Percentile(p), all.Percentile(p))
			}
		}
	}
	// Merging an empty or nil hist is a no-op.
	before := all.Percentile(50)
	all.Merge(NewHist("empty"))
	all.Merge(nil)
	if all.Percentile(50) != before {
		t.Fatal("merging empty hist changed quantiles")
	}
}

// TestHistRecordZeroAlloc is the streaming guarantee: recording into a
// hist never allocates, no matter how many samples have been seen.
func TestHistRecordZeroAlloc(t *testing.T) {
	h := NewHist("alloc")
	d := 37 * time.Microsecond
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(d)
		d += 911 * time.Nanosecond
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestHistEmptyAndClamp pins the edge cases: an empty hist reports
// zeros, and negative samples clamp to zero instead of corrupting the
// bucket index.
func TestHistEmptyAndClamp(t *testing.T) {
	h := NewHist("empty")
	if h.Count() != 0 || h.Median() != 0 || h.Percentile(99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty hist stats non-zero")
	}
	h.Record(-time.Second)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 || h.Median() != 0 {
		t.Fatalf("negative sample not clamped: min %v max %v", h.Min(), h.Max())
	}
}

// BenchmarkHistRecord is the telemetry hot path: one Record per load
// arrival at millions of arrivals per run. TestHistRecordZeroAlloc holds
// it to 0 allocs/op.
func BenchmarkHistRecord(b *testing.B) {
	h := NewHist("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * 37)
	}
	if h.Count() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}
