package testbed

import (
	"math"
	"testing"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// zipfPickLinear is the reference implementation (the pre-alias linear
// scan): first rank whose CDF exceeds the draw.
func zipfPickLinear(cdf []float64, u float64) int {
	for r, c := range cdf {
		if u < c {
			return r
		}
	}
	return len(cdf) - 1
}

// TestZipfSamplersAgree cross-checks all three samplers — linear scan,
// binary search, and the alias table — draw for draw on the same rng
// stream: the O(1) path must keep the exact service assignment the scan
// produced, not merely the same distribution.
func TestZipfSamplersAgree(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 1.1}, {2, 0.9}, {8, 1.1}, {8, 2.0}, {64, 1.1}, {500, 1.3}, {1000, 0.8}} {
		cdf := zipfCDF(tc.n, tc.s)
		alias := newAliasSampler(cdf)
		if alias == nil {
			t.Fatalf("n=%d s=%.1f: alias table did not build", tc.n, tc.s)
		}
		rng := vclock.NewRand(int64(tc.n))
		for i := 0; i < 20000; i++ {
			u := rng.Float64()
			want := zipfPickLinear(cdf, u)
			if got := zipfPick(cdf, u); got != want {
				t.Fatalf("n=%d s=%.1f u=%v: binary %d, linear %d", tc.n, tc.s, u, got, want)
			}
			if got := alias.pick(u); got != want {
				t.Fatalf("n=%d s=%.1f u=%v: alias %d, linear %d", tc.n, tc.s, u, got, want)
			}
		}
		// Probe the CDF boundaries themselves and their float neighbors,
		// where an off-by-one in either sampler would hide.
		for _, c := range cdf {
			for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
				if u < 0 || u >= 1 {
					continue
				}
				want := zipfPickLinear(cdf, u)
				if got := zipfPick(cdf, u); got != want {
					t.Fatalf("boundary u=%v: binary %d, linear %d", u, got, want)
				}
				if got := alias.pick(u); got != want {
					t.Fatalf("boundary u=%v: alias %d, linear %d", u, got, want)
				}
			}
		}
	}
}

// TestZipfSamplerFallback forces the binary-search fallback with a
// distribution too skewed to align an alias table, and checks the
// fallback still matches the reference draw for draw.
func TestZipfSamplerFallback(t *testing.T) {
	cdf := []float64{1 - 1e-9, 1 - 5e-10, 1}
	if a := newAliasSampler(cdf); a != nil {
		t.Fatal("alias table built past the cell cap")
	}
	smp := newZipfSampler(cdf)
	if _, ok := smp.(searchSampler); !ok {
		t.Fatalf("fallback sampler is %T, want searchSampler", smp)
	}
	rng := vclock.NewRand(11)
	for i := 0; i < 1000; i++ {
		u := rng.Float64()
		if got, want := smp.pick(u), zipfPickLinear(cdf, u); got != want {
			t.Fatalf("u=%v: fallback %d, linear %d", u, got, want)
		}
	}
	for _, u := range []float64{0, 1 - 1e-9, 1 - 4e-10, math.Nextafter(1, 0)} {
		if got, want := smp.pick(u), zipfPickLinear(cdf, u); got != want {
			t.Fatalf("boundary u=%v: fallback %d, linear %d", u, got, want)
		}
	}
}

// TestZipfSamplerDefault checks the load engine's default configuration
// takes the O(1) alias path.
func TestZipfSamplerDefault(t *testing.T) {
	cfg := LoadConfig{}.withDefaults()
	if _, ok := newZipfSampler(zipfCDF(cfg.Services, cfg.ZipfS)).(*aliasSampler); !ok {
		t.Fatal("default load config did not get the alias sampler")
	}
}

// TestZipfAliasZeroAlloc holds the per-arrival service draw — one
// uniform draw through the alias table — at 0 allocs.
func TestZipfAliasZeroAlloc(t *testing.T) {
	alias := newAliasSampler(zipfCDF(64, 1.1))
	if alias == nil {
		t.Fatal("alias table did not build")
	}
	rng := vclock.NewRand(1)
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sink += alias.pick(rng.Float64())
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("alias draw allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkZipfAlias is the per-arrival service draw at load-engine
// scale: one uniform draw through the alias table.
func BenchmarkZipfAlias(b *testing.B) {
	cdf := zipfCDF(64, 1.1)
	alias := newAliasSampler(cdf)
	if alias == nil {
		b.Fatal("alias table did not build")
	}
	rng := vclock.NewRand(1)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += alias.pick(rng.Float64())
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
