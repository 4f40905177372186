package testbed

import (
	"math"
	"testing"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// zipfPickLinear is the reference implementation: a linear scan for
// the first rank whose CDF exceeds the draw.
func zipfPickLinear(cdf []float64, u float64) int {
	for r, c := range cdf {
		if u < c {
			return r
		}
	}
	return len(cdf) - 1
}

// TestZipfSamplersAgree cross-checks the binary search against the
// linear scan draw for draw on the same rng stream: the load engine's
// service assignment must be exactly the scan's, not merely the same
// distribution. The cases include the load engine's default
// configuration and a distribution so skewed that its last two ranks
// together hold 1e-9 of the mass.
func TestZipfSamplersAgree(t *testing.T) {
	def := LoadConfig{}.withDefaults()
	for _, tc := range []struct {
		name string
		cdf  []float64
	}{
		{"n=1,s=1.1", zipfCDF(1, 1.1)},
		{"n=2,s=0.9", zipfCDF(2, 0.9)},
		{"default", zipfCDF(def.Services, def.ZipfS)},
		{"n=8,s=2.0", zipfCDF(8, 2.0)},
		{"n=64,s=1.1", zipfCDF(64, 1.1)},
		{"n=500,s=1.3", zipfCDF(500, 1.3)},
		{"n=1000,s=0.8", zipfCDF(1000, 0.8)},
		{"skewed", []float64{1 - 1e-9, 1 - 5e-10, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cdf := tc.cdf
			rng := vclock.NewRand(int64(len(cdf)))
			for i := 0; i < 20000; i++ {
				u := rng.Float64()
				if got, want := zipfPick(cdf, u), zipfPickLinear(cdf, u); got != want {
					t.Fatalf("u=%v: binary %d, linear %d", u, got, want)
				}
			}
			// Probe the CDF boundaries themselves and their float
			// neighbors, where an off-by-one would hide, and the ends of
			// [0,1).
			probes := []float64{0, math.Nextafter(1, 0)}
			for _, c := range cdf {
				probes = append(probes, math.Nextafter(c, 0), c, math.Nextafter(c, 1))
			}
			for _, u := range probes {
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := zipfPick(cdf, u), zipfPickLinear(cdf, u); got != want {
					t.Fatalf("boundary u=%v: binary %d, linear %d", u, got, want)
				}
			}
		})
	}
}

// TestZipfAliasZeroAlloc holds the per-arrival service draw — one
// uniform draw through zipfPick — at 0 allocs.
func TestZipfAliasZeroAlloc(t *testing.T) {
	cdf := zipfCDF(64, 1.1)
	rng := vclock.NewRand(1)
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sink += zipfPick(cdf, rng.Float64())
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("service draw allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkZipfPick is the per-arrival service draw of the load
// engine's default configuration: one uniform draw through zipfPick.
func BenchmarkZipfPick(b *testing.B) {
	def := LoadConfig{}.withDefaults()
	cdf := zipfCDF(def.Services, def.ZipfS)
	rng := vclock.NewRand(1)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += zipfPick(cdf, rng.Float64())
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
