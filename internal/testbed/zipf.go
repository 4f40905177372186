package testbed

import "math"

// Zipf service-popularity sampling for the load engine. The popularity
// CDF is fixed for a whole run, so a per-arrival draw is one uniform
// inverted through it by binary search: allocation-free, and for the
// default eight services, three comparisons.

// zipfCDF precomputes the cumulative Zipf distribution over n ranks
// with exponent s: weight(r) ∝ 1/(r+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// zipfPick maps a uniform draw through the CDF by binary search for the
// first rank with u < cdf[rank] — the same result as a linear scan for
// every u (strict comparison on both sides), in O(log n).
func zipfPick(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
