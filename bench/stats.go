package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the p-quantile (0 ≤ p ≤ 1) of xs with linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method: position
// p·(n+1) in the 1-based order statistics), because that is the
// estimator the acceptance spread is computed with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentile returns the highest of the usual tail percentiles
// (p50 … p99.99) that still has at least ten samples beyond it, with
// its value. A percentile with fewer samples above it is a statement
// about a handful of outliers, not about the distribution. Under 20
// samples nothing qualifies and it falls back to the median.
func tailPercentile(xs []float64) (pct, value float64) {
	pct = 50
	for _, p := range []float64{75, 90, 95, 99, 99.9, 99.99} {
		beyond := float64(len(xs)) * (100 - p) / 100
		if beyond+1e-9 < 10 {
			break
		}
		pct = p
	}
	return pct, quantile(xs, pct/100)
}
