// Package metrics implements the measurement vocabulary of the paper's
// evaluation: Jain's Fairness Index for intra-CCA fairness (Findings
// 4–5), aggregate throughput shares for inter-CCA fairness (Findings
// 6–8), the Goh–Barabási burstiness score applied to bottleneck drop
// times (§4, Finding 3's corroboration), and the summary statistics
// (medians, quantiles) the figures report.
//
// A product that feeds a sum is written float64(x*y): the explicit
// conversion forbids a fused multiply-add, so every GOARCH rounds as
// amd64 does (root TestNoFusedMultiplyAdd checks the assembly).
package metrics

import (
	"math"
	"sort"
)

// JFI computes Jain's Fairness Index over per-flow allocations:
// (Σx)² / (n·Σx²), ranging from 1/n (one flow gets everything) to 1
// (perfectly equal shares). An empty input returns 0; all-zero
// allocations return 1 (degenerate equality, matching the convention in
// fairness tooling).
func JFI(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Burstiness computes the Goh–Barabási burstiness score
// B = (σ − μ)/(σ + μ) over the inter-event times of the given event
// timestamps (which need not be sorted; a sorted copy is taken).
// B ranges from −1 (perfectly periodic) through 0 (Poisson) to 1
// (maximally bursty). The paper measures B ≈ 0.2 for bottleneck drops
// at EdgeScale and ≈ 0.35 at CoreScale. Fewer than three events return
// 0 (no inter-arrival distribution to speak of).
func Burstiness(times []float64) float64 {
	ts := append([]float64(nil), times...)
	sort.Float64s(ts)
	return BurstinessOfGaps(func(yield func(gap float64)) {
		for i := 1; i < len(ts); i++ {
			yield(ts[i] - ts[i-1])
		}
	})
}

// BurstinessOfGaps is Burstiness over the inter-event gaps that walk
// yields, for a caller that holds its events in order and need not copy
// them. walk is called twice and must yield the same gaps both times:
// the first pass sums them as Mean does, the second sums the squared
// deviations as StdDev does, so the score is bit-identical to
// Burstiness over the events. Fewer than two gaps return 0.
func BurstinessOfGaps(walk func(yield func(gap float64))) float64 {
	var n int
	var sum float64
	walk(func(g float64) {
		n++
		sum += g
	})
	if n < 2 {
		return 0
	}
	mu := sum / float64(n)
	var ss float64
	walk(func(g float64) {
		d := g - mu
		ss += float64(d * d)
	})
	sigma := math.Sqrt(ss / float64(n))
	if sigma+mu == 0 {
		return 0
	}
	return (sigma - mu) / (sigma + mu)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation (0 for fewer than
// two values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Median returns the middle value (mean of the two middle values for
// even lengths; 0 for empty input).
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks. Empty input returns 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Share returns the fraction of total taken by part, 0 when total is 0.
func Share(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total
}

// Sum returns the total of the values.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
